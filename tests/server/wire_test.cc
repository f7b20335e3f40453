// The daemon's wire path: frames sent from parts (SendMessage) and
// received into a reused buffer (UnixSocket::RecvFrame), checked byte
// for byte against the contiguous codec over a socketpair.

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/framing.h"
#include "common/socket.h"
#include "server/protocol.h"

namespace xupdate::server {
namespace {

std::pair<UnixSocket, UnixSocket> MakePair() {
  auto pair = UnixSocket::Pair();
  EXPECT_TRUE(pair.ok()) << pair.status();
  return std::move(*pair);
}

// Reads exactly `size` bytes from `sock`, `chunk` bytes per recv,
// pausing `pause` after each one so a large sender blocks often.
std::string ReadRaw(UnixSocket* sock, size_t size, size_t chunk,
                    std::chrono::microseconds pause) {
  std::string out(size, '\0');
  size_t got = 0;
  while (got < size) {
    ssize_t n = ::recv(sock->fd(), out.data() + got,
                       std::min(chunk, size - got), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
    if (pause.count() > 0) std::this_thread::sleep_for(pause);
  }
  out.resize(got);
  return out;
}

// A message whose payload holds `count` strings of assorted sizes,
// every seventh one empty.
Message MessageWithPayloads(size_t count) {
  Message msg;
  msg.type = MsgType::kIntegrate;
  msg.a = 0x0102030405060708ull;
  msg.b = 42;
  for (size_t i = 0; i < count; ++i) {
    const char fill = static_cast<char>('a' + i % 26);
    msg.payload.push_back(i % 7 == 3 ? std::string()
                                     : std::string(1 + (i * 37) % 300, fill));
  }
  return msg;
}

std::string Joined(const std::vector<std::string_view>& parts) {
  std::string out;
  for (std::string_view part : parts) out += part;
  return out;
}

TEST(WireTest, PartsMatchJoinedFrame) {
  // 2000 strings give about 3700 parts, more than IOV_MAX (1024) per
  // sendmsg call.
  for (size_t count : {0u, 1u, 10u, 2000u}) {
    for (bool leading_empty : {false, true}) {
      Message msg = MessageWithPayloads(count);
      if (leading_empty && count > 0) msg.payload[0].clear();
      const std::string body = EncodeMessage(msg);
      std::string scratch;
      EXPECT_EQ(Joined(MessageParts(msg, &scratch)), body)
          << count << " strings";
      const std::string frame = framing::EncodeFrame(body);
      auto [sender, receiver] = MakePair();
      std::string wire;
      std::thread reader([&, r = &receiver] {
        wire = ReadRaw(r, frame.size(), 1 << 16,
                       std::chrono::microseconds(0));
      });
      EXPECT_TRUE(SendMessage(&sender, msg).ok());
      // A short frame must end the reader's wait, not hang it.
      ASSERT_TRUE(sender.ShutdownBoth().ok());
      reader.join();
      EXPECT_EQ(wire, frame) << count << " strings";
    }
  }
}

void IgnoreSignal(int) {}

TEST(WireTest, PartialSendsDeliverEveryByte) {
  // An 8 MB message against a slow reader: sendmsg blocks for buffer
  // space over and over, and signals interrupt it there, so it returns
  // after writing only part of the frame (or with EINTR) and the send
  // loop resumes mid-part.
  struct sigaction action = {};
  struct sigaction previous = {};
  action.sa_handler = IgnoreSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: interrupted sends return early
  ASSERT_EQ(::sigaction(SIGUSR2, &action, &previous), 0);

  Message msg;
  msg.type = MsgType::kOk;
  msg.a = 7;
  std::string big(8u << 20, '\0');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>((i * 2654435761u) >> 24);
  }
  msg.payload = {"head", big, "", "tail"};
  const std::string frame = framing::EncodeFrame(EncodeMessage(msg));

  auto [sender_sock, receiver] = MakePair();
  std::string wire;
  std::thread reader([&, r = &receiver] {
    wire = ReadRaw(r, frame.size(), 64 << 10, std::chrono::microseconds(20));
  });
  std::atomic<bool> sent{false};
  Status status;
  std::thread sender([&, s = &sender_sock] {
    status = SendMessage(s, msg);
    sent = true;
  });
  while (!sent.load()) {
    ::pthread_kill(sender.native_handle(), SIGUSR2);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  sender.join();
  ASSERT_TRUE(sender_sock.ShutdownBoth().ok());
  reader.join();
  ASSERT_EQ(::sigaction(SIGUSR2, &previous, nullptr), 0);
  EXPECT_TRUE(status.ok()) << status;
  ASSERT_EQ(wire.size(), frame.size());
  EXPECT_TRUE(wire == frame);
}

TEST(WireTest, ReusedReceiveBufferHoldsOnlyTheCurrentBody) {
  auto [sender, receiver] = MakePair();
  const std::string long_body(100000, 'L');
  const std::string short_body = "short";
  std::string corrupted = framing::EncodeFrame("corrupted body");
  corrupted[framing::kHeaderSize + 3] ^= 0x20;
  std::thread writer([&, s = &sender] {
    EXPECT_TRUE(s->SendFrame({long_body}).ok());
    EXPECT_TRUE(s->SendFrame({short_body}).ok());
    EXPECT_TRUE(s->SendAll(corrupted).ok());
  });
  std::string body;
  ASSERT_TRUE(receiver.RecvFrame(kDefaultMaxMessageBytes, &body).ok());
  EXPECT_EQ(body, long_body);
  ASSERT_TRUE(receiver.RecvFrame(kDefaultMaxMessageBytes, &body).ok());
  EXPECT_EQ(body, short_body);  // no stale bytes of the long body
  EXPECT_GE(body.capacity(), long_body.size());  // the buffer was reused
  Status crc = receiver.RecvFrame(kDefaultMaxMessageBytes, &body);
  EXPECT_EQ(crc.code(), StatusCode::kParseError);
  EXPECT_NE(crc.message().find("CRC"), std::string::npos) << crc;
  EXPECT_TRUE(body.empty());
  writer.join();

  // A length prefix over the limit is refused before the buffer grows.
  std::string oversized;
  framing::PutU32(&oversized, (1u << 20) + 1);
  framing::PutU32(&oversized, 0);
  ASSERT_TRUE(sender.SendAll(oversized).ok());
  std::string fresh;
  Status refused = receiver.RecvFrame(1u << 20, &fresh);
  EXPECT_EQ(refused.code(), StatusCode::kParseError);
  EXPECT_NE(refused.message().find("exceeds"), std::string::npos) << refused;
  EXPECT_LT(fresh.capacity(), 1024u);
}

TEST(WireTest, CleanCloseBetweenFramesIsNotFound) {
  auto [sender, receiver] = MakePair();
  ASSERT_TRUE(SendMessage(&sender, Message{}).ok());
  ASSERT_TRUE(sender.Close().ok());
  std::string body;
  ASSERT_TRUE(receiver.RecvFrame(kDefaultMaxMessageBytes, &body).ok());
  auto decoded = DecodeMessage(body, /*expect_request=*/true);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->type, MsgType::kPing);
  EXPECT_EQ(receiver.RecvFrame(kDefaultMaxMessageBytes, &body).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(body.empty());
}

}  // namespace
}  // namespace xupdate::server
