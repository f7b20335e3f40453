#ifndef XUPDATE_SERVER_PROTOCOL_H_
#define XUPDATE_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/socket.h"
#include "common/status.h"

namespace xupdate::server {

// Wire protocol of the PUL reasoning daemon. A connection carries a
// sequence of request frames and their response frames, in order
// (clients may pipeline: send several requests before reading the
// responses). Each message rides in one common/framing frame — the
// exact u32 len | u32 masked-crc32c | body layout of a WAL record, so
// the server detects torn and corrupted wire bytes with the same code
// path that detects a torn journal tail. The message body mirrors the
// WAL body layout too:
//
//   body := u8 type | u64 a | u64 b | payload
//
// `a`/`b` are message-specific scalars; `payload` is a string list
// (u32 count | (u32 len | bytes)*). The protocol is stateless per
// request — the tenant name travels in each request's payload — so any
// request can be retried on a fresh connection.
//
// Requests (payload fields in order):
//   kOpen      [tenant, initial_xml]  create the tenant's store with
//              initial_xml as version 0, or open it if it exists (then
//              initial_xml must be empty). ok.a = head version.
//   kCommit    [tenant, pul_xml]      commit one PUL at head+1, through
//              the group-commit batcher. ok.a = new version.
//   kCheckout  [tenant]               a = version, b = 1 for head
//              (a ignored). ok.a = version, payload = [annotated xml].
//   kReduce    [pul_xml, mode]        a = parallelism; mode is
//              plain|deterministic|canonical. payload = [reduced xml].
//   kIntegrate [pul_xml...]           a = parallelism. ok.a = number of
//              conflicts, payload = [merged xml].
//   kAggregate [pul_xml...]           payload = [aggregate xml].
//   kStat      [] or [tenant]         ok.a = tenant head (tenant form),
//              ok.b = stat payload version (server/stat.h), payload[0] =
//              versioned stat json ({"v":...,"seq":...,"uptime_ticks":...,
//              "global":{...},"tenants":{...}}). Clients must tolerate
//              extra payload strings and unknown json keys; version
//              dispatch goes through ok.b / the "v" key, never through
//              payload arity.
//   kPing      []                     ok, empty.
//   kShutdown  []                     ok, then the server stops.
//
// Responses:
//   kOk    per-request scalars/payload as above.
//   kError a = StatusCode, payload = [message]. The session survives —
//          an inapplicable PUL must not wedge the connection.
//   kBusy  the commit admission queue is full; the client sheds load
//          (retry later). Empty payload.

enum class MsgType : uint8_t {
  kOpen = 1,
  kCommit = 2,
  kCheckout = 3,
  kReduce = 4,
  kIntegrate = 5,
  kAggregate = 6,
  kStat = 7,
  kPing = 8,
  kShutdown = 9,
  kOk = 100,
  kError = 101,
  kBusy = 102,
};

// True for the message types a client may send.
bool IsRequestType(uint8_t type);
// True for the message types a server may send.
bool IsResponseType(uint8_t type);

struct Message {
  MsgType type = MsgType::kPing;
  uint64_t a = 0;
  uint64_t b = 0;
  std::vector<std::string> payload;
};

// Body codec (the framing layer adds the length/CRC header). The
// contiguous form: tests, the fuzzer and the codec benchmark use it;
// the wire uses SendMessage.
std::string EncodeMessage(const Message& msg);
// `expect_request`: decode refuses response types (server side) or
// request types (client side) — a frame that parses but carries the
// wrong direction is a protocol error, not a crash.
Result<Message> DecodeMessage(std::string_view body, bool expect_request);

// The body of `msg` as byte ranges whose concatenation is
// EncodeMessage(msg): `*scratch` receives the type, a, b, the count and
// the length prefixes, and every payload string is aliased, not
// copied. The ranges live as long as `msg` and `*scratch` are left
// unchanged.
std::vector<std::string_view> MessageParts(const Message& msg,
                                           std::string* scratch);

// Sends `msg` as one frame from its parts (UnixSocket::SendFrame), so
// no payload byte is copied on the way out. The bytes on the wire equal
// framing::EncodeFrame(EncodeMessage(msg)).
Status SendMessage(UnixSocket* sock, const Message& msg);

// String-list payload codec, exposed for tests.
void EncodeStringList(const std::vector<std::string>& strings,
                      std::string* out);
Status DecodeStringList(std::string_view data, size_t offset,
                        std::vector<std::string>* out);

// Builds the kError response for a failed request.
Message ErrorResponse(const Status& status);
// Reconstitutes the Status carried by a kError response.
Status StatusFromError(const Message& msg);

// Tenant names become store directory names; restricting them to
// [A-Za-z0-9_-]+ (max 64 bytes) keeps "../../etc" out of the data dir.
bool ValidTenantName(std::string_view name);

// Default cap on a message body; requests and responses above it are
// rejected before allocation. Generous for documents, far below the
// u32 framing limit.
inline constexpr uint64_t kDefaultMaxMessageBytes = 64ull << 20;

// Fixed part of the body: type + a + b.
inline constexpr size_t kMessageFixedSize = 17;

}  // namespace xupdate::server

#endif  // XUPDATE_SERVER_PROTOCOL_H_
