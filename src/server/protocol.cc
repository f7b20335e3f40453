#include "server/protocol.h"

#include "common/framing.h"

namespace xupdate::server {

namespace {

using framing::GetU32;
using framing::GetU64;
using framing::PutU32;
using framing::PutU64;

}  // namespace

bool IsRequestType(uint8_t type) {
  return type >= static_cast<uint8_t>(MsgType::kOpen) &&
         type <= static_cast<uint8_t>(MsgType::kShutdown);
}

bool IsResponseType(uint8_t type) {
  return type == static_cast<uint8_t>(MsgType::kOk) ||
         type == static_cast<uint8_t>(MsgType::kError) ||
         type == static_cast<uint8_t>(MsgType::kBusy);
}

void EncodeStringList(const std::vector<std::string>& strings,
                      std::string* out) {
  PutU32(out, static_cast<uint32_t>(strings.size()));
  for (const std::string& s : strings) {
    PutU32(out, static_cast<uint32_t>(s.size()));
    *out += s;
  }
}

Status DecodeStringList(std::string_view data, size_t offset,
                        std::vector<std::string>* out) {
  out->clear();
  if (data.size() - offset < 4) {
    return Status::ParseError("truncated string-list count");
  }
  uint32_t count = GetU32(data, offset);
  offset += 4;
  // Each entry costs at least its 4-byte length prefix; a count the
  // remaining bytes cannot possibly hold is rejected before the loop
  // (a hostile count of 2^32-1 must not drive 4 billion iterations).
  if (count > (data.size() - offset) / 4) {
    return Status::ParseError("string-list count of " +
                              std::to_string(count) +
                              " exceeds the message body");
  }
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (data.size() - offset < 4) {
      return Status::ParseError("truncated string-list entry length");
    }
    uint32_t len = GetU32(data, offset);
    offset += 4;
    if (len > data.size() - offset) {
      return Status::ParseError("truncated string-list entry");
    }
    out->emplace_back(data.substr(offset, len));
    offset += len;
  }
  if (offset != data.size()) {
    return Status::ParseError("trailing bytes after string list");
  }
  return Status::OK();
}

std::string EncodeMessage(const Message& msg) {
  size_t size = kMessageFixedSize + 4;
  for (const std::string& s : msg.payload) size += 4 + s.size();
  std::string body;
  body.reserve(size);
  body.push_back(static_cast<char>(msg.type));
  PutU64(&body, msg.a);
  PutU64(&body, msg.b);
  EncodeStringList(msg.payload, &body);
  return body;
}

std::vector<std::string_view> MessageParts(const Message& msg,
                                           std::string* scratch) {
  scratch->clear();
  scratch->reserve(kMessageFixedSize + 4 + 4 * msg.payload.size());
  scratch->push_back(static_cast<char>(msg.type));
  PutU64(scratch, msg.a);
  PutU64(scratch, msg.b);
  PutU32(scratch, static_cast<uint32_t>(msg.payload.size()));
  for (const std::string& s : msg.payload) {
    PutU32(scratch, static_cast<uint32_t>(s.size()));
  }
  // Scratch runs alternate with the payload strings; the run before
  // each string ends with that string's length prefix, so an empty
  // string merges two runs.
  std::vector<std::string_view> parts;
  parts.reserve(1 + 2 * msg.payload.size());
  const std::string_view fixed(*scratch);
  size_t run_begin = 0;
  size_t run_end = kMessageFixedSize + 4;
  for (const std::string& s : msg.payload) {
    run_end += 4;
    if (s.empty()) continue;
    parts.push_back(fixed.substr(run_begin, run_end - run_begin));
    parts.emplace_back(s);
    run_begin = run_end;
  }
  if (run_end > run_begin) {
    parts.push_back(fixed.substr(run_begin, run_end - run_begin));
  }
  return parts;
}

Status SendMessage(UnixSocket* sock, const Message& msg) {
  std::string scratch;
  return sock->SendFrame(MessageParts(msg, &scratch));
}

Result<Message> DecodeMessage(std::string_view body, bool expect_request) {
  if (body.size() < kMessageFixedSize) {
    return Status::ParseError("message body of " +
                              std::to_string(body.size()) +
                              " bytes is shorter than the fixed header");
  }
  uint8_t type = static_cast<uint8_t>(body[0]);
  if (expect_request ? !IsRequestType(type) : !IsResponseType(type)) {
    return Status::ParseError(
        std::string("unexpected message type ") + std::to_string(type) +
        (expect_request ? " (wanted a request)" : " (wanted a response)"));
  }
  Message msg;
  msg.type = static_cast<MsgType>(type);
  msg.a = GetU64(body, 1);
  msg.b = GetU64(body, 9);
  XUPDATE_RETURN_IF_ERROR(
      DecodeStringList(body, kMessageFixedSize, &msg.payload));
  return msg;
}

Message ErrorResponse(const Status& status) {
  Message msg;
  msg.type = MsgType::kError;
  msg.a = static_cast<uint64_t>(status.code());
  msg.payload = {status.message()};
  return msg;
}

Status StatusFromError(const Message& msg) {
  std::string text = msg.payload.empty() ? "" : msg.payload[0];
  // An out-of-range or kOk code in a kError frame means the peer is
  // broken; surface that rather than minting a fake OK.
  if (msg.a == 0 || msg.a > static_cast<uint64_t>(StatusCode::kInternal)) {
    return Status::Internal("malformed error response (code " +
                            std::to_string(msg.a) + "): " + text);
  }
  return Status(static_cast<StatusCode>(msg.a), std::move(text));
}

bool ValidTenantName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace xupdate::server
