#include "common/framing.h"

#include "common/crc32c.h"

namespace xupdate::framing {

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint32_t GetU32(std::string_view data, size_t offset) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(data[offset + i]);
  }
  return v;
}

uint64_t GetU64(std::string_view data, size_t offset) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(data[offset + i]);
  }
  return v;
}

std::string EncodeFrame(std::string_view body) {
  std::string out;
  out.reserve(kHeaderSize + body.size());
  PutU32(&out, static_cast<uint32_t>(body.size()));
  PutU32(&out, MaskCrc32c(Crc32c(body)));
  out += body;
  return out;
}

void SealFrame(std::string* out, size_t frame_start) {
  std::string_view body =
      std::string_view(*out).substr(frame_start + kHeaderSize);
  std::string header;
  PutU32(&header, static_cast<uint32_t>(body.size()));
  PutU32(&header, MaskCrc32c(Crc32c(body)));
  out->replace(frame_start, kHeaderSize, header);
}

Status CheckBodyLength(uint32_t body_len, uint64_t max_body_bytes) {
  if (body_len > max_body_bytes) {
    return Status::ParseError("frame body of " + std::to_string(body_len) +
                              " bytes exceeds the " +
                              std::to_string(max_body_bytes) +
                              "-byte frame limit");
  }
  return Status::OK();
}

Status CheckBodyCrc(uint32_t masked_crc, std::string_view body) {
  if (MaskCrc32c(Crc32c(body)) != masked_crc) {
    return Status::ParseError("frame CRC mismatch");
  }
  return Status::OK();
}

Status DecodeFrame(std::string_view data, size_t* offset,
                   std::string_view* body, uint64_t max_body_bytes) {
  size_t pos = *offset;
  if (data.size() - pos < kHeaderSize) {
    return Status::ParseError("torn frame header");
  }
  uint32_t body_len = GetU32(data, pos);
  uint32_t masked_crc = GetU32(data, pos + 4);
  XUPDATE_RETURN_IF_ERROR(CheckBodyLength(body_len, max_body_bytes));
  if (body_len > data.size() - pos - kHeaderSize) {
    return Status::ParseError("torn or oversized frame body");
  }
  std::string_view candidate = data.substr(pos + kHeaderSize, body_len);
  XUPDATE_RETURN_IF_ERROR(CheckBodyCrc(masked_crc, candidate));
  *body = candidate;
  *offset = pos + kHeaderSize + body_len;
  return Status::OK();
}

}  // namespace xupdate::framing
