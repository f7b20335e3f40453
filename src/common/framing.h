#ifndef XUPDATE_COMMON_FRAMING_H_
#define XUPDATE_COMMON_FRAMING_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace xupdate::framing {

// The one length-prefixed, CRC-protected frame format of the tree:
//
//   frame := u32 body_len | u32 masked_crc32c(body) | body
//
// All integers little-endian, the CRC masked (common/crc32c.h) so a
// frame of zero bytes still carries a non-trivial checksum. The WAL
// journal, snapshot checkpoint files and the server wire protocol all
// speak exactly this frame — one encode/decode code path, one torn- or
// corrupt-frame detector.

inline constexpr size_t kHeaderSize = 8;  // len + masked crc

// Little-endian fixed-width integer helpers, shared by every binary
// encoder in the tree (frames keep the journal and the wire portable
// across hosts; nothing memcpy's structs).
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
uint32_t GetU32(std::string_view data, size_t offset);
uint64_t GetU64(std::string_view data, size_t offset);

// Frames `body` (header + copy of the body bytes).
std::string EncodeFrame(std::string_view body);

// EncodeFrame in place: fills in the header of the frame whose
// kHeaderSize-byte placeholder starts at `(*out)[frame_start]` and
// whose body runs from there to the end of `*out`. The body must fit
// the u32 length prefix.
void SealFrame(std::string* out, size_t frame_start);

// The two checks every frame reader makes, for readers that hold the
// header apart from the body (a socket reads the header first and only
// then sizes the body). kParseError when `body_len` exceeds
// `max_body_bytes` — callers make this check before allocating — resp.
// when `body` does not match `masked_crc`.
Status CheckBodyLength(uint32_t body_len, uint64_t max_body_bytes);
Status CheckBodyCrc(uint32_t masked_crc, std::string_view body);

// Decodes the frame starting at `data[*offset]`. On success `*body`
// aliases the body bytes inside `data` and `*offset` advances past the
// frame. kParseError for a torn header, torn body, a body larger than
// `max_body_bytes`, or a CRC mismatch — the caller cannot trust
// anything at or beyond `*offset` afterwards (framing is lost).
Status DecodeFrame(std::string_view data, size_t* offset,
                   std::string_view* body,
                   uint64_t max_body_bytes = UINT32_MAX);

}  // namespace xupdate::framing

#endif  // XUPDATE_COMMON_FRAMING_H_
