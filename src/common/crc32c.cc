#include "common/crc32c.h"

#include <array>
#include <cstddef>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace xupdate {

namespace {

// Reflected CRC-32C polynomial.
constexpr uint32_t kPoly = 0x82f63b78u;

struct Tables {
  // table[0] is the plain byte-at-a-time table; table[1..3] shift it so
  // four bytes can be folded with independent lookups (slice-by-4).
  std::array<std::array<uint32_t, 256>, 4> t{};

  constexpr Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xff];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xff];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xff];
    }
  }
};

constexpr Tables kTables;

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes exactly this CRC (Castagnoli,
// reflected), eight bytes per step.
__attribute__((target("sse4.2"))) uint32_t ExtendCrc32cSse42(
    uint32_t crc, std::string_view data) {
  uint64_t c = ~crc;
  const char* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
    p += 8;
    n -= 8;
  }
  uint32_t tail = static_cast<uint32_t>(c);
  while (n > 0) {
    tail = _mm_crc32_u8(tail, static_cast<unsigned char>(*p));
    ++p;
    --n;
  }
  return ~tail;
}
#endif

}  // namespace

uint32_t ExtendCrc32c(uint32_t crc, std::string_view data) {
#if defined(__x86_64__)
  static const bool kHasSse42 = __builtin_cpu_supports("sse4.2");
  if (kHasSse42) return ExtendCrc32cSse42(crc, data);
#endif
  return ExtendCrc32cPortable(crc, data);
}

uint32_t ExtendCrc32cPortable(uint32_t crc, std::string_view data) {
  const auto& t = kTables.t;
  uint32_t c = ~crc;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  // Byte-align is unnecessary for correctness (loads below are
  // byte-wise), so slice in 4-byte gulps straight away.
  while (n >= 4) {
    c ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
    c = t[3][c & 0xff] ^ t[2][(c >> 8) & 0xff] ^ t[1][(c >> 16) & 0xff] ^
        t[0][c >> 24];
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    c = (c >> 8) ^ t[0][(c ^ *p) & 0xff];
    ++p;
    --n;
  }
  return ~c;
}

uint32_t Crc32c(std::string_view data) { return ExtendCrc32c(0, data); }

}  // namespace xupdate
