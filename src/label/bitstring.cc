#include "label/bitstring.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace xupdate::label {

namespace {

// Loads `n` (1..8) bytes starting at `p` into a left-aligned big-endian
// word: p[0] lands in the most significant byte, missing low bytes are
// zero. With the class invariant that bits past nbits_ are zero, this is
// exactly "the next 8*n bits of the string, zero-padded to 64".
inline uint64_t LoadPrefixWord(const uint8_t* p, size_t n) {
  uint64_t w = 0;
  std::memcpy(&w, p, n);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  return w;
#else
  return __builtin_bswap64(w);
#endif
}

}  // namespace

BitString BitString::FromBits(std::string_view zeros_and_ones) {
  BitString out;
  out.nbits_ = zeros_and_ones.size();
  out.bytes_.assign((out.nbits_ + 7) / 8, 0);
  for (size_t i = 0; i < out.nbits_; ++i) {
    assert(zeros_and_ones[i] == '0' || zeros_and_ones[i] == '1');
    if (zeros_and_ones[i] == '1') {
      out.bytes_[i >> 3] |= static_cast<uint8_t>(0x80u >> (i & 7));
    }
  }
  return out;
}

void BitString::AppendBit(bool b) {
  if ((nbits_ & 7) == 0) bytes_.push_back(0);
  if (b) bytes_[nbits_ >> 3] |= static_cast<uint8_t>(1u << (7 - (nbits_ & 7)));
  ++nbits_;
}

void BitString::PopBit() {
  assert(nbits_ > 0);
  --nbits_;
  bytes_[nbits_ >> 3] &= static_cast<uint8_t>(~(1u << (7 - (nbits_ & 7))));
  if ((nbits_ & 7) == 0) bytes_.pop_back();
}

int BitString::Compare(const BitString& other) const {
  const size_t min_bits = std::min(nbits_, other.nbits_);
  const uint8_t* a = bytes_.data();
  const uint8_t* b = other.bytes_.data();
  // Whole 64-bit words fully inside the common bit range: any byte
  // difference there is within both strings, so a byte-swapped compare
  // is decisive.
  const size_t full_bytes = min_bits / 8;
  size_t i = 0;
  for (; i + 8 <= full_bytes; i += 8) {
    uint64_t wa, wb;
    std::memcpy(&wa, a + i, 8);
    std::memcpy(&wb, b + i, 8);
    if (wa != wb) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
#else
      wa = __builtin_bswap64(wa);
      wb = __builtin_bswap64(wb);
#endif
      return wa < wb ? -1 : 1;
    }
  }
  // Masked tail: the remaining 0..63 common bits, left-aligned. Bits
  // past min_bits must not influence the result (they belong to only
  // one string — or to neither, by the trailing-zero invariant).
  const size_t tail_bits = min_bits - i * 8;
  if (tail_bits > 0) {
    const size_t tail_bytes = (tail_bits + 7) / 8;
    const uint64_t mask = ~uint64_t{0} << (64 - tail_bits);
    const uint64_t wa = LoadPrefixWord(a + i, tail_bytes) & mask;
    const uint64_t wb = LoadPrefixWord(b + i, tail_bytes) & mask;
    if (wa != wb) return wa < wb ? -1 : 1;
  }
  // One is a prefix of the other (or equal): shorter sorts first.
  if (nbits_ == other.nbits_) return 0;
  return nbits_ < other.nbits_ ? -1 : 1;
}

uint64_t BitString::PrefixKey64() const {
  const size_t n = std::min<size_t>(bytes_.size(), 8);
  if (n == 0) return 0;
  // Trailing bits past nbits_ are zero by invariant, so no masking is
  // needed: this is the first min(nbits_, 64) bits, zero-padded.
  return LoadPrefixWord(bytes_.data(), n);
}

std::string BitString::ToString() const {
  std::string out;
  out.reserve(nbits_);
  for (size_t i = 0; i < nbits_; ++i) out += bit(i) ? '1' : '0';
  return out;
}

namespace cdbs {

bool IsCode(const BitString& s) {
  return !s.empty() && s.bit(s.size() - 1);
}

Result<BitString> Between(const BitString& left, const BitString& right) {
  if (!left.empty() && !IsCode(left)) {
    return Status::InvalidArgument("left bound is not a CDBS code");
  }
  if (!right.empty() && !IsCode(right)) {
    return Status::InvalidArgument("right bound is not a CDBS code");
  }
  if (left.empty() && right.empty()) {
    return BitString::FromBits("1");
  }
  if (right.empty()) {
    // Insert after the last code: extend left with a '1'.
    BitString out = left;
    out.AppendBit(true);
    return out;
  }
  if (left.empty()) {
    // Insert before the first code: (right minus last bit) + "01".
    BitString out = right;
    out.PopBit();
    out.AppendBit(false);
    out.AppendBit(true);
    return out;
  }
  if (!(left < right)) {
    return Status::InvalidArgument("CDBS bounds not ordered: " +
                                   left.ToString() + " !< " +
                                   right.ToString());
  }
  if (left.size() >= right.size()) {
    BitString out = left;
    out.AppendBit(true);
    return out;
  }
  BitString out = right;
  out.PopBit();
  out.AppendBit(false);
  out.AppendBit(true);
  return out;
}

std::vector<BitString> InitialCodes(size_t n) {
  std::vector<BitString> codes;
  codes.reserve(n);
  const size_t width = InitialCodeWidth(n);
  for (size_t i = 1; i <= n; ++i) codes.push_back(InitialCode(i, width));
  return codes;
}

size_t InitialCodeWidth(size_t n) {
  size_t width = 1;
  while ((1ull << width) < n + 1) ++width;
  return width;
}

BitString InitialCode(size_t i, size_t width) {
  assert(i >= 1 && i < (1ull << width));
  // Binary of i in `width` bits, trailing zeros stripped.
  const size_t bits = width - static_cast<size_t>(__builtin_ctzll(i));
  BitString code;
  for (size_t b = 0; b < bits; ++b) {
    code.AppendBit((i >> (width - 1 - b)) & 1);
  }
  return code;
}

}  // namespace cdbs

}  // namespace xupdate::label
