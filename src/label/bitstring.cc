#include "label/bitstring.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace xupdate::label {

BitString& BitString::operator=(const BitString& other) {
  if (this != &other) {
    Release();
    CopyFrom(other);
  }
  return *this;
}

BitString& BitString::operator=(BitString&& other) noexcept {
  if (this != &other) {
    Release();
    w_[0] = other.w_[0];
    w_[1] = other.w_[1];
    other.w_[0] = other.w_[1] = 0;
  }
  return *this;
}

void BitString::CopyFrom(const BitString& other) {
  if (!other.spilled()) {
    w_[0] = other.w_[0];
    w_[1] = other.w_[1];
    return;
  }
  const size_t n = other.size();
  uint64_t* block = new uint64_t[WordsFor(n)];
  std::memcpy(block, other.heap(), WordsFor(n) * sizeof(uint64_t));
  SetHeap(block, n);
}

uint64_t* BitString::ResetZeros(size_t nbits) {
  Release();
  if (nbits <= kInlineBits) {
    w_[1] = nbits;
    return w_;
  }
  uint64_t* block = new uint64_t[WordsFor(nbits)]();
  SetHeap(block, nbits);
  return block;
}

BitString BitString::FromBits(std::string_view zeros_and_ones) {
  BitString out;
  [[maybe_unused]] const bool ok = out.Assign(zeros_and_ones);
  assert(ok);
  return out;
}

BitString BitString::FromWord(uint64_t msb_first, size_t nbits) {
  assert(nbits <= 64);
  BitString out;
  out.w_[0] = nbits == 0 ? 0 : msb_first & (~uint64_t{0} << (64 - nbits));
  out.w_[1] = nbits;
  return out;
}

bool BitString::Assign(std::string_view zeros_and_ones) {
  const size_t n = zeros_and_ones.size();
  uint64_t* words = ResetZeros(n);
  const char* p = zeros_and_ones.data();
  // Any character other than '0'/'1' leaves a bit above bit 0 in its
  // digit value; OR them all and test once.
  unsigned bad = 0;
  for (size_t w = 0; w * 64 < n; ++w) {
    const size_t chunk = std::min<size_t>(64, n - w * 64);
    uint64_t acc = 0;
    for (size_t j = 0; j < chunk; ++j) {
      const unsigned digit = static_cast<unsigned char>(p[j]) - '0';
      bad |= digit;
      acc = (acc << 1) | (digit & 1);
    }
    p += chunk;
    words[w] |= acc << (64 - chunk);
  }
  return (bad >> 1) == 0;
}

void BitString::AppendBit(bool b) {
  const size_t n = size();
  const uint64_t mask = uint64_t{b} << (63 - (n & 63));
  if (n < kInlineBits) {
    w_[n >> 6] |= mask;
    ++w_[1];  // the length byte; n + 1 <= kInlineBits cannot carry
    return;
  }
  if (n == kInlineBits) {
    // Spill: the inline words move to a block of two.
    uint64_t* block = new uint64_t[2]{w_[0], (w_[1] & ~uint64_t{0xff}) | mask};
    SetHeap(block, n + 1);
    return;
  }
  uint64_t* block = heap();
  if ((n & 63) == 0) {
    // The block holds at least WordsFor(n) words; one more is needed.
    uint64_t* grown = new uint64_t[WordsFor(n) + 1];
    std::memcpy(grown, block, WordsFor(n) * sizeof(uint64_t));
    grown[WordsFor(n)] = 0;
    delete[] block;
    block = grown;
  }
  block[n >> 6] |= mask;
  SetHeap(block, n + 1);
}

void BitString::PopBit() {
  const size_t n = size();
  assert(n > 0);
  const uint64_t mask = ~(uint64_t{1} << (63 - ((n - 1) & 63)));
  if (!spilled()) {
    w_[(n - 1) >> 6] &= mask;
    --w_[1];  // the length byte; n >= 1 cannot borrow
    return;
  }
  uint64_t* block = heap();
  block[(n - 1) >> 6] &= mask;
  if (n - 1 > kInlineBits) {
    SetHeap(block, n - 1);
    return;
  }
  // Back inline: bits 120..127 of word 1 are zero by now.
  w_[0] = block[0];
  w_[1] = block[1] | kInlineBits;
  delete[] block;
}

int BitString::Compare(const BitString& other) const {
  const size_t na = size();
  const size_t nb = other.size();
  const size_t min_bits = std::min(na, nb);
  const uint64_t* a = words();
  const uint64_t* b = other.words();
  // Whole words inside the common bit range: a difference there is
  // decisive. A whole word 1 needs 128 common bits, so both strings are
  // spilled and no inline length byte takes part.
  const size_t full = min_bits / 64;
  for (size_t i = 0; i < full; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  // Masked tail: the remaining 0..63 common bits. Bits past min_bits
  // (or an inline length byte) must not influence the result.
  const size_t tail_bits = min_bits & 63;
  if (tail_bits > 0) {
    const uint64_t mask = ~uint64_t{0} << (64 - tail_bits);
    const uint64_t wa = a[full] & mask;
    const uint64_t wb = b[full] & mask;
    if (wa != wb) return wa < wb ? -1 : 1;
  }
  // One is a prefix of the other (or equal): shorter sorts first.
  if (na == nb) return 0;
  return na < nb ? -1 : 1;
}

void BitString::AppendTo(std::string* out) const {
  const size_t n = size();
  const uint64_t* w = words();
  const size_t at = out->size();
  out->resize(at + n);
  char* p = out->data() + at;
  for (size_t i = 0; i < n; ++i) {
    p[i] = static_cast<char>('0' + ((w[i >> 6] >> (63 - (i & 63))) & 1));
  }
}

std::string BitString::ToString() const {
  std::string out;
  AppendTo(&out);
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
  // Binary of i in `width` bits, trailing zeros stripped: i's bits,
  // left-aligned in one word.
  return BitString::FromWord(static_cast<uint64_t>(i) << (64 - width),
                             width - static_cast<size_t>(__builtin_ctzll(i)));
}

}  // namespace cdbs

}  // namespace xupdate::label
