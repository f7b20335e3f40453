#ifndef XUPDATE_LABEL_BITSTRING_H_
#define XUPDATE_LABEL_BITSTRING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace xupdate::label {

// Variable-length binary string with standard lexicographic order
// (a proper prefix sorts before its extensions). This is the code space
// of the CDBS dynamic labeling scheme (Li, Ling, Hu — "Efficient
// Processing of Updates in Dynamic XML Data", ICDE 2006), which the
// paper adopts (§4.1): CDBS codes are binary strings ending in '1', and
// between any two adjacent codes a new code can always be created
// without touching existing ones — the property that makes the labeling
// update-tolerant.
//
// One 16-byte value: two 64-bit words holding the bits most significant
// first. Strings of up to kInlineBits bits live in the value itself —
// word 0 holds bits 0..63, the high 56 bits of word 1 hold bits
// 64..119 and its low byte the length. Longer strings spill to one heap
// block of ceil(size/64) words: word 0 then holds the block's address
// and word 1 the length above a kSpilled tag byte. Initial codes are
// ~log2(2n) bits wide and each insert-between adds at most two, so
// labels practically never spill; copying, comparing and keying them
// touches no heap. Bits past size() are zero in either form.
class BitString {
 public:
  static constexpr size_t kInlineBits = 120;

  BitString() = default;
  BitString(const BitString& other) { CopyFrom(other); }
  BitString(BitString&& other) noexcept : w_{other.w_[0], other.w_[1]} {
    other.w_[0] = other.w_[1] = 0;
  }
  BitString& operator=(const BitString& other);
  BitString& operator=(BitString&& other) noexcept;
  ~BitString() { Release(); }

  // Builds from a "0"/"1" string; any other character is a precondition
  // violation (see Assign).
  static BitString FromBits(std::string_view zeros_and_ones);
  // The first `nbits` (<= 64) bits of `msb_first`, most significant
  // first; lower bits of the word are ignored.
  static BitString FromWord(uint64_t msb_first, size_t nbits);

  // Replaces the contents with the bits of a "0"/"1" string, packing
  // them word by word. False (contents unspecified) on any other
  // character.
  bool Assign(std::string_view zeros_and_ones);

  size_t size() const {
    const uint64_t tag = w_[1] & 0xff;
    return tag == kSpilled ? static_cast<size_t>(w_[1] >> 8)
                           : static_cast<size_t>(tag);
  }
  bool empty() const { return size() == 0; }
  bool bit(size_t i) const {
    return (words()[i >> 6] >> (63 - (i & 63))) & 1;
  }

  void AppendBit(bool b);
  // Drops the last bit; requires non-empty.
  void PopBit();

  // Lexicographic three-way comparison, word-wise: whole 64-bit words
  // of the common prefix are compared at once, with a masked tail for
  // the last partial word; a proper prefix sorts before its extensions.
  int Compare(const BitString& other) const;

  // The first 64 bits, left-aligned (bit 0 in the most significant
  // position) and zero-padded — one load of the first word.
  // Order-preserving prefix key: for any two strings a, b
  //   a.PrefixKey64() < b.PrefixKey64()  =>  a < b
  // so unequal keys decide the comparison outright; equal keys need the
  // full Compare (the strings may still differ past bit 63, or one may
  // be a zero-extension-coinciding prefix of the other). Cheap enough
  // to recompute; the flat op index (pul::OpSlot) caches it next to the
  // op anyway.
  uint64_t PrefixKey64() const { return words()[0]; }

  // Three-way comparison given precomputed prefix keys of both strings;
  // falls back to the full Compare only on key equality.
  static int CompareKeyed(uint64_t key_a, const BitString& a,
                          uint64_t key_b, const BitString& b) {
    if (key_a != key_b) return key_a < key_b ? -1 : 1;
    return a.Compare(b);
  }
  bool operator==(const BitString& other) const {
    return Compare(other) == 0;
  }
  bool operator<(const BitString& other) const { return Compare(other) < 0; }
  bool operator<=(const BitString& other) const {
    return Compare(other) <= 0;
  }

  // Appends the "0"/"1" textual form (round-trips through Assign).
  void AppendTo(std::string* out) const;
  std::string ToString() const;

 private:
  // Tag byte of a spilled string (any value above kInlineBits works).
  static constexpr uint64_t kSpilled = 0xff;

  static size_t WordsFor(size_t nbits) { return (nbits + 63) / 64; }

  bool spilled() const { return (w_[1] & 0xff) == kSpilled; }
  uint64_t* heap() const {
    uint64_t* p;
    static_assert(sizeof(p) <= sizeof(uint64_t));
    std::memcpy(&p, &w_[0], sizeof(p));
    return p;
  }
  void SetHeap(uint64_t* p, size_t nbits) {
    w_[0] = 0;
    std::memcpy(&w_[0], &p, sizeof(p));
    w_[1] = (static_cast<uint64_t>(nbits) << 8) | kSpilled;
  }
  const uint64_t* words() const { return spilled() ? heap() : w_; }

  // Frees a spilled block and leaves the empty string.
  void Release() {
    if (spilled()) delete[] heap();
    w_[0] = w_[1] = 0;
  }
  void CopyFrom(const BitString& other);
  // Makes *this an all-zero string of `nbits` bits (released first) and
  // returns its words for the caller to fill.
  uint64_t* ResetZeros(size_t nbits);

  uint64_t w_[2] = {0, 0};
};

static_assert(sizeof(BitString) == 16, "BitString is one 16-byte value");

// CDBS code operations. A *code* is a non-empty BitString whose last bit
// is 1. The empty BitString stands for the open boundary (-inf as a left
// neighbor, +inf as a right neighbor).
namespace cdbs {

// True if `s` is a syntactically valid code.
bool IsCode(const BitString& s);

// Returns a code strictly between `left` and `right` (either or both may
// be empty = open boundary). Requires left < right when both are codes.
Result<BitString> Between(const BitString& left, const BitString& right);

// Generates `n` evenly distributed codes in increasing order (the
// "binary of i in ceil(log2(n+1)) bits, trailing zeros stripped" initial
// assignment of the CDBS paper). Used for initial document labeling.
std::vector<BitString> InitialCodes(size_t n);

// The bit width ceil(log2(n+1)) of an `n`-code initial assignment.
size_t InitialCodeWidth(size_t n);

// Code `i` (1-based) of InitialCodes(n), given width =
// InitialCodeWidth(n), computed on its own: a caller that needs a few
// codes of a large assignment never materializes the other n.
BitString InitialCode(size_t i, size_t width);

}  // namespace cdbs

}  // namespace xupdate::label

#endif  // XUPDATE_LABEL_BITSTRING_H_
