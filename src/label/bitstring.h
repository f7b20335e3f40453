#ifndef XUPDATE_LABEL_BITSTRING_H_
#define XUPDATE_LABEL_BITSTRING_H_

#include <cstdint>
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
class BitString {
 public:
  BitString() = default;

  static BitString FromBits(std::string_view zeros_and_ones);

  size_t size() const { return nbits_; }
  bool empty() const { return nbits_ == 0; }
  bool bit(size_t i) const {
    return (bytes_[i >> 3] >> (7 - (i & 7))) & 1;
  }

  void AppendBit(bool b);
  // Drops the last bit; requires non-empty.
  void PopBit();

  // Lexicographic three-way comparison. Word-wise: whole 64-bit
  // big-endian words of the common prefix are compared at once, with a
  // masked tail for the last partial word; a proper prefix sorts before
  // its extensions.
  int Compare(const BitString& other) const;

  // The first 64 bits, left-aligned (bit 0 in the most significant
  // position) and zero-padded. Order-preserving prefix key: for any two
  // strings a, b
  //   a.PrefixKey64() < b.PrefixKey64()  =>  a < b
  // so unequal keys decide the comparison outright; equal keys need the
  // full Compare (the strings may still differ past bit 63, or one may
  // be a zero-extension-coinciding prefix of the other). Cheap enough
  // to recompute — persistent caching belongs to flat index layers
  // (pul::PulView) so labels stay trivially copyable and shareable
  // across shard threads.
  uint64_t PrefixKey64() const;

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

  // "0"/"1" textual form (round-trips through FromBits).
  std::string ToString() const;

 private:
  std::vector<uint8_t> bytes_;
  size_t nbits_ = 0;
};

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
