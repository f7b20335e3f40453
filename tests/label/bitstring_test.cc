#include "label/bitstring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"

namespace xupdate::label {
namespace {

TEST(BitStringTest, AppendAndRead) {
  BitString s;
  EXPECT_TRUE(s.empty());
  s.AppendBit(true);
  s.AppendBit(false);
  s.AppendBit(true);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.bit(0));
  EXPECT_FALSE(s.bit(1));
  EXPECT_TRUE(s.bit(2));
  EXPECT_EQ(s.ToString(), "101");
}

TEST(BitStringTest, PopBit) {
  BitString s = BitString::FromBits("1011");
  s.PopBit();
  EXPECT_EQ(s.ToString(), "101");
  s.PopBit();
  s.PopBit();
  s.PopBit();
  EXPECT_TRUE(s.empty());
}

TEST(BitStringTest, FromBitsRoundTrip) {
  for (const char* bits : {"", "0", "1", "0101101", "111111111",
                           "000000001", "10101010101010101"}) {
    EXPECT_EQ(BitString::FromBits(bits).ToString(), bits);
  }
}

// FromBits sizes its byte storage up front (one reserve instead of
// doubling growth); every length around the byte and word boundaries
// must still round-trip bit-exactly.
TEST(BitStringTest, FromBitsRoundTripAllLengthsToTwoWords) {
  std::string bits;
  for (size_t len = 0; len <= 130; ++len) {
    bits.clear();
    for (size_t i = 0; i < len; ++i) {
      bits += ((i * 7 + len) % 3 == 0) ? '1' : '0';
    }
    BitString s = BitString::FromBits(bits);
    EXPECT_EQ(s.size(), len);
    EXPECT_EQ(s.ToString(), bits) << "length " << len;
  }
}

TEST(BitStringTest, LexicographicCompare) {
  // Plain lexicographic order: a proper prefix sorts before extensions.
  auto bs = [](const char* s) { return BitString::FromBits(s); };
  EXPECT_LT(bs("0").Compare(bs("1")), 0);
  EXPECT_LT(bs("001").Compare(bs("01")), 0);
  EXPECT_LT(bs("01").Compare(bs("011")), 0);
  EXPECT_LT(bs("011").Compare(bs("1")), 0);
  EXPECT_LT(bs("1").Compare(bs("101")), 0);
  EXPECT_LT(bs("101").Compare(bs("11")), 0);
  EXPECT_LT(bs("11").Compare(bs("111")), 0);
  EXPECT_EQ(bs("101").Compare(bs("101")), 0);
  EXPECT_GT(bs("1").Compare(bs("011")), 0);
  EXPECT_LT(bs("").Compare(bs("0")), 0);
}

TEST(BitStringTest, CompareMatchesStringCompare) {
  // Cross-check against std::string comparison on the textual form.
  Rng rng(5);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string a, b;
    for (uint64_t i = rng.Below(12); i > 0; --i) a += rng.Chance(0.5) ? '1' : '0';
    for (uint64_t i = rng.Below(12); i > 0; --i) b += rng.Chance(0.5) ? '1' : '0';
    int expected = a.compare(b);
    expected = expected < 0 ? -1 : (expected > 0 ? 1 : 0);
    EXPECT_EQ(BitString::FromBits(a).Compare(BitString::FromBits(b)),
              expected)
        << a << " vs " << b;
  }
}

TEST(CdbsTest, IsCode) {
  EXPECT_TRUE(cdbs::IsCode(BitString::FromBits("1")));
  EXPECT_TRUE(cdbs::IsCode(BitString::FromBits("01")));
  EXPECT_FALSE(cdbs::IsCode(BitString::FromBits("10")));
  EXPECT_FALSE(cdbs::IsCode(BitString()));
}

TEST(CdbsTest, InitialCodesAreOrderedValidCodes) {
  for (size_t n : {1u, 2u, 3u, 7u, 8u, 100u, 1000u}) {
    std::vector<BitString> codes = cdbs::InitialCodes(n);
    ASSERT_EQ(codes.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(cdbs::IsCode(codes[i])) << codes[i].ToString();
      if (i > 0) {
        EXPECT_LT(codes[i - 1].Compare(codes[i]), 0)
            << codes[i - 1].ToString() << " !< " << codes[i].ToString();
      }
    }
  }
}

TEST(CdbsTest, InitialCodesAreCompact) {
  // n codes fit in ceil(log2(n+1)) bits.
  std::vector<BitString> codes = cdbs::InitialCodes(1000);
  size_t max_len = 0;
  for (const auto& c : codes) max_len = std::max(max_len, c.size());
  EXPECT_EQ(max_len, 10u);
}

TEST(CdbsTest, BetweenOpenBoundaries) {
  auto first = cdbs::Between(BitString(), BitString());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->ToString(), "1");
}

TEST(CdbsTest, BetweenBeforeFirstAndAfterLast) {
  BitString one = BitString::FromBits("1");
  auto before = cdbs::Between(BitString(), one);
  ASSERT_TRUE(before.ok());
  EXPECT_LT(before->Compare(one), 0);
  EXPECT_TRUE(cdbs::IsCode(*before));
  auto after = cdbs::Between(one, BitString());
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->Compare(one), 0);
  EXPECT_TRUE(cdbs::IsCode(*after));
}

TEST(CdbsTest, BetweenRejectsBadBounds) {
  EXPECT_FALSE(cdbs::Between(BitString::FromBits("1"),
                             BitString::FromBits("01"))
                   .ok());
  EXPECT_FALSE(cdbs::Between(BitString::FromBits("10"),
                             BitString::FromBits("11"))
                   .ok());
}

// The CDBS property: a code can always be created strictly between two
// neighbors without touching existing codes.
TEST(CdbsTest, RandomInsertionsPreserveTotalOrder) {
  Rng rng(31337);
  std::vector<BitString> codes = cdbs::InitialCodes(16);
  for (int step = 0; step < 3000; ++step) {
    size_t gap = static_cast<size_t>(rng.Below(codes.size() + 1));
    BitString left = gap == 0 ? BitString() : codes[gap - 1];
    BitString right = gap == codes.size() ? BitString() : codes[gap];
    auto fresh = cdbs::Between(left, right);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    ASSERT_TRUE(cdbs::IsCode(*fresh));
    if (!left.empty()) {
      ASSERT_LT(left.Compare(*fresh), 0);
    }
    if (!right.empty()) {
      ASSERT_LT(fresh->Compare(right), 0);
    }
    codes.insert(codes.begin() + static_cast<ptrdiff_t>(gap), *fresh);
  }
  for (size_t i = 1; i < codes.size(); ++i) {
    ASSERT_LT(codes[i - 1].Compare(codes[i]), 0);
  }
}

// Every bitstring of length 1..max_len whose last bit is 1, in
// lexicographic order.
std::vector<BitString> AllCodesUpTo(size_t max_len) {
  std::vector<BitString> codes;
  for (size_t len = 1; len <= max_len; ++len) {
    for (uint64_t v = 0; v < (uint64_t{1} << len); ++v) {
      if ((v & 1) == 0) continue;  // codes end in 1
      std::string bits(len, '0');
      for (size_t i = 0; i < len; ++i) {
        if ((v >> (len - 1 - i)) & 1) bits[i] = '1';
      }
      codes.push_back(BitString::FromBits(bits));
    }
  }
  std::sort(codes.begin(), codes.end());
  return codes;
}

// Exhaustive pairwise check over every code up to nine bits — the
// nine-bit ones straddle the byte boundary of the backing storage, the
// regime where a grow-on-boundary bug in AppendBit/PopBit would corrupt
// the freshly created label. Between must return a valid code strictly
// inside every ordered pair, never an endpoint and never a collision.
TEST(CdbsTest, ExhaustivePairwiseInsertBetweenAtByteBoundary) {
  std::vector<BitString> codes = AllCodesUpTo(9);
  ASSERT_EQ(codes.size(), 511u);
  for (size_t i = 0; i + 1 < codes.size(); ++i) {
    ASSERT_LT(codes[i].Compare(codes[i + 1]), 0) << "enumeration not sorted";
  }
  for (size_t i = 0; i < codes.size(); ++i) {
    for (size_t j = i + 1; j < codes.size(); ++j) {
      auto mid = cdbs::Between(codes[i], codes[j]);
      ASSERT_TRUE(mid.ok())
          << codes[i].ToString() << " / " << codes[j].ToString() << ": "
          << mid.status();
      ASSERT_TRUE(cdbs::IsCode(*mid)) << mid->ToString();
      ASSERT_LT(codes[i].Compare(*mid), 0)
          << codes[i].ToString() << " !< " << mid->ToString();
      ASSERT_LT(mid->Compare(codes[j]), 0)
          << mid->ToString() << " !< " << codes[j].ToString();
    }
  }
}

// Open boundaries against every code at the byte-boundary lengths.
TEST(CdbsTest, ExhaustiveOpenBoundaryInsertions) {
  for (const BitString& c : AllCodesUpTo(9)) {
    auto before = cdbs::Between(BitString(), c);
    ASSERT_TRUE(before.ok()) << c.ToString();
    ASSERT_TRUE(cdbs::IsCode(*before));
    ASSERT_LT(before->Compare(c), 0)
        << before->ToString() << " !< " << c.ToString();
    auto after = cdbs::Between(c, BitString());
    ASSERT_TRUE(after.ok()) << c.ToString();
    ASSERT_TRUE(cdbs::IsCode(*after));
    ASSERT_LT(c.Compare(*after), 0)
        << c.ToString() << " !< " << after->ToString();
  }
}

// Drive a single gap down through several byte boundaries: repeatedly
// insert between an adjacent pair and shrink the gap to the new code,
// alternating sides. Lengths pass 8, 16, 24... bits, exercising code
// creation from maximum-length prefixes on every step.
TEST(CdbsTest, AdjacentInsertionChainAcrossByteBoundaries) {
  BitString left = BitString::FromBits("01");
  BitString right = BitString::FromBits("1");
  for (int step = 0; step < 80; ++step) {
    auto mid = cdbs::Between(left, right);
    ASSERT_TRUE(mid.ok()) << "step " << step << ": " << mid.status();
    ASSERT_TRUE(cdbs::IsCode(*mid)) << mid->ToString();
    ASSERT_LT(left.Compare(*mid), 0)
        << "step " << step << ": " << left.ToString() << " !< "
        << mid->ToString();
    ASSERT_LT(mid->Compare(right), 0)
        << "step " << step << ": " << mid->ToString() << " !< "
        << right.ToString();
    if (step % 2 == 0) {
      left = *mid;
    } else {
      right = *mid;
    }
  }
}

TEST(CdbsTest, SkewedRightInsertionGrowsLinearlySlowly) {
  // Repeated insert-after-last is the common append pattern; length must
  // grow by exactly one bit per insertion (CDBS behavior).
  BitString cursor = BitString::FromBits("1");
  for (int i = 0; i < 64; ++i) {
    auto next = cdbs::Between(cursor, BitString());
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(next->size(), cursor.size() + 1);
    cursor = *next;
  }
}

// --- Inline/spill boundary ---------------------------------------------
//
// Codes up to BitString::kInlineBits bits live in the value; longer ones
// spill to the heap. These tests drive every operation across that
// boundary against a naive '0'/'1' std::string model.

int Sign(int v) { return v < 0 ? -1 : (v > 0 ? 1 : 0); }

uint64_t ModelPrefixKey(const std::string& model) {
  uint64_t key = 0;
  for (size_t i = 0; i < 64; ++i) {
    key = (key << 1) | (i < model.size() && model[i] == '1' ? 1 : 0);
  }
  return key;
}

void ExpectMatchesModel(const BitString& s, const std::string& model) {
  ASSERT_EQ(s.size(), model.size());
  ASSERT_EQ(s.empty(), model.empty());
  ASSERT_EQ(s.ToString(), model);
  for (size_t i = 0; i < model.size(); ++i) {
    ASSERT_EQ(s.bit(i), model[i] == '1') << "bit " << i;
  }
  ASSERT_EQ(s.PrefixKey64(), ModelPrefixKey(model));
}

TEST(BitStringSpillTest, StaticLayout) {
  static_assert(sizeof(BitString) == 16);
  EXPECT_EQ(BitString::kInlineBits, 120u);
}

TEST(BitStringSpillTest, AppendUpAndPopDownThroughTheBoundary) {
  BitString s;
  std::string model;
  for (size_t n = 0; n < 300; ++n) {
    const bool b = (n * 5 + 3) % 7 < 3;
    s.AppendBit(b);
    model += b ? '1' : '0';
    ExpectMatchesModel(s, model);
    ASSERT_EQ(s.Compare(BitString::FromBits(model)), 0);
  }
  while (!model.empty()) {
    s.PopBit();
    model.pop_back();
    ExpectMatchesModel(s, model);
    ASSERT_EQ(s.Compare(BitString::FromBits(model)), 0);
  }
}

TEST(BitStringSpillTest, RandomOperationsMatchStringModel) {
  constexpr size_t kSlots = 4;
  BitString value[kSlots];
  std::string model[kSlots];
  Rng rng(121);
  auto random_bits = [&](size_t len) {
    std::string bits;
    for (size_t i = 0; i < len; ++i) bits += rng.Chance(0.5) ? '1' : '0';
    return bits;
  };
  size_t up_crossings = 0;    // 120 -> 121
  size_t down_crossings = 0;  // 121 -> 120
  for (int step = 0; step < 20000; ++step) {
    const size_t a = rng.Below(kSlots);
    const size_t b = rng.Below(kSlots);
    switch (rng.Below(10)) {
      case 0:
      case 1:
      case 2: {
        if (model[a].size() >= 300) break;
        const bool bit = rng.Chance(0.5);
        if (model[a].size() == BitString::kInlineBits) ++up_crossings;
        value[a].AppendBit(bit);
        model[a] += bit ? '1' : '0';
        break;
      }
      case 3:
      case 4: {
        if (model[a].empty()) break;
        if (model[a].size() == BitString::kInlineBits + 1) ++down_crossings;
        value[a].PopBit();
        model[a].pop_back();
        break;
      }
      case 5: {
        // Fresh lengths cluster at the boundary half of the time.
        const size_t len = rng.Chance(0.5) ? 116 + rng.Below(10)
                                           : rng.Below(301);
        model[a] = random_bits(len);
        value[a] = BitString::FromBits(model[a]);
        break;
      }
      case 6:
        ASSERT_EQ(value[a].Compare(value[b]),
                  Sign(model[a].compare(model[b])))
            << model[a] << " vs " << model[b];
        ASSERT_EQ(value[a] == value[b], model[a] == model[b]);
        ASSERT_EQ(value[a] < value[b], model[a] < model[b]);
        break;
      case 7:
        value[b] = value[a];  // copy-assign, a == b is self-assignment
        model[b] = model[a];
        break;
      case 8: {
        BitString moved(std::move(value[a]));
        value[a] = BitString::FromBits(model[a]);
        value[b] = std::move(moved);  // move-assign
        model[b] = model[a];
        break;
      }
      case 9: {
        BitString copy(value[a]);
        BitString& alias = copy;
        copy = std::move(alias);  // self move-assignment keeps the value
        ExpectMatchesModel(copy, model[a]);
        value[b] = std::move(copy);
        model[b] = model[a];
        break;
      }
    }
    for (size_t i = 0; i < kSlots; ++i) {
      ExpectMatchesModel(value[i], model[i]);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(up_crossings, 0u);
  EXPECT_GT(down_crossings, 0u);
}

TEST(BitStringSpillTest, AssignRejectsNonBitCharacters) {
  BitString s;
  for (size_t len : {1u, 64u, 120u, 121u, 250u}) {
    std::string bits(len, '1');
    EXPECT_TRUE(s.Assign(bits));
    EXPECT_EQ(s.ToString(), bits);
    for (char bad : {'2', '/', 'a', ' '}) {
      bits[len - 1] = bad;
      EXPECT_FALSE(s.Assign(bits)) << len << " " << bad;
      bits[len - 1] = '1';
    }
  }
}

TEST(BitStringSpillTest, FromWordKeepsOnlyTheLeadingBits) {
  EXPECT_EQ(BitString::FromWord(~uint64_t{0}, 0).ToString(), "");
  EXPECT_EQ(BitString::FromWord(~uint64_t{0}, 3).ToString(), "111");
  EXPECT_EQ(BitString::FromWord(uint64_t{0xA} << 60, 4),
            BitString::FromBits("1010"));
  EXPECT_EQ(BitString::FromWord(~uint64_t{0}, 64).size(), 64u);
}

}  // namespace
}  // namespace xupdate::label
