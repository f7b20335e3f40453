#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"

namespace xupdate {
namespace {

// RFC 3720 §B.4 test vectors (the CRC32C golden values every iSCSI
// implementation must reproduce).
TEST(Crc32cTest, Rfc3720Zeros) {
  std::string data(32, '\0');
  EXPECT_EQ(Crc32c(data), 0x8a9136aau);
}

TEST(Crc32cTest, Rfc3720Ones) {
  std::string data(32, static_cast<char>(0xff));
  EXPECT_EQ(Crc32c(data), 0x62a8ab43u);
}

TEST(Crc32cTest, Rfc3720Ascending) {
  std::string data;
  for (int i = 0; i < 32; ++i) data += static_cast<char>(i);
  EXPECT_EQ(Crc32c(data), 0x46dd794eu);
}

TEST(Crc32cTest, Rfc3720Descending) {
  std::string data;
  for (int i = 31; i >= 0; --i) data += static_cast<char>(i);
  EXPECT_EQ(Crc32c(data), 0x113fdb5cu);
}

TEST(Crc32cTest, Rfc3720IscsiReadCommand) {
  const unsigned char bytes[48] = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x04, 0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00};
  std::string data(reinterpret_cast<const char*>(bytes), sizeof(bytes));
  EXPECT_EQ(Crc32c(data), 0xd9963a56u);
}

// The classic CRC check string.
TEST(Crc32cTest, CheckString) {
  EXPECT_EQ(Crc32c("123456789"), 0xe3069283u);
}

TEST(Crc32cTest, EmptyIsZero) { EXPECT_EQ(Crc32c(""), 0u); }

// ExtendCrc32c over arbitrary splits must match the one-shot value; this
// also cross-checks the slice-by-4 fast path (runs of >= 4 bytes)
// against the byte-at-a-time tail path (splits force short runs).
TEST(Crc32cTest, ExtendMatchesOneShotOnRandomSplits) {
  Rng rng(7);
  std::string data;
  for (int i = 0; i < 1000; ++i) {
    data += static_cast<char>(rng.Next() & 0xff);
  }
  uint32_t expected = Crc32c(data);
  for (int trial = 0; trial < 50; ++trial) {
    size_t cut1 = rng.Next() % (data.size() + 1);
    size_t cut2 = cut1 + rng.Next() % (data.size() - cut1 + 1);
    uint32_t crc = Crc32c(std::string_view(data).substr(0, cut1));
    crc = ExtendCrc32c(crc, std::string_view(data).substr(cut1, cut2 - cut1));
    crc = ExtendCrc32c(crc, std::string_view(data).substr(cut2));
    EXPECT_EQ(crc, expected) << "cuts " << cut1 << "," << cut2;
  }
}

// ExtendCrc32c takes the crc32 instruction where the CPU has it; it must
// agree with the table implementation on every length and every start
// alignment (the instruction path reads 8-byte words, then a tail).
TEST(Crc32cTest, InstructionPathMatchesTables) {
  Rng rng(11);
  std::string data(4096 + 8, '\0');
  for (char& c : data) c = static_cast<char>(rng.Next() & 0xff);
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 4096; ++len) {
      std::string_view buffer(data.data() + align, len);
      uint32_t seed = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(ExtendCrc32c(seed, buffer),
                ExtendCrc32cPortable(seed, buffer))
          << "align " << align << " length " << len;
    }
  }
}

TEST(Crc32cTest, MaskRoundTripsAndDisplaces) {
  for (uint32_t crc : {0u, 1u, 0xe3069283u, 0xffffffffu, 0x8a9136aau}) {
    uint32_t masked = MaskCrc32c(crc);
    EXPECT_NE(masked, crc);
    EXPECT_EQ(UnmaskCrc32c(masked), crc);
  }
}

}  // namespace
}  // namespace xupdate
