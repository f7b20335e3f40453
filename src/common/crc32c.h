#ifndef XUPDATE_COMMON_CRC32C_H_
#define XUPDATE_COMMON_CRC32C_H_

#include <cstdint>
#include <string_view>

namespace xupdate {

// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected) — the checksum
// of RFC 3720 / iSCSI, used by the versioned store to frame journal
// records and snapshot files. On x86-64 CPUs with SSE4.2 (checked once,
// at run time) the crc32 instruction computes it eight bytes per step;
// elsewhere a slice-by-4 table implementation does, four lookups per
// 32-bit word. Both compute the same function, so the value is
// identical on every platform the store runs on.
//
// Crc32c(data) computes the checksum of one buffer; ExtendCrc32c chains
// over split buffers:
//   ExtendCrc32c(Crc32c(a), b) == Crc32c(a + b)
uint32_t Crc32c(std::string_view data);
uint32_t ExtendCrc32c(uint32_t crc, std::string_view data);

// The table implementation, whatever the CPU: the only path on CPUs
// without the instruction, and the reference tests hold the instruction
// path to.
uint32_t ExtendCrc32cPortable(uint32_t crc, std::string_view data);

// The store stores checksums masked the way RocksDB/LevelDB do: a
// rotation plus an additive constant, so that a CRC computed over bytes
// that themselves embed a CRC does not collapse into a fixed point.
inline uint32_t MaskCrc32c(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
inline uint32_t UnmaskCrc32c(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot << 15) | (rot >> 17);
}

}  // namespace xupdate

#endif  // XUPDATE_COMMON_CRC32C_H_
