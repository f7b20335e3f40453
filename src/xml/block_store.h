#ifndef XUPDATE_XML_BLOCK_STORE_H_
#define XUPDATE_XML_BLOCK_STORE_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace xupdate::xml {

// The per-document storage behind xml::Document's child lists,
// attribute lists and values: fixed blocks of kBlockBytes, handed out in
// 8-byte-aligned extents.
//
// * An extent never moves. Only its owner frees it (and moves its
//   contents elsewhere) when its own list outgrows it or is dropped, so
//   a pointer into one extent stays valid across every allocation and
//   free of other extents.
// * An extent larger than a block gets a block of its own, released as
//   soon as the extent is freed.
// * Freed space goes on per-size-class free lists of ranges (class k:
//   kAlign << k bytes up to twice that) and is reused before the open
//   block is cut further: a request takes a range of its own class that
//   holds it, else one of a larger class, and gives the rest back. When
//   the open block is used up and a block's worth has been freed since
//   the last merge, adjacent free ranges are merged (a block left wholly
//   free is released) before a new block is taken. Frees that outweigh
//   the bytes still in use (a large delete) merge at once.
// * Live extents never move, so storage stays within about twice the
//   most bytes the document has held in use; after a large delete it
//   shrinks only by the blocks that free up wholly, and the space left
//   in the others is what later inserts reuse.
// * Copying the store copies whole blocks and the free lists: no work
//   per extent.
// * Under AddressSanitizer, free space (vacated extents and the
//   untouched tail of a block) is poisoned, so a read through a pointer
//   whose extent was freed or moved is reported.
//
// Reads only read, so a const store may be read from many threads.
class BlockStore {
 public:
  static constexpr uint32_t kBlockBytes = 64 * 1024;
  static constexpr uint32_t kAlign = 8;

  // A run of bytes in the store; bytes == 0 is no extent at all.
  struct Extent {
    uint32_t block = 0;
    uint32_t offset = 0;
    uint32_t bytes = 0;
  };

  BlockStore() = default;
  BlockStore(const BlockStore& other);
  BlockStore& operator=(const BlockStore& other);
  BlockStore(BlockStore&&) noexcept = default;
  BlockStore& operator=(BlockStore&&) noexcept = default;

  // Rounds a request up to the store's granularity.
  static size_t RoundUp(size_t bytes) {
    return (bytes + kAlign - 1) & ~size_t{kAlign - 1};
  }

  // An extent of exactly RoundUp(bytes) bytes; `bytes` must be > 0.
  Extent Allocate(size_t bytes);
  // Returns `extent` (as Allocate handed it out) to the store.
  void Free(const Extent& extent);

  // An extent's storage: blocks are arrays of 64-bit words, so an
  // extent holds NodeIds as such, and bytes through char access.
  uint64_t* Words(uint32_t block, uint32_t offset) {
    return blocks_[block].get() + offset / kAlign;
  }
  const uint64_t* Words(uint32_t block, uint32_t offset) const {
    return blocks_[block].get() + offset / kAlign;
  }
  char* Chars(uint32_t block, uint32_t offset) {
    return reinterpret_cast<char*>(Words(block, offset));
  }
  const char* Chars(uint32_t block, uint32_t offset) const {
    return reinterpret_cast<const char*>(Words(block, offset));
  }

  // True when `bytes` from `offset` of `block` lie inside a live block,
  // 8-byte aligned (Document::Validate's bounds check).
  bool Holds(uint32_t block, uint32_t offset, size_t bytes) const;

  // Bytes of the blocks held, and of the extents handed out and not
  // freed: reserved_bytes() - live_bytes() is free or untouched space.
  size_t reserved_bytes() const { return reserved_bytes_; }
  size_t live_bytes() const { return live_bytes_; }

 private:
  // Frees a block's bytes; under ASan it first lifts the poison the
  // store put on them.
  struct BlockDeleter {
    uint32_t bytes = 0;
    void operator()(uint64_t* words) const;
  };
  using Block = std::unique_ptr<uint64_t[], BlockDeleter>;

  // Size classes: class k holds free ranges of kAlign << k bytes up to
  // (not including) twice that; the last holds whole blocks.
  static constexpr int kClasses = std::bit_width(kBlockBytes / kAlign);
  static_assert((kAlign << (kClasses - 1)) == kBlockBytes);

  // A free range, packed so that packed order is (block, offset) order:
  // block << 32 | offset / kAlign << 16 | bytes / kAlign.
  static uint64_t Pack(const Extent& range) {
    return uint64_t{range.block} << 32 |
           uint64_t{range.offset / kAlign} << 16 | range.bytes / kAlign;
  }
  static Extent Unpack(uint64_t packed) {
    return {static_cast<uint32_t>(packed >> 32),
            static_cast<uint32_t>((packed >> 16) & 0xffff) * kAlign,
            static_cast<uint32_t>(packed & 0xffff) * kAlign};
  }
  // The class of a free range of `bytes`.
  static int ClassOf(uint32_t bytes);

  uint32_t NewBlock(uint32_t bytes);
  // Poisons a free range of a shared block and puts it on its class's
  // list.
  void PushFree(const Extent& range);
  // Takes `bytes` from the front of a free range that holds them, the
  // rest going back on the lists; false when no free range holds them.
  bool TakeFree(uint32_t bytes, Extent* extent);
  // Merges adjacent free ranges; a shared block left wholly free is
  // released.
  void Coalesce();

  std::vector<Block> blocks_;  // a released block is nullptr until reused
  std::array<std::vector<uint64_t>, kClasses> free_;
  // The block new extents are cut from when no free piece fits, and
  // the first untouched byte in it (kBlockBytes: no such block).
  uint32_t open_block_ = ~uint32_t{0};
  uint32_t open_offset_ = kBlockBytes;
  size_t reserved_bytes_ = 0;
  size_t live_bytes_ = 0;
  size_t freed_since_coalesce_ = 0;
};

}  // namespace xupdate::xml

#endif  // XUPDATE_XML_BLOCK_STORE_H_
