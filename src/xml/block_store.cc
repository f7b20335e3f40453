#include "xml/block_store.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace xupdate::xml {

namespace {

// Copies `bytes` from `from` to the fresh block `to`. Under ASan the
// store's poisoned (free) granules are skipped and poisoned in the
// copy too: a plain memcpy would report reading them.
void CopyBlockBytes(uint64_t* to, const uint64_t* from, size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  for (size_t i = 0; i < bytes / BlockStore::kAlign; ++i) {
    if (__asan_address_is_poisoned(from + i)) {
      ASAN_POISON_MEMORY_REGION(to + i, BlockStore::kAlign);
    } else {
      to[i] = from[i];
    }
  }
#else
  std::memcpy(to, from, bytes);
#endif
}

}  // namespace

void BlockStore::BlockDeleter::operator()(uint64_t* words) const {
  ASAN_UNPOISON_MEMORY_REGION(words, bytes);
  delete[] words;
}

BlockStore::BlockStore(const BlockStore& other)
    : free_(other.free_),
      open_block_(other.open_block_),
      open_offset_(other.open_offset_),
      reserved_bytes_(other.reserved_bytes_),
      live_bytes_(other.live_bytes_),
      freed_since_coalesce_(other.freed_since_coalesce_) {
  blocks_.reserve(other.blocks_.size());
  for (size_t i = 0; i < other.blocks_.size(); ++i) {
    const Block& from = other.blocks_[i];
    if (!from) {
      blocks_.emplace_back();
      continue;
    }
    uint32_t bytes = from.get_deleter().bytes;
    Block to(new uint64_t[bytes / kAlign], BlockDeleter{bytes});
    // Past the open block's cut nothing was ever written.
    uint32_t used =
        i == open_block_ && open_offset_ < kBlockBytes ? open_offset_ : bytes;
    CopyBlockBytes(to.get(), from.get(), used);
    ASAN_POISON_MEMORY_REGION(to.get() + used / kAlign, bytes - used);
    blocks_.push_back(std::move(to));
  }
}

BlockStore& BlockStore::operator=(const BlockStore& other) {
  if (this != &other) *this = BlockStore(other);
  return *this;
}

int BlockStore::ClassOf(uint32_t bytes) {
  return std::bit_width(bytes / kAlign) - 1;
}

uint32_t BlockStore::NewBlock(uint32_t bytes) {
  Block block(new uint64_t[bytes / kAlign], BlockDeleter{bytes});
  ASAN_POISON_MEMORY_REGION(block.get(), bytes);
  reserved_bytes_ += bytes;
  for (size_t i = 0; i < blocks_.size(); ++i) {
    if (!blocks_[i]) {
      blocks_[i] = std::move(block);
      return static_cast<uint32_t>(i);
    }
  }
  blocks_.push_back(std::move(block));
  return static_cast<uint32_t>(blocks_.size() - 1);
}

BlockStore::Extent BlockStore::Allocate(size_t request) {
  size_t rounded = RoundUp(request);
  if (rounded == 0 || rounded > std::numeric_limits<uint32_t>::max()) {
    std::fprintf(stderr, "xml::BlockStore: bad extent size %zu\n", request);
    std::abort();
  }
  const uint32_t bytes = static_cast<uint32_t>(rounded);
  Extent extent;
  if (bytes > kBlockBytes) {
    extent = {NewBlock(bytes), 0, bytes};
  } else if (!TakeFree(bytes, &extent)) {
    if (open_offset_ + bytes > kBlockBytes) {
      // The open block is used up. Merging free ranges first pays only
      // once a block's worth has been freed since the last merge.
      if (open_offset_ < kBlockBytes) {
        PushFree({open_block_, open_offset_, kBlockBytes - open_offset_});
        open_offset_ = kBlockBytes;
      }
      if (freed_since_coalesce_ < kBlockBytes) {
        open_block_ = NewBlock(kBlockBytes);
        open_offset_ = 0;
      } else {
        Coalesce();
        if (!TakeFree(bytes, &extent)) {
          open_block_ = NewBlock(kBlockBytes);
          open_offset_ = 0;
        }
      }
    }
    if (extent.bytes == 0) {
      extent = {open_block_, open_offset_, bytes};
      open_offset_ += bytes;
    }
  }
  ASAN_UNPOISON_MEMORY_REGION(Words(extent.block, extent.offset), bytes);
  live_bytes_ += bytes;
  return extent;
}

void BlockStore::Free(const Extent& extent) {
  if (extent.bytes == 0) return;
  live_bytes_ -= extent.bytes;
  if (extent.bytes > kBlockBytes) {
    reserved_bytes_ -= extent.bytes;
    blocks_[extent.block].reset();
    return;
  }
  freed_since_coalesce_ += extent.bytes;
  PushFree(extent);
  // After frees outweighing what is left (a large delete), merge now:
  // blocks left wholly free go back at once.
  if (freed_since_coalesce_ >= std::max<size_t>(kBlockBytes, live_bytes_)) {
    Coalesce();
  }
}

void BlockStore::PushFree(const Extent& range) {
  ASAN_POISON_MEMORY_REGION(Words(range.block, range.offset), range.bytes);
  free_[ClassOf(range.bytes)].push_back(Pack(range));
}

bool BlockStore::TakeFree(uint32_t bytes, Extent* extent) {
  // A range of the request's own class may hold it (the last few
  // looked at); every range of a larger class does.
  const int own = ClassOf(bytes);
  std::vector<uint64_t>& same = free_[own];
  size_t found = same.size();
  for (size_t i = same.size(), seen = 0; i > 0 && seen < 8; --i, ++seen) {
    if (Unpack(same[i - 1]).bytes >= bytes) {
      found = i - 1;
      break;
    }
  }
  Extent range;
  if (found < same.size()) {
    range = Unpack(same[found]);
    same[found] = same.back();
    same.pop_back();
  } else {
    int k = own + 1;
    while (k < kClasses && free_[k].empty()) ++k;
    if (k == kClasses) return false;
    range = Unpack(free_[k].back());
    free_[k].pop_back();
  }
  *extent = {range.block, range.offset, bytes};
  if (range.bytes > bytes) {
    free_[ClassOf(range.bytes - bytes)].push_back(
        Pack({range.block, range.offset + bytes, range.bytes - bytes}));
  }
  return true;
}

void BlockStore::Coalesce() {
  freed_since_coalesce_ = 0;
  std::vector<uint64_t> ranges;
  for (std::vector<uint64_t>& list : free_) {
    ranges.insert(ranges.end(), list.begin(), list.end());
    list.clear();
  }
  std::sort(ranges.begin(), ranges.end());
  auto flush = [this](const Extent& range) {
    if (range.bytes == kBlockBytes) {
      reserved_bytes_ -= kBlockBytes;
      blocks_[range.block].reset();
      return;
    }
    free_[ClassOf(range.bytes)].push_back(Pack(range));
  };
  Extent merged;
  for (uint64_t packed : ranges) {
    Extent next = Unpack(packed);
    if (merged.bytes != 0 && next.block == merged.block &&
        next.offset == merged.offset + merged.bytes) {
      merged.bytes += next.bytes;
      continue;
    }
    if (merged.bytes != 0) flush(merged);
    merged = next;
  }
  if (merged.bytes != 0) flush(merged);
}

bool BlockStore::Holds(uint32_t block, uint32_t offset, size_t bytes) const {
  return block < blocks_.size() && blocks_[block] &&
         offset % kAlign == 0 &&
         offset + bytes <= blocks_[block].get_deleter().bytes;
}

}  // namespace xupdate::xml
