#ifndef XUPDATE_XML_ID_TABLE_H_
#define XUPDATE_XML_ID_TABLE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "xml/node.h"

namespace xupdate::xml {

// One record of type T per node id: the node table behind xml::Document
// and label::Labeling. Node ids are unique and never reused (paper
// §4.1), mostly dense (a parse numbers nodes 1, 2, 3, ...) but spread
// over producer id spaces strided by 2^16..2^24.
//
// * Records live in fixed chunks of kChunkSize slots. A record's
//   address never changes while it is in the table: inserts and erases
//   of other ids never move it (the guarantee std::unordered_map gave).
// * Ids find their slots through a paged radix index: an open-addressed
//   directory keyed by id >> kPageBits points to pages of kPageSize
//   uint32_t slot numbers (0 = absent). A dense id run is one run of
//   pages and of slots; a lone sparse id costs one page and one
//   directory entry, so memory is bounded by the number of ids held
//   (plus pages of erased ids), never by their magnitude.
// * Erased slots are reused through a free list; erased ids' page
//   entries just read 0 again.
// * A copy of a table of trivially copyable records (NodeRecord)
//   copies whole chunks; other records (NodeLabel) copy one by one.
//
// Lookups only read, so a const table may be read from many threads.
// Iteration order (ForEach) is slot order, which is neither id order
// nor document order; nothing may derive output from it. Id 0
// (kInvalidNode) is never stored.
template <typename T>
class IdTable {
 public:
  static constexpr size_t kChunkSize = 1024;
  static constexpr unsigned kPageBits = 6;
  static constexpr size_t kPageSize = size_t{1} << kPageBits;

  IdTable() = default;
  IdTable(const IdTable& other) { CopyFrom(other); }
  IdTable& operator=(const IdTable& other) {
    if (this != &other) {
      IdTable copy(other);
      Swap(copy);
    }
    return *this;
  }
  IdTable(IdTable&& other) noexcept { Swap(other); }
  IdTable& operator=(IdTable&& other) noexcept {
    if (this != &other) {
      IdTable moved(std::move(other));
      Swap(moved);
    }
    return *this;
  }
  ~IdTable() { DestroyRecords(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Index pages allocated so far (one per distinct id >> kPageBits).
  size_t page_count() const { return pages_.size() / kPageSize; }

  bool Contains(NodeId id) const { return SlotOf(id) != 0; }
  // nullptr when `id` is absent.
  const T* Find(NodeId id) const {
    uint32_t slot = SlotOf(id);
    return slot == 0 ? nullptr : SlotAt(slot).value();
  }
  T* Find(NodeId id) {
    uint32_t slot = SlotOf(id);
    return slot == 0 ? nullptr : SlotAt(slot).value();
  }

  // Builds a T from `args` under `id` unless `id` is present. Returns
  // the record under `id` and whether it was inserted.
  template <typename... Args>
  std::pair<T*, bool> TryEmplace(NodeId id, Args&&... args) {
    assert(id != kInvalidNode);
    uint32_t* entry = PageEntry(id);
    if (*entry != 0) return {SlotAt(*entry).value(), false};
    uint32_t slot = AcquireSlot();
    Slot& s = SlotAt(slot);
    T* record = ::new (static_cast<void*>(s.bytes))
        T(std::forward<Args>(args)...);
    s.id = id;
    *entry = slot;
    ++size_;
    return {record, true};
  }

  // Removes `id`'s record; false when absent.
  bool Erase(NodeId id) {
    size_t entry = EntryIndex(id);
    if (entry == kNoEntry || pages_[entry] == 0) return false;
    Slot& s = SlotAt(pages_[entry]);
    s.value()->~T();
    s.id = kInvalidNode;
    free_.push_back(pages_[entry]);
    pages_[entry] = 0;
    --size_;
    return true;
  }

  // Sizes the table for `n` records of a dense id run.
  void Reserve(size_t n) {
    chunks_.reserve((n + kChunkSize - 1) / kChunkSize);
    size_t pages = n / kPageSize + 1;
    pages_.reserve(pages * kPageSize);
    if (pages * 2 > dir_.size()) Rehash(pages * 2);
  }

  // Calls f(id, record) for every record, in slot order.
  template <typename F>
  void ForEach(F&& f) const {
    for (uint32_t slot = 1; slot <= high_water_; ++slot) {
      const Slot& s = SlotAt(slot);
      if (s.id != kInvalidNode) f(s.id, *s.value());
    }
  }

 private:
  struct Slot {
    NodeId id;  // kInvalidNode while the slot is free
    alignas(T) unsigned char bytes[sizeof(T)];

    T* value() { return std::launder(reinterpret_cast<T*>(bytes)); }
    const T* value() const {
      return std::launder(reinterpret_cast<const T*>(bytes));
    }
  };
  struct DirEntry {
    uint64_t key;   // id >> kPageBits, or kNoKey
    uint32_t page;  // index of the page in pages_
  };
  static constexpr uint64_t kNoKey = ~uint64_t{0};

  // Slot numbers start at 1 so that 0 can mean "absent" in a page.
  Slot& SlotAt(uint32_t slot) {
    return chunks_[(slot - 1) / kChunkSize][(slot - 1) % kChunkSize];
  }
  const Slot& SlotAt(uint32_t slot) const {
    return chunks_[(slot - 1) / kChunkSize][(slot - 1) % kChunkSize];
  }

  size_t Home(uint64_t key) const {
    // Fibonacci hashing: the directory stays small, so scattering page
    // keys costs nothing, and strided producer id spaces do not pile
    // up on one probe run.
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> dir_shift_);
  }

  // The directory slot of `key`: its entry, or the empty one that ends
  // its probe run.
  size_t Probe(uint64_t key) const {
    size_t mask = dir_.size() - 1;
    size_t i = Home(key);
    while (dir_[i].key != key && dir_[i].key != kNoKey) i = (i + 1) & mask;
    return i;
  }

  // Index of `id`'s entry in pages_, or kNoEntry when its page is
  // missing.
  static constexpr size_t kNoEntry = ~size_t{0};
  size_t EntryIndex(NodeId id) const {
    if (dir_.empty()) return kNoEntry;
    const DirEntry& e = dir_[Probe(id >> kPageBits)];
    if (e.key == kNoKey) return kNoEntry;
    return e.page * kPageSize + (id & (kPageSize - 1));
  }

  uint32_t SlotOf(NodeId id) const {
    size_t entry = EntryIndex(id);
    return entry == kNoEntry ? 0 : pages_[entry];
  }

  // `id`'s page entry, adding its page when missing.
  uint32_t* PageEntry(NodeId id) {
    uint64_t key = id >> kPageBits;
    if ((page_count() + 1) * 2 > dir_.size()) Rehash(dir_.size() * 2);
    size_t i = Probe(key);
    if (dir_[i].key == kNoKey) {
      dir_[i] = {key, static_cast<uint32_t>(page_count())};
      pages_.resize(pages_.size() + kPageSize, 0);
    }
    return &pages_[dir_[i].page * kPageSize + (id & (kPageSize - 1))];
  }

  // Grows the directory to at least `min_size` entries (a power of two,
  // at least 16) and re-places every page key.
  void Rehash(size_t min_size) {
    size_t size = 16;
    unsigned shift = 60;
    while (size < min_size) {
      size *= 2;
      --shift;
    }
    std::vector<DirEntry> old = std::move(dir_);
    dir_.assign(size, DirEntry{kNoKey, 0});
    dir_shift_ = shift;
    for (const DirEntry& e : old) {
      if (e.key != kNoKey) dir_[Probe(e.key)] = e;
    }
  }

  uint32_t AcquireSlot() {
    if (!free_.empty()) {
      uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    if (high_water_ % kChunkSize == 0) {
      // Default-initialized: slots above high_water_ are never read.
      chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kChunkSize));
    }
    ++high_water_;
    SlotAt(high_water_).id = kInvalidNode;
    return high_water_;
  }

  void CopyFrom(const IdTable& other) {
    chunks_.reserve(other.chunks_.size());
    for (size_t c = 0; c < other.chunks_.size(); ++c) {
      chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kChunkSize));
      size_t used = std::min(kChunkSize, other.high_water_ - c * kChunkSize);
      const Slot* from = other.chunks_[c].get();
      Slot* to = chunks_[c].get();
      if constexpr (std::is_trivially_copyable_v<T>) {
        // Free slots carry kInvalidNode and stale bytes; both copy as is.
        std::memcpy(static_cast<void*>(to), from, used * sizeof(Slot));
        high_water_ += static_cast<uint32_t>(used);
        continue;
      }
      for (size_t i = 0; i < used; ++i) {
        to[i].id = kInvalidNode;
        if (from[i].id == kInvalidNode) continue;
        ::new (static_cast<void*>(to[i].bytes)) T(*from[i].value());
        to[i].id = from[i].id;
      }
      high_water_ += static_cast<uint32_t>(used);
    }
    free_ = other.free_;
    pages_ = other.pages_;
    dir_ = other.dir_;
    dir_shift_ = other.dir_shift_;
    size_ = other.size_;
  }

  void DestroyRecords() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      for (uint32_t slot = 1; slot <= high_water_; ++slot) {
        Slot& s = SlotAt(slot);
        if (s.id != kInvalidNode) s.value()->~T();
      }
    }
  }

  void Swap(IdTable& other) noexcept {
    chunks_.swap(other.chunks_);
    std::swap(high_water_, other.high_water_);
    free_.swap(other.free_);
    pages_.swap(other.pages_);
    dir_.swap(other.dir_);
    std::swap(dir_shift_, other.dir_shift_);
    std::swap(size_, other.size_);
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  uint32_t high_water_ = 0;  // slots 1..high_water_ have been handed out
  std::vector<uint32_t> free_;
  std::vector<uint32_t> pages_;
  std::vector<DirEntry> dir_;  // power-of-two size once non-empty
  unsigned dir_shift_ = 60;
  size_t size_ = 0;
};

}  // namespace xupdate::xml

#endif  // XUPDATE_XML_ID_TABLE_H_
