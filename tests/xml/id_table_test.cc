#include "xml/id_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <type_traits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/random.h"

namespace xupdate::xml {
namespace {

using Table = IdTable<std::string>;
using Model = std::unordered_map<NodeId, std::string>;

// Long enough to live on the heap, so a record that is copied, moved or
// destroyed wrongly shows up under ASan.
std::string Payload(NodeId id, int step) {
  return "record-" + std::to_string(id) + "-step-" + std::to_string(step) +
         "-padding-past-the-small-string-buffer";
}

// Every id kind the table meets: a dense parse run, producer id spaces
// strided by 2^16, 2^20 and 2^24, and ids around 2^63 and the top of
// the id range.
std::vector<NodeId> IdPool() {
  std::vector<NodeId> ids;
  for (NodeId id = 1; id <= 1500; ++id) ids.push_back(id);
  for (NodeId k = 1; k <= 60; ++k) {
    for (NodeId j = 0; j < 4; ++j) {
      ids.push_back((k << 16) + j);
      ids.push_back((k << 20) + j);
      ids.push_back((k << 24) + j);
    }
  }
  for (NodeId j = 0; j < 70; ++j) {
    ids.push_back((NodeId{1} << 63) - 1 - j);
    ids.push_back((NodeId{1} << 63) + j);
    ids.push_back(std::numeric_limits<NodeId>::max() - j);
  }
  return ids;
}

void ExpectSame(const Table& table, const Model& model) {
  ASSERT_EQ(table.size(), model.size());
  ASSERT_EQ(table.empty(), model.empty());
  for (const auto& [id, value] : model) {
    const std::string* found = table.Find(id);
    ASSERT_NE(found, nullptr) << id;
    ASSERT_EQ(*found, value) << id;
  }
  size_t visited = 0;
  table.ForEach([&](NodeId id, const std::string& value) {
    ++visited;
    auto it = model.find(id);
    ASSERT_NE(it, model.end()) << id;
    ASSERT_EQ(value, it->second) << id;
  });
  ASSERT_EQ(visited, model.size());
}

TEST(IdTableTest, DifferentialAgainstUnorderedMap) {
  const std::vector<NodeId> pool = IdPool();
  Rng rng(2024);
  Table table;
  Model model;
  std::vector<NodeId> erased;
  for (int step = 0; step < 20000; ++step) {
    NodeId id = pool[static_cast<size_t>(rng.Below(pool.size()))];
    switch (rng.Below(10)) {
      case 0:
      case 1:
      case 2: {  // insert, new or duplicate
        std::string value = Payload(id, step);
        auto [record, inserted] = table.TryEmplace(id, value);
        auto [it, model_inserted] = model.try_emplace(id, value);
        ASSERT_EQ(inserted, model_inserted) << "step " << step;
        ASSERT_EQ(*record, it->second) << "step " << step;
        break;
      }
      case 3: {  // duplicate insert of a present id
        if (model.empty()) break;
        NodeId present = model.begin()->first;
        auto [record, inserted] = table.TryEmplace(present, "other");
        ASSERT_FALSE(inserted) << "step " << step;
        ASSERT_EQ(*record, model.at(present)) << "step " << step;
        break;
      }
      case 4:
      case 5: {  // erase, present or not
        bool erased_one = table.Erase(id);
        ASSERT_EQ(erased_one, model.erase(id) == 1) << "step " << step;
        if (erased_one) erased.push_back(id);
        break;
      }
      case 6: {  // re-insert after erase
        if (erased.empty()) break;
        NodeId again = erased[static_cast<size_t>(rng.Below(erased.size()))];
        std::string value = Payload(again, step);
        ASSERT_EQ(table.TryEmplace(again, value).second,
                  model.try_emplace(again, value).second)
            << "step " << step;
        break;
      }
      case 7: {  // find, then write through the record
        std::string* found = table.Find(id);
        auto it = model.find(id);
        ASSERT_EQ(found != nullptr, it != model.end()) << "step " << step;
        ASSERT_EQ(table.Contains(id), it != model.end());
        if (found != nullptr) {
          *found = Payload(id, -step);
          it->second = *found;
        }
        break;
      }
      case 8: {  // copy, then keep working on the copy
        Table copy(table);
        ASSERT_NO_FATAL_FAILURE(ExpectSame(copy, model));
        Table assigned;
        assigned.TryEmplace(7, "overwritten");
        assigned = copy;
        ASSERT_NO_FATAL_FAILURE(ExpectSame(assigned, model));
        table = assigned;
        break;
      }
      case 9: {  // move, move-assign and self-assignment
        Table moved(std::move(table));
        ASSERT_TRUE(table.empty());  // NOLINT(bugprone-use-after-move)
        table.TryEmplace(11, "scratch");
        table = std::move(moved);
        Table& self = table;
        table = self;
        table = std::move(self);
        break;
      }
    }
    if (step % 1000 == 999) {
      ASSERT_NO_FATAL_FAILURE(ExpectSame(table, model));
    }
  }
  ASSERT_NO_FATAL_FAILURE(ExpectSame(table, model));
}

// Trivially copyable records (NodeRecord) copy chunk by chunk, free
// slots included: the copy holds exactly the live ids, reuses the same
// free slots and is independent of its source.
TEST(IdTableTest, ChunkCopyOfTriviallyCopyableRecords) {
  static_assert(std::is_trivially_copyable_v<NodeRecord>);
  IdTable<NodeRecord> table;
  std::unordered_map<NodeId, NodeId> model;  // id -> parent
  for (NodeId id : IdPool()) {
    table.TryEmplace(id).first->parent = id + 7;
    model[id] = id + 7;
  }
  for (NodeId id = 1; id <= 1500; id += 3) {
    table.Erase(id);
    model.erase(id);
  }
  IdTable<NodeRecord> copy(table);
  auto expect = [](const IdTable<NodeRecord>& t,
                   const std::unordered_map<NodeId, NodeId>& m) {
    ASSERT_EQ(t.size(), m.size());
    for (const auto& [id, parent] : m) {
      const NodeRecord* rec = t.Find(id);
      ASSERT_NE(rec, nullptr) << id;
      EXPECT_EQ(rec->parent, parent) << id;
    }
    size_t visited = 0;
    t.ForEach([&](NodeId id, const NodeRecord&) {
      ++visited;
      EXPECT_EQ(m.count(id), 1u) << id;
    });
    EXPECT_EQ(visited, m.size());
  };
  ASSERT_NO_FATAL_FAILURE(expect(copy, model));
  // Inserts into the copy reuse its free slots and leave the source as
  // it was.
  std::unordered_map<NodeId, NodeId> copy_model = model;
  for (NodeId id = 1; id <= 1500; id += 3) {
    copy.TryEmplace(id).first->parent = 1;
    copy_model[id] = 1;
  }
  copy.Find(2)->parent = 99;
  copy_model[2] = 99;
  ASSERT_NO_FATAL_FAILURE(expect(copy, copy_model));
  ASSERT_NO_FATAL_FAILURE(expect(table, model));
}

TEST(IdTableTest, RecordAddressSurvivesLaterInserts) {
  Table table;
  std::string* first = table.TryEmplace(5, Payload(5, 0)).first;
  for (NodeId id = 6; id < 6 + 5000; ++id) table.TryEmplace(id, "x");
  for (NodeId k = 1; k <= 5000; ++k) table.TryEmplace(k << 20, "y");
  ASSERT_EQ(table.size(), 10001u);
  EXPECT_EQ(table.Find(5), first);
  EXPECT_EQ(*first, Payload(5, 0));
  // Erasing other records leaves it in place too.
  for (NodeId id = 6; id < 6 + 5000; id += 2) table.Erase(id);
  EXPECT_EQ(table.Find(5), first);
  EXPECT_EQ(*first, Payload(5, 0));
}

TEST(IdTableTest, ForEachVisitsExactlyTheLiveIds) {
  Table table;
  std::unordered_set<NodeId> live;
  for (NodeId id = 1; id <= 3000; ++id) {
    NodeId sparse = id % 3 == 0 ? (id << 24) : id;
    table.TryEmplace(sparse, "v");
    live.insert(sparse);
  }
  for (NodeId id = 1; id <= 3000; id += 7) {
    NodeId sparse = id % 3 == 0 ? (id << 24) : id;
    table.Erase(sparse);
    live.erase(sparse);
  }
  // Freed slots are reused by later inserts.
  for (NodeId id = 5000; id < 5100; ++id) {
    table.TryEmplace(id, "w");
    live.insert(id);
  }
  std::unordered_set<NodeId> seen;
  table.ForEach([&](NodeId id, const std::string&) {
    EXPECT_TRUE(seen.insert(id).second) << "visited twice: " << id;
  });
  EXPECT_EQ(seen, live);
}

TEST(IdTableTest, SparseIdsCostOnePageEach) {
  IdTable<int> table;
  const size_t n = 1000;
  for (size_t k = 1; k <= n; ++k) {
    table.TryEmplace(static_cast<NodeId>(k) << 20, static_cast<int>(k));
  }
  EXPECT_EQ(table.size(), n);
  EXPECT_EQ(table.page_count(), n);
  // A dense run of the same length fills n / 64 pages.
  IdTable<int> dense;
  for (size_t id = 1; id <= n; ++id) {
    dense.TryEmplace(static_cast<NodeId>(id), 0);
  }
  EXPECT_EQ(dense.page_count(), n / IdTable<int>::kPageSize + 1);
}

}  // namespace
}  // namespace xupdate::xml
