// Store-file golden for the merge, rollback and rebase paths: a fixed
// scenario on a generated XMark document whose every resulting store
// file (journals, checkpoints, branches.log) is pinned by size and
// CRC32C. Any change to how merge frames, rollback commits or rebased
// journals are computed shows up here as a byte difference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "branch/merge.h"
#include "branch/rebase.h"
#include "common/crc32c.h"
#include "common/file_io.h"
#include "label/labeling.h"
#include "store/version.h"
#include "workload/pul_generator.h"
#include "xmark/generator.h"

namespace xupdate::branch {
namespace {

namespace fs = std::filesystem;
using store::VersionStore;

constexpr uint64_t kIdBlock = 1 << 16;

struct FileDigest {
  std::string name;
  uint64_t size;
  uint32_t crc;
};

class MergeGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xupdate_merge_golden_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  // Commits `count` generated PULs on `branch`, each drawing inserted
  // ids from its own block so concurrent branches never collide.
  void CommitEdits(VersionStore* store, const std::string& branch,
                   size_t count, uint64_t seed) {
    for (size_t i = 0; i < count; ++i) {
      auto doc = store->BranchHeadDoc(branch);
      ASSERT_TRUE(doc.ok()) << doc.status();
      label::Labeling labeling = label::Labeling::Build(**doc);
      workload::PulGenerator gen(**doc, labeling, seed + i);
      workload::PulGenerator::PulOptions options;
      options.num_ops = 4;
      options.id_base = next_id_base_;
      next_id_base_ += kIdBlock;
      auto pul = gen.Generate(options);
      ASSERT_TRUE(pul.ok()) << pul.status();
      auto version = store->CommitOnBranch(branch, *pul);
      ASSERT_TRUE(version.ok()) << branch << ": " << version.status();
    }
  }

  std::vector<FileDigest> Digests(const std::string& dir) {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    std::vector<FileDigest> out;
    for (const std::string& name : names) {
      auto bytes = ReadFileToString(dir + "/" + name);
      EXPECT_TRUE(bytes.ok()) << bytes.status();
      out.push_back({name, bytes->size(), Crc32c(*bytes)});
    }
    return out;
  }

  fs::path dir_;
  uint64_t next_id_base_ = 0;
};

TEST_F(MergeGoldenTest, StoreFilesArePinnedAfterMergesRollbackAndRebase) {
  xmark::Config config;
  config.target_bytes = 8192;
  auto xml = xmark::GenerateDocumentText(config);
  ASSERT_TRUE(xml.ok()) << xml.status();
  std::string path = (dir_ / "store").string();
  store::StoreOptions options;
  options.fsync = store::FsyncPolicy::kNever;
  options.snapshot_every = 3;
  ASSERT_TRUE(VersionStore::Init(path, *xml, options).ok());
  auto opened = VersionStore::Open(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  VersionStore& store = *opened;
  next_id_base_ =
      ((store.head_doc().max_assigned_id() / kIdBlock) + 1) * kIdBlock;
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  ASSERT_TRUE(store.CreateBranch("x", "main", 0).ok());

  // 1. Fork-point merge, four commits on the main side.
  CommitEdits(&store, "main", 4, 101);
  CommitEdits(&store, "w", 1, 201);
  MergeStats stats;
  auto merged = Merge(&store, "main", "w", {}, &stats);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(stats.suffix_a, 4u);
  EXPECT_FALSE(stats.fast_forward);

  // 2. Branch-branch merge at their fork point; w's suffix holds the
  //    merge frame of step 1.
  CommitEdits(&store, "x", 1, 301);
  merged = Merge(&store, "w", "x", {}, &stats);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(stats.base_a, 0u);
  EXPECT_FALSE(stats.fast_forward);

  // 3. A second main-w merge, through their step-1 sync point.
  CommitEdits(&store, "main", 1, 401);
  CommitEdits(&store, "w", 1, 501);
  merged = Merge(&store, "main", "w", {}, &stats);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_NE(stats.base_a, 0u);
  EXPECT_FALSE(stats.fast_forward);

  // 4. Five-version rollback across both mainline merge frames.
  uint64_t head = store.head();
  ASSERT_EQ(head, 7u);
  auto rolled = store.Rollback(head - 5);
  ASSERT_TRUE(rolled.ok()) << rolled.status();
  auto rolled_xml = store.CheckoutXml(*rolled);
  auto target_xml = store.CheckoutXml(head - 5);
  ASSERT_TRUE(rolled_xml.ok() && target_xml.ok());
  EXPECT_EQ(*rolled_xml, *target_xml);

  // 5. Rebase of a fresh branch onto a newer mainline head.
  ASSERT_TRUE(store.CreateBranch("r", "main", store.head()).ok());
  CommitEdits(&store, "r", 2, 601);
  CommitEdits(&store, "main", 1, 701);
  RebaseOptions rebase_options;
  rebase_options.onto = store.head();
  rebase_options.skip_conflicting = true;
  auto rebased = Rebase(&store, "r", rebase_options);
  ASSERT_TRUE(rebased.ok()) << rebased.status();
  EXPECT_TRUE(rebased->applied);

  auto verified = store.Verify();
  ASSERT_TRUE(verified.ok()) << verified.status();
  ASSERT_TRUE(store.Close().ok());

  // Recorded from the store this scenario produced before the merge
  // path reused base checkouts and computed undo chains in one pass.
  const std::vector<FileDigest> expected = {
      {"branch-r.log", 1016, 0x79c374cfu},
      {"branch-w.log", 18754, 0xf3d13279u},
      {"branch-x.log", 3960, 0x568ac762u},
      {"branches.log", 220, 0xc025674cu},
      {"snap-00000000000000000000.snap", 12498, 0xe54eb0b5u},
      {"snap-00000000000000000003.snap", 12940, 0x8b640473u},
      {"snap-00000000000000000006.snap", 13172, 0x3ce3e052u},
      {"snap-00000000000000000009.snap", 13172, 0xd77353afu},
      {"snap-00000000000000000012.snap", 12662, 0xb52b5c7au},
      {"snap-00000000000000000015.snap", 12950, 0xfffd9337u},
      {"snap-00000000000000000018.snap", 12948, 0xf269943du},
      {"wal.log", 20088, 0xf26a8aafu},
  };
  std::vector<FileDigest> got = Digests(path);
  std::string table;
  for (const FileDigest& d : got) {
    char line[160];
    std::snprintf(line, sizeof(line), "      {\"%s\", %llu, 0x%08xu},\n",
                  d.name.c_str(), static_cast<unsigned long long>(d.size),
                  d.crc);
    table += line;
  }
  ASSERT_EQ(got.size(), expected.size()) << table;
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(got[i].name);
    EXPECT_EQ(got[i].name, expected[i].name);
    EXPECT_EQ(got[i].size, expected[i].size);
    EXPECT_EQ(got[i].crc, expected[i].crc) << table;
  }
}

}  // namespace
}  // namespace xupdate::branch
