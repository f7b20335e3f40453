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

  static store::StoreOptions Options() {
    store::StoreOptions options;
    options.fsync = store::FsyncPolicy::kNever;
    options.snapshot_every = 3;
    return options;
  }

  // The scenario both tests pin: three merges, a five-version rollback
  // across both mainline merge frames and a rebase. Leaves the store at
  // `path` verified and closed.
  void RunScenario(const std::string& path) {
    xmark::Config config;
    config.target_bytes = 8192;
    auto xml = xmark::GenerateDocumentText(config);
    ASSERT_TRUE(xml.ok()) << xml.status();
    ASSERT_TRUE(VersionStore::Init(path, *xml, Options()).ok());
    auto opened = VersionStore::Open(path, Options());
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
  }

  fs::path dir_;
  uint64_t next_id_base_ = 0;
};

TEST_F(MergeGoldenTest, StoreFilesArePinnedAfterMergesRollbackAndRebase) {
  std::string path = (dir_ / "store").string();
  ASSERT_NO_FATAL_FAILURE(RunScenario(path));

  // Recorded from the store this scenario produced before the merge
  // path reused base checkouts and computed undo chains in one pass;
  // the snap-* rows since checkpoints became document images (the
  // checkout bytes of every version, pinned below, did not change).
  const std::vector<FileDigest> expected = {
      {"branch-r.log", 1016, 0x79c374cfu},
      {"branch-w.log", 18754, 0xf3d13279u},
      {"branch-x.log", 3960, 0x568ac762u},
      {"branches.log", 220, 0xc025674cu},
      {"snap-00000000000000000000.snap", 5652, 0xfe2342a3u},
      {"snap-00000000000000000003.snap", 5829, 0x298a38cfu},
      {"snap-00000000000000000006.snap", 5907, 0x6bb6cfecu},
      {"snap-00000000000000000009.snap", 5907, 0x006cc069u},
      {"snap-00000000000000000012.snap", 5724, 0x5c3cf7bdu},
      {"snap-00000000000000000015.snap", 5830, 0xe887bc86u},
      {"snap-00000000000000000018.snap", 5832, 0x169a0b92u},
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

// The bytes CheckoutXml gives at every version of every journal of the
// scenario's store, reopened from disk, so every mainline version is
// read through a checkpoint. Pinned independently of the checkpoint
// format: the snap-* rows above change with it, these must not.
TEST_F(MergeGoldenTest, CheckoutBytesArePinnedAtEveryVersion) {
  std::string path = (dir_ / "store").string();
  ASSERT_NO_FATAL_FAILURE(RunScenario(path));
  auto opened = VersionStore::Open(path, Options());
  ASSERT_TRUE(opened.ok()) << opened.status();
  struct VersionDigest {
    std::string branch;
    uint64_t version;
    uint64_t size;
    uint32_t crc;
  };
  // Recorded with the XUSNP001 (annotated XML) checkpoints.
  const std::vector<VersionDigest> expected = {
      {"main", 0, 12465, 0xad04a6bdu},
      {"main", 1, 12629, 0xe2ff9da1u},
      {"main", 2, 12772, 0x23c6708fu},
      {"main", 3, 12907, 0x9ec9ed91u},
      {"main", 4, 12917, 0xa441dc82u},
      {"main", 5, 13056, 0xadd8374eu},
      {"main", 6, 13139, 0xdac83712u},
      {"main", 7, 13095, 0x2bd7a36fu},
      {"main", 8, 13056, 0xadd8374eu},
      {"main", 9, 13139, 0xdac83712u},
      {"main", 10, 13056, 0xadd8374eu},
      {"main", 11, 12465, 0xad04a6bdu},
      {"main", 12, 12629, 0xe2ff9da1u},
      {"main", 13, 12772, 0x23c6708fu},
      {"main", 14, 12907, 0x9ec9ed91u},
      {"main", 15, 12917, 0xa441dc82u},
      {"main", 16, 12907, 0x9ec9ed91u},
      {"main", 17, 12772, 0x23c6708fu},
      {"main", 18, 12915, 0x26845b92u},
      {"r", 18, 12915, 0x26845b92u},
      {"r", 19, 12701, 0x10d4650fu},
      {"r", 20, 12654, 0x9c54490cu},
      {"w", 0, 12465, 0xad04a6bdu},
      {"w", 1, 12604, 0xc61113e3u},
      {"w", 2, 13056, 0xadd8374eu},
      {"w", 3, 13097, 0x3f6f0daau},
      {"w", 4, 12975, 0xc1843d5cu},
      {"w", 5, 13095, 0x2bd7a36fu},
      {"x", 0, 12465, 0xad04a6bdu},
      {"x", 1, 12498, 0x4d145888u},
      {"x", 2, 13097, 0x3f6f0daau},
  };
  std::vector<VersionDigest> got;
  std::vector<std::string> names = {"main"};
  for (const std::string& name : opened->BranchNames()) {
    names.push_back(name);
  }
  for (const std::string& name : names) {
    auto info = opened->GetBranch(name);
    ASSERT_TRUE(info.ok()) << info.status();
    for (uint64_t v = info->fork; v <= info->head; ++v) {
      auto xml = opened->CheckoutXmlBranch(name, v);
      ASSERT_TRUE(xml.ok()) << name << "@" << v << ": " << xml.status();
      got.push_back({name, v, xml->size(), Crc32c(*xml)});
    }
  }
  std::string table;
  for (const VersionDigest& d : got) {
    char line[160];
    std::snprintf(line, sizeof(line), "      {\"%s\", %llu, %llu, 0x%08xu},\n",
                  d.branch.c_str(), static_cast<unsigned long long>(d.version),
                  static_cast<unsigned long long>(d.size), d.crc);
    table += line;
  }
  ASSERT_EQ(got.size(), expected.size()) << table;
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(got[i].branch + "@" + std::to_string(got[i].version));
    EXPECT_EQ(got[i].branch, expected[i].branch);
    EXPECT_EQ(got[i].version, expected[i].version);
    EXPECT_EQ(got[i].size, expected[i].size);
    EXPECT_EQ(got[i].crc, expected[i].crc) << table;
  }
  ASSERT_TRUE(opened->Close().ok());
}

}  // namespace
}  // namespace xupdate::branch
