// Differential test of the store's one journal type: the mainline and a
// branch forked from it at version 0 are given the same commits and
// the same kind of merges, and must then answer every per-version
// question alike — checkouts, PUL ranges, log entries and Verify counts.
// The mainline answers from its snapshot checkpoints, the branch by
// replaying from its fork point, so the two histories reach each
// version along different paths.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "branch/merge.h"
#include "label/labeling.h"
#include "pul/pul_io.h"
#include "store/version.h"
#include "workload/pul_generator.h"
#include "xmark/generator.h"

namespace xupdate::branch {
namespace {

namespace fs = std::filesystem;
using store::VersionStore;

constexpr uint64_t kIdBlock = 1 << 16;

class JournalEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xupdate_journal_equivalence_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  // Commits `count` generated PULs, each one to every branch in `twins`
  // (whose heads must be equal documents).
  void CommitToBoth(VersionStore* store, const std::vector<std::string>& twins,
                    size_t count, uint64_t seed) {
    for (size_t i = 0; i < count; ++i) {
      auto doc = store->BranchHeadDoc(twins.front());
      ASSERT_TRUE(doc.ok()) << doc.status();
      label::Labeling labeling = label::Labeling::Build(**doc);
      workload::PulGenerator gen(**doc, labeling, seed + i);
      workload::PulGenerator::PulOptions options;
      options.num_ops = 4;
      options.id_base = next_id_base_;
      next_id_base_ += kIdBlock;
      auto pul = gen.Generate(options);
      ASSERT_TRUE(pul.ok()) << pul.status();
      for (const std::string& branch : twins) {
        auto version = store->CommitOnBranch(branch, *pul);
        ASSERT_TRUE(version.ok()) << branch << ": " << version.status();
      }
    }
  }

  void MergeBoth(VersionStore* store, bool expect_fast_forward) {
    for (const auto& [a, b] : {std::pair<std::string, std::string>{"main", "x"},
                               {"b", "y"}}) {
      MergeStats stats;
      auto merged = Merge(store, a, b, {}, &stats);
      ASSERT_TRUE(merged.ok()) << a << "+" << b << ": " << merged.status();
      EXPECT_EQ(stats.fast_forward, expect_fast_forward) << a << "+" << b;
    }
  }

  fs::path dir_;
  uint64_t next_id_base_ = 0;
};

TEST_F(JournalEquivalenceTest, MainlineAndBranchAnswerAlike) {
  xmark::Config config;
  config.target_bytes = 8192;
  auto xml = xmark::GenerateDocumentText(config);
  ASSERT_TRUE(xml.ok()) << xml.status();
  std::string path = (dir_ / "store").string();
  store::StoreOptions options;
  options.fsync = store::FsyncPolicy::kNever;
  options.snapshot_every = 2;
  ASSERT_TRUE(VersionStore::Init(path, *xml, options).ok());
  auto opened = VersionStore::Open(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  VersionStore& store = *opened;
  next_id_base_ =
      ((store.head_doc().max_assigned_id() / kIdBlock) + 1) * kIdBlock;
  // b mirrors main; y (forked from b) mirrors x (forked from main).
  ASSERT_TRUE(store.CreateBranch("b", "main", 0).ok());
  ASSERT_TRUE(store.CreateBranch("x", "main", 0).ok());
  ASSERT_TRUE(store.CreateBranch("y", "b", 0).ok());

  // A full merge: merge frames on both sides of both pairs.
  CommitToBoth(&store, {"main", "b"}, 3, 101);
  CommitToBoth(&store, {"x", "y"}, 1, 201);
  MergeBoth(&store, /*expect_fast_forward=*/false);
  // A fast-forward through the pairs' sync point: a merge frame on the
  // mainline and on b only.
  CommitToBoth(&store, {"x", "y"}, 2, 301);
  MergeBoth(&store, /*expect_fast_forward=*/true);
  CommitToBoth(&store, {"main", "b"}, 2, 401);

  const uint64_t head = store.head();
  auto info = store.GetBranch("b");
  ASSERT_TRUE(info.ok()) << info.status();
  ASSERT_EQ(info->head, head);
  ASSERT_EQ(head, 7u);

  for (uint64_t v = 0; v <= head; ++v) {
    SCOPED_TRACE("version " + std::to_string(v));
    auto main_xml = store.CheckoutXml(v);
    auto branch_xml = store.CheckoutXmlBranch("b", v);
    ASSERT_TRUE(main_xml.ok()) << main_xml.status();
    ASSERT_TRUE(branch_xml.ok()) << branch_xml.status();
    EXPECT_EQ(*main_xml, *branch_xml);
    if (v == 0) continue;
    auto main_puls = store.RangePuls("main", v - 1, v);
    auto branch_puls = store.RangePuls("b", v - 1, v);
    ASSERT_TRUE(main_puls.ok()) << main_puls.status();
    ASSERT_TRUE(branch_puls.ok()) << branch_puls.status();
    ASSERT_EQ(main_puls->size(), branch_puls->size());
    for (size_t i = 0; i < main_puls->size(); ++i) {
      auto main_text = pul::SerializePul((*main_puls)[i]);
      auto branch_text = pul::SerializePul((*branch_puls)[i]);
      ASSERT_TRUE(main_text.ok() && branch_text.ok());
      EXPECT_EQ(*main_text, *branch_text) << "chain member " << i;
    }
  }

  auto main_log = store.LogBranch("main", /*with_op_counts=*/true);
  auto branch_log = store.LogBranch("b", /*with_op_counts=*/true);
  ASSERT_TRUE(main_log.ok()) << main_log.status();
  ASSERT_TRUE(branch_log.ok()) << branch_log.status();
  ASSERT_FALSE(branch_log->empty());
  EXPECT_EQ(branch_log->front().type, store::FrameType::kBranchMeta);
  ASSERT_EQ(main_log->size() + 1, branch_log->size());
  size_t merge_frames = 0;
  for (size_t i = 0; i < main_log->size(); ++i) {
    const store::LogEntry& m = (*main_log)[i];
    const store::LogEntry& b = (*branch_log)[i + 1];
    SCOPED_TRACE("frame " + std::to_string(i));
    EXPECT_EQ(m.type, b.type);
    EXPECT_EQ(m.version, b.version);
    EXPECT_EQ(m.aux, b.aux);
    EXPECT_EQ(m.ops, b.ops);
    EXPECT_GT(m.ops, 0u);
    if (m.type == store::FrameType::kMerge) ++merge_frames;
  }
  EXPECT_EQ(merge_frames, 2u);

  auto report = store.Verify();
  ASSERT_TRUE(report.ok()) << report.status();
  const store::BranchVerifyResult* branch = nullptr;
  for (const store::BranchVerifyResult& result : report->branches) {
    if (result.name == "b") branch = &result;
  }
  ASSERT_NE(branch, nullptr);
  EXPECT_EQ(report->frames + 1, branch->frames);
  EXPECT_EQ(report->head, branch->head);
  EXPECT_EQ(report->replayed_versions, branch->replayed_versions);
  EXPECT_EQ(report->merges_checked, branch->merges_checked);
  EXPECT_EQ(report->merges_checked, 2u);
  EXPECT_GT(report->snapshots_checked, 1u);
}

}  // namespace
}  // namespace xupdate::branch
