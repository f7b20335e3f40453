#include "branch/merge.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "label/labeling.h"
#include "store/version.h"
#include "testing/test_docs.h"
#include "workload/pul_generator.h"
#include "xmark/generator.h"

namespace xupdate::branch {
namespace {

namespace fs = std::filesystem;
using store::BranchInfo;
using store::MergeCommitResult;
using store::VersionStore;

class BranchMergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xupdate_branch_merge_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
    base_doc_ = xupdate::testing::PaperFigureDocument();
    auto xml = VersionStore::SerializeAnnotated(base_doc_);
    ASSERT_TRUE(xml.ok());
    base_xml_ = *xml;
  }

  void TearDown() override { fs::remove_all(dir_); }

  std::string StoreDir(const std::string& name = "store") {
    return (dir_ / name).string();
  }

  VersionStore MakeStore(const std::string& name = "store") {
    auto init = VersionStore::Init(StoreDir(name), base_xml_);
    EXPECT_TRUE(init.ok()) << init;
    auto store = VersionStore::Open(StoreDir(name));
    EXPECT_TRUE(store.ok()) << store.status();
    return std::move(*store);
  }

  // repV on text node 15, distinguishable per round.
  pul::Pul RepVPul(const xml::Document& doc, int round) {
    label::Labeling labeling = label::Labeling::Build(doc);
    pul::Pul p;
    p.BindIdSpace(doc.max_assigned_id() + 1 +
                  static_cast<xml::NodeId>(round) * 1000);
    EXPECT_TRUE(p.AddStringOp(pul::OpKind::kReplaceValue, 15, labeling,
                              "value round " + std::to_string(round))
                    .ok());
    return p;
  }

  // Fresh element inserted after node 19.
  pul::Pul InsertPul(const xml::Document& doc, int round) {
    label::Labeling labeling = label::Labeling::Build(doc);
    pul::Pul p;
    p.BindIdSpace(doc.max_assigned_id() + 1 +
                  static_cast<xml::NodeId>(round) * 1000);
    auto frag = p.AddFragment("<note>round " + std::to_string(round) +
                              "</note>");
    EXPECT_TRUE(frag.ok());
    EXPECT_TRUE(
        p.AddTreeOp(pul::OpKind::kInsAfter, 19, labeling, {*frag}).ok());
    return p;
  }

  // Byte state of a branch head through the store replay path.
  std::string HeadBytes(const VersionStore& store, const std::string& name) {
    auto info = store.GetBranch(name);
    EXPECT_TRUE(info.ok()) << info.status();
    auto bytes = store.CheckoutXmlBranch(name, info->head);
    EXPECT_TRUE(bytes.ok()) << bytes.status();
    return *bytes;
  }

  fs::path dir_;
  xml::Document base_doc_;
  std::string base_xml_;
};

TEST_F(BranchMergeTest, CreateBranchIsolatesCommits) {
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.Commit(RepVPul(store.head_doc(), 1)).ok());
  ASSERT_TRUE(store.CreateBranch("w", "main", store.head()).ok());
  auto doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(doc.ok());
  auto commit = store.CommitOnBranch("w", InsertPul(**doc, 2));
  ASSERT_TRUE(commit.ok()) << commit.status();
  EXPECT_EQ(*commit, 2u);  // extends main's numbering past fork = 1
  EXPECT_EQ(store.head(), 1u);
  auto info = store.GetBranch("w");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->parent, "main");
  EXPECT_EQ(info->fork, 1u);
  EXPECT_EQ(info->head, 2u);
  // Versions at or below the fork resolve through the parent chain.
  auto at_fork = store.CheckoutXmlBranch("w", 1);
  auto main_at_1 = store.CheckoutXml(1);
  ASSERT_TRUE(at_fork.ok());
  ASSERT_TRUE(main_at_1.ok());
  EXPECT_EQ(*at_fork, *main_at_1);
  EXPECT_NE(HeadBytes(store, "w"), *main_at_1);
  EXPECT_EQ(store.BranchNames(), std::vector<std::string>{"w"});
}

TEST_F(BranchMergeTest, CreateBranchRejectsBadNames) {
  VersionStore store = MakeStore();
  EXPECT_FALSE(store.CreateBranch("main", "main", 0).ok());
  EXPECT_FALSE(store.CreateBranch("has space", "main", 0).ok());
  EXPECT_FALSE(store.CreateBranch("", "main", 0).ok());
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  EXPECT_FALSE(store.CreateBranch("w", "main", 0).ok());  // duplicate
  EXPECT_FALSE(store.CreateBranch("x", "main", 7).ok());  // beyond head
  EXPECT_FALSE(store.CreateBranch("y", "nope", 0).ok());  // no parent
}

TEST_F(BranchMergeTest, FastForwardMergePullsBranchIntoMain) {
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  auto doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(store.CommitOnBranch("w", RepVPul(**doc, 1)).ok());
  doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", InsertPul(**doc, 2)).ok());
  MergeStats stats;
  auto result = Merge(&store, "main", "w", {}, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(stats.fast_forward);
  EXPECT_FALSE(stats.no_op);
  EXPECT_TRUE(result->committed_a);   // main took the frames
  EXPECT_FALSE(result->committed_b);  // w was already there
  EXPECT_EQ(HeadBytes(store, "main"), HeadBytes(store, "w"));
  // Nothing diverged since: merging again is a no-op.
  MergeStats again;
  auto noop = Merge(&store, "main", "w", {}, &again);
  ASSERT_TRUE(noop.ok());
  EXPECT_TRUE(again.no_op);
  EXPECT_FALSE(noop->committed_a);
  EXPECT_FALSE(noop->committed_b);
}

TEST_F(BranchMergeTest, FullMergeConvergesBothSides) {
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  ASSERT_TRUE(store.Commit(InsertPul(store.head_doc(), 1)).ok());
  auto doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", RepVPul(**doc, 2)).ok());
  MergeStats stats;
  auto result = Merge(&store, "main", "w", {}, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(stats.fast_forward);
  EXPECT_EQ(stats.suffix_a, 1u);
  EXPECT_EQ(stats.suffix_b, 1u);
  EXPECT_TRUE(result->committed_a);
  EXPECT_TRUE(result->committed_b);
  std::string merged = HeadBytes(store, "main");
  EXPECT_EQ(merged, HeadBytes(store, "w"));
  // Both edits reached the merged state.
  EXPECT_NE(merged.find("round 1"), std::string::npos);
  EXPECT_NE(merged.find("value round 2"), std::string::npos);
  // The sync became the pair's merge base.
  auto base = store.MergeBase("main", "w");
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->base_a, store.head());
  auto info = store.GetBranch("w");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(base->base_b, info->head);
}

TEST_F(BranchMergeTest, PhaseTimersAndBaseCheckouts) {
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  const char* phases[] = {"branch.merge.base_checkout.seconds",
                          "branch.merge.fold.seconds",
                          "branch.merge.reconcile.seconds",
                          "branch.merge.undo.seconds"};
  // Round 1 merges at the fork point (both bases are main's version 0:
  // one checkout); round 2 merges through the round-1 sync point (one
  // base on each journal: two checkouts).
  for (int round = 1; round <= 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ASSERT_TRUE(store.Commit(InsertPul(store.head_doc(), 2 * round)).ok());
    auto doc = store.BranchHeadDoc("w");
    ASSERT_TRUE(
        store.CommitOnBranch("w", RepVPul(**doc, 2 * round + 1)).ok());
    Metrics metrics;
    MergeOptions options;
    options.metrics = &metrics;
    MergeStats stats;
    auto result = Merge(&store, "main", "w", options, &stats);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_FALSE(stats.fast_forward);
    EXPECT_EQ(stats.base_a == 0, round == 1);
    EXPECT_EQ(metrics.counter("branch.merge.base_checkouts"),
              round == 1 ? 1u : 2u);
    double phase_sum = 0.0;
    for (const char* phase : phases) {
      EXPECT_EQ(metrics.timer(phase).count, 1u) << phase;
      phase_sum += metrics.total_seconds(phase);
    }
    EXPECT_LE(phase_sum, metrics.total_seconds("branch.merge.seconds"));
    EXPECT_EQ(HeadBytes(store, "main"), HeadBytes(store, "w"));
  }
}

// Two branches forked from main's head merge on a base that is main's
// resident head: nothing is checked out. Once main has moved past the
// fork, the same base is checked out once. The merge reads the same
// base document either way, so both stores end byte-identical.
TEST_F(BranchMergeTest, HeadBaseIsBorrowedNotCheckedOut) {
  std::string merged[2];
  for (int main_moved = 0; main_moved <= 1; ++main_moved) {
    SCOPED_TRACE(main_moved ? "main moved" : "main at the fork");
    VersionStore store = MakeStore("store" + std::to_string(main_moved));
    ASSERT_TRUE(store.CreateBranch("x", "main", 0).ok());
    ASSERT_TRUE(store.CreateBranch("y", "main", 0).ok());
    auto x_doc = store.BranchHeadDoc("x");
    ASSERT_TRUE(store.CommitOnBranch("x", InsertPul(**x_doc, 1)).ok());
    auto y_doc = store.BranchHeadDoc("y");
    ASSERT_TRUE(store.CommitOnBranch("y", RepVPul(**y_doc, 2)).ok());
    if (main_moved) {
      ASSERT_TRUE(store.Commit(RepVPul(store.head_doc(), 3)).ok());
    }
    Metrics metrics;
    MergeOptions options;
    options.metrics = &metrics;
    MergeStats stats;
    auto result = Merge(&store, "x", "y", options, &stats);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_FALSE(stats.fast_forward);
    EXPECT_EQ(metrics.counter("branch.merge.base_checkouts"),
              main_moved ? 1u : 0u);
    merged[main_moved] = HeadBytes(store, "x");
    EXPECT_EQ(merged[main_moved], HeadBytes(store, "y"));
  }
  EXPECT_EQ(merged[0], merged[1]);
}

TEST_F(BranchMergeTest, RollbackAcrossAFullMergeCommitsTheUndoChain) {
  // Main's merge frame undoes main's own insert and the merge PUL
  // re-inserts the same node under the same id. Rolling main back to
  // just before the merge deletes it and re-creates it under that id
  // again, which no single PUL expresses (insertions apply before
  // deletions): the verified fold fails and the chain is committed,
  // one version per undo, landing exactly on the old version.
  ASSERT_TRUE(VersionStore::Init(StoreDir(), base_xml_).ok());
  Metrics metrics;
  store::StoreOptions store_options;
  store_options.metrics = &metrics;
  auto opened = VersionStore::Open(StoreDir(), store_options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  VersionStore& store = *opened;
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  ASSERT_TRUE(store.Commit(InsertPul(store.head_doc(), 1)).ok());
  auto doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", RepVPul(**doc, 2)).ok());
  MergeStats stats;
  ASSERT_TRUE(Merge(&store, "main", "w", {}, &stats).ok());
  ASSERT_FALSE(stats.fast_forward);
  ASSERT_EQ(store.head(), 2u);
  auto before_merge = store.CheckoutXml(1);
  ASSERT_TRUE(before_merge.ok());
  auto rolled = store.Rollback(1);
  ASSERT_TRUE(rolled.ok()) << rolled.status();
  EXPECT_EQ(metrics.counter("store.rollback.chain_fallback"), 1u);
  EXPECT_GT(*rolled, 3u);  // more than one commit: the chain itself
  auto head = store.CheckoutXml(store.head());
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(*head, *before_merge);
  auto verified = store.Verify();
  ASSERT_TRUE(verified.ok()) << verified.status();
}

TEST_F(BranchMergeTest, ConflictingEditsAutoResolve) {
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  ASSERT_TRUE(store.Commit(RepVPul(store.head_doc(), 1)).ok());
  auto doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", RepVPul(**doc, 2)).ok());
  MergeStats stats;
  auto result = Merge(&store, "main", "w", {}, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(stats.reconcile.conflicts_total, 1u);
  // Keep-one resolution: the losing repV was excluded by policy.
  EXPECT_GE(stats.reconcile.operations_excluded, 1u);
  EXPECT_EQ(HeadBytes(store, "main"), HeadBytes(store, "w"));
}

TEST_F(BranchMergeTest, MergeIsSymmetricInArgumentOrder) {
  // Two stores, same divergence, opposite argument order: keep-one
  // resolution must pick the same side (inputs are name-ordered).
  std::string merged_ab, merged_ba;
  for (int flip = 0; flip < 2; ++flip) {
    std::string name = flip == 0 ? "ab" : "ba";
    VersionStore store = MakeStore(name);
    ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
    ASSERT_TRUE(store.Commit(RepVPul(store.head_doc(), 1)).ok());
    auto doc = store.BranchHeadDoc("w");
    ASSERT_TRUE(store.CommitOnBranch("w", RepVPul(**doc, 2)).ok());
    auto result = flip == 0 ? Merge(&store, "main", "w")
                            : Merge(&store, "w", "main");
    ASSERT_TRUE(result.ok()) << result.status();
    (flip == 0 ? merged_ab : merged_ba) = HeadBytes(store, "main");
  }
  EXPECT_EQ(merged_ab, merged_ba);
}

TEST_F(BranchMergeTest, RepeatedSyncsUseLastSyncAsBase) {
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  for (int round = 1; round <= 3; ++round) {
    ASSERT_TRUE(
        store.Commit(InsertPul(store.head_doc(), 2 * round)).ok());
    auto doc = store.BranchHeadDoc("w");
    ASSERT_TRUE(
        store.CommitOnBranch("w", RepVPul(**doc, 2 * round + 1)).ok());
    MergeStats stats;
    auto result = Merge(&store, "main", "w", {}, &stats);
    ASSERT_TRUE(result.ok()) << result.status();
    // Each round diverges by exactly one PUL per side off the last sync.
    EXPECT_EQ(stats.suffix_a, 1u) << "round " << round;
    EXPECT_EQ(stats.suffix_b, 1u) << "round " << round;
    EXPECT_EQ(HeadBytes(store, "main"), HeadBytes(store, "w"));
  }
}

TEST_F(BranchMergeTest, BranchOfBranchMerges) {
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  auto doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", RepVPul(**doc, 1)).ok());
  auto info = store.GetBranch("w");
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(store.CreateBranch("w-sub", "w", info->head).ok());
  doc = store.BranchHeadDoc("w-sub");
  ASSERT_TRUE(store.CommitOnBranch("w-sub", InsertPul(**doc, 2)).ok());
  doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", InsertPul(**doc, 3)).ok());
  auto result = Merge(&store, "w", "w-sub");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(HeadBytes(store, "w"), HeadBytes(store, "w-sub"));
}

TEST_F(BranchMergeTest, MergeStatePersistsAcrossReopen) {
  std::string main_bytes, w_bytes;
  {
    VersionStore store = MakeStore();
    ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
    ASSERT_TRUE(store.Commit(InsertPul(store.head_doc(), 1)).ok());
    auto doc = store.BranchHeadDoc("w");
    ASSERT_TRUE(store.CommitOnBranch("w", RepVPul(**doc, 2)).ok());
    ASSERT_TRUE(Merge(&store, "main", "w").ok());
    main_bytes = HeadBytes(store, "main");
    w_bytes = HeadBytes(store, "w");
    ASSERT_TRUE(store.Close().ok());
  }
  store::OpenReport report;
  auto reopened = VersionStore::Open(StoreDir(), {}, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(report.branches, 1u);
  EXPECT_EQ(report.merges_rolled_back, 0u);
  EXPECT_EQ(HeadBytes(*reopened, "main"), main_bytes);
  EXPECT_EQ(HeadBytes(*reopened, "w"), w_bytes);
  // A later merge still finds the committed sync as its base.
  auto base = reopened->MergeBase("main", "w");
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->base_a, reopened->head());
  auto verified = reopened->Verify();
  ASSERT_TRUE(verified.ok()) << verified.status();
  EXPECT_GE(verified->merges_checked, 1u);
  ASSERT_EQ(verified->branches.size(), 1u);
  EXPECT_EQ(verified->branches[0].name, "w");
  EXPECT_GE(verified->branches[0].merges_checked, 1u);
}

TEST_F(BranchMergeTest, PoliciesRoundTripThroughJournal) {
  pul::Policies policies;
  policies.preserve_inserted_data = true;
  policies.preserve_insertion_order = true;
  {
    VersionStore store = MakeStore();
    ASSERT_TRUE(store.CreateBranch("w", "main", 0, policies).ok());
    ASSERT_TRUE(store.Close().ok());
  }
  auto reopened = VersionStore::Open(StoreDir());
  ASSERT_TRUE(reopened.ok());
  auto info = reopened->GetBranch("w");
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->policies.preserve_inserted_data);
  EXPECT_TRUE(info->policies.preserve_insertion_order);
  EXPECT_FALSE(info->policies.preserve_removed_data);
}

TEST_F(BranchMergeTest, GeneratedXmarkEditsMergeIdenticallyOnBothSides) {
  // Seeded generator edits on an XMark document, one per side: the full
  // merge must land both sides on the same bytes.
  xmark::Config config;
  config.target_bytes = 4096;
  auto xml = xmark::GenerateDocumentText(config);
  ASSERT_TRUE(xml.ok());
  base_xml_ = *xml;
  // The paper-figure node ids mean nothing here; generate the edits
  // against the XMark document itself.
  auto xmark_edit = [](const xml::Document& doc, uint64_t seed,
                       uint64_t id_base) {
    label::Labeling labeling = label::Labeling::Build(doc);
    workload::PulGenerator gen(doc, labeling, seed);
    workload::PulGenerator::PulOptions pul_options;
    pul_options.num_ops = 3;
    pul_options.id_base = id_base;
    auto pul = gen.Generate(pul_options);
    EXPECT_TRUE(pul.ok()) << pul.status();
    return *pul;
  };
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  uint64_t id_base = store.head_doc().max_assigned_id() + 1;
  ASSERT_TRUE(store.Commit(xmark_edit(store.head_doc(), 11, id_base)).ok());
  auto doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(
      store.CommitOnBranch("w", xmark_edit(**doc, 22, id_base + (1 << 16)))
          .ok());
  MergeStats stats;
  auto result = Merge(&store, "main", "w", {}, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(stats.fast_forward);
  EXPECT_EQ(HeadBytes(store, "main"), HeadBytes(store, "w"));
}

TEST_F(BranchMergeTest, LogBranchReportsOpCountsAndMergeFrames) {
  VersionStore store = MakeStore();
  ASSERT_TRUE(store.CreateBranch("w", "main", 0).ok());
  ASSERT_TRUE(store.Commit(InsertPul(store.head_doc(), 1)).ok());
  auto doc = store.BranchHeadDoc("w");
  ASSERT_TRUE(store.CommitOnBranch("w", RepVPul(**doc, 2)).ok());
  ASSERT_TRUE(Merge(&store, "main", "w").ok());
  auto log = store.LogBranch("w", /*with_op_counts=*/true);
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_EQ(log->size(), 3u);  // meta, commit, merge
  EXPECT_EQ((*log)[0].type, store::FrameType::kBranchMeta);
  EXPECT_EQ((*log)[1].type, store::FrameType::kPul);
  EXPECT_EQ((*log)[1].ops, 1u);
  EXPECT_EQ((*log)[2].type, store::FrameType::kMerge);
  EXPECT_GE((*log)[2].ops, 1u);  // undo chain + merge PUL
  auto main_log = store.LogBranch("main", /*with_op_counts=*/true);
  ASSERT_TRUE(main_log.ok());
  ASSERT_EQ(main_log->size(), 2u);  // commit, merge
  EXPECT_EQ((*main_log)[1].type, store::FrameType::kMerge);
}

}  // namespace
}  // namespace xupdate::branch
