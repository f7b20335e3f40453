// UndoChainFrom against the per-version undo formula it replaces: for
// every version v of a range, newest first, ComputeUndo of v's PUL
// against a fresh CheckoutBranch(branch, v - 1) — and for a merge frame
// one undo per chain member, each against the state the members before
// it produced. The forward pass must yield the same PULs byte for byte.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "branch/merge.h"
#include "core/invert.h"
#include "label/labeling.h"
#include "pul/apply.h"
#include "pul/pul_io.h"
#include "store/version.h"
#include "testing/test_docs.h"
#include "workload/pul_generator.h"
#include "xmark/generator.h"

namespace xupdate::store {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kIdBlock = 1 << 16;

class UndoChainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xupdate_undo_chain_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  void CommitEdits(VersionStore* store, const std::string& branch,
                   size_t count, uint64_t seed) {
    for (size_t i = 0; i < count; ++i) {
      auto doc = store->BranchHeadDoc(branch);
      ASSERT_TRUE(doc.ok()) << doc.status();
      label::Labeling labeling = label::Labeling::Build(**doc);
      workload::PulGenerator gen(**doc, labeling, seed + i);
      workload::PulGenerator::PulOptions options;
      options.num_ops = 5;
      options.id_base = next_id_base_;
      next_id_base_ += kIdBlock;
      auto pul = gen.Generate(options);
      ASSERT_TRUE(pul.ok()) << pul.status();
      auto version = store->CommitOnBranch(branch, *pul);
      ASSERT_TRUE(version.ok()) << branch << ": " << version.status();
    }
  }

  // The per-version formula, written out. Sets *saw_merge when some
  // version in the range expands to more than one PUL (a merge frame).
  std::vector<std::string> OracleUndos(const VersionStore& store,
                                       const std::string& branch,
                                       uint64_t from, uint64_t to,
                                       bool* saw_merge) {
    std::vector<std::string> out;
    for (uint64_t v = to; v > from; --v) {
      auto pre = store.CheckoutBranch(branch, v - 1);
      EXPECT_TRUE(pre.ok()) << pre.status();
      auto members = store.RangePuls(branch, v - 1, v);
      EXPECT_TRUE(members.ok()) << members.status();
      if (!pre.ok() || !members.ok()) return out;
      if (members->size() > 1) *saw_merge = true;
      xml::Document state = std::move(*pre);
      std::vector<std::string> undos_v;
      for (const pul::Pul& member : *members) {
        auto undo =
            VersionStore::ComputeUndo(state, member, StoreOptions());
        EXPECT_TRUE(undo.ok()) << undo.status();
        if (!undo.ok()) return out;
        auto bytes = pul::SerializePul(*undo);
        EXPECT_TRUE(bytes.ok()) << bytes.status();
        undos_v.push_back(*bytes);
        EXPECT_TRUE(pul::ApplyPul(&state, member).ok());
      }
      out.insert(out.end(), undos_v.rbegin(), undos_v.rend());
    }
    return out;
  }

  std::vector<std::string> ForwardUndos(const VersionStore& store,
                                        const std::string& branch,
                                        uint64_t from, uint64_t to) {
    std::vector<std::string> out;
    auto base = store.CheckoutBranch(branch, from);
    EXPECT_TRUE(base.ok()) << base.status();
    auto puls = store.RangePuls(branch, from, to);
    EXPECT_TRUE(puls.ok()) << puls.status();
    if (!base.ok() || !puls.ok()) return out;
    auto undos = store.UndoChainFrom(*base, *puls);
    EXPECT_TRUE(undos.ok()) << undos.status();
    if (!undos.ok()) return out;
    for (const pul::Pul& undo : *undos) {
      auto bytes = pul::SerializePul(undo);
      EXPECT_TRUE(bytes.ok()) << bytes.status();
      out.push_back(*bytes);
    }
    return out;
  }

  fs::path dir_;
  uint64_t next_id_base_ = 0;
};

TEST_F(UndoChainTest, ForwardPassMatchesPerVersionFormula) {
  xmark::Config config;
  config.target_bytes = 4096;
  auto xml = xmark::GenerateDocumentText(config);
  ASSERT_TRUE(xml.ok()) << xml.status();
  std::string path = (dir_ / "store").string();
  StoreOptions options;
  options.fsync = FsyncPolicy::kNever;
  options.snapshot_every = 2;
  ASSERT_TRUE(VersionStore::Init(path, *xml, options).ok());
  auto opened = VersionStore::Open(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  VersionStore& store = *opened;
  next_id_base_ =
      ((store.head_doc().max_assigned_id() / kIdBlock) + 1) * kIdBlock;

  // main: 2 commits, fork w, 2 more; w: 2 commits; full merge; one
  // more commit each; x forks from w's head (past its merge frame).
  CommitEdits(&store, "main", 2, 11);
  ASSERT_TRUE(store.CreateBranch("w", "main", store.head()).ok());
  CommitEdits(&store, "main", 2, 21);
  CommitEdits(&store, "w", 2, 31);
  branch::MergeStats stats;
  auto merged = branch::Merge(&store, "main", "w", {}, &stats);
  ASSERT_TRUE(merged.ok()) << merged.status();
  ASSERT_FALSE(stats.fast_forward);
  CommitEdits(&store, "main", 1, 41);
  CommitEdits(&store, "w", 1, 51);
  auto w = store.GetBranch("w");
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(store.CreateBranch("x", "w", w->head).ok());
  CommitEdits(&store, "x", 1, 61);
  auto x = store.GetBranch("x");
  ASSERT_TRUE(x.ok());

  struct Range {
    std::string branch;
    uint64_t from;
    uint64_t to;
  };
  const std::vector<Range> ranges = {
      {"main", 0, store.head()},  // mainline across its merge frame
      {"main", 3, store.head()},
      {"main", 4, 5},             // the merge frame alone
      {"w", 2, w->head},          // branch suffix across its merge frame
      {"w", 0, w->head},          // down through the fork into main
      {"x", 0, x->head},          // through two forks
      {"x", x->fork, x->head},    // plain branch suffix
  };
  for (const Range& range : ranges) {
    SCOPED_TRACE(range.branch + " (" + std::to_string(range.from) + ", " +
                 std::to_string(range.to) + "]");
    bool saw_merge = false;
    std::vector<std::string> oracle =
        OracleUndos(store, range.branch, range.from, range.to, &saw_merge);
    std::vector<std::string> forward =
        ForwardUndos(store, range.branch, range.from, range.to);
    ASSERT_GE(oracle.size(), range.to - range.from);
    ASSERT_EQ(forward.size(), oracle.size());
    for (size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_EQ(forward[i], oracle[i]) << "undo " << i;
    }
    bool crosses_merge = range.branch != "x" || range.from < x->fork;
    EXPECT_EQ(saw_merge, crosses_merge);
  }
}

// The document-grounded override drop with nested killers. Only del(4)
// and ren(16) carry labels, so the label-based reduction sees none of
// the other operations inside 4's subtree: del(6) (a del under a del),
// repC(7), and repV(9) on an attribute of 7 (an attribute under a repC,
// which O4 spares, under a del, which O3 does not). ComputeUndo must
// drop all three and undo only del(4) and ren(16).
TEST_F(UndoChainTest, NestedKillersAreDroppedBeforeInverting) {
  xml::Document doc = xupdate::testing::PaperFigureDocument();
  label::Labeling labeling = label::Labeling::Build(doc);
  pul::Pul pul;
  pul.BindIdSpace(doc.max_assigned_id() + 1);
  ASSERT_TRUE(pul.AddDelete(4, labeling).ok());
  ASSERT_TRUE(
      pul.AddStringOp(pul::OpKind::kRename, 16, labeling, "writers").ok());
  auto unlabeled = [&pul](pul::OpKind kind, xml::NodeId target,
                          std::vector<xml::NodeId> trees, std::string arg) {
    pul::UpdateOp op;
    op.kind = kind;
    op.target = target;
    op.param_trees = std::move(trees);
    op.param_string = std::move(arg);
    return pul.AddOp(std::move(op));
  };
  ASSERT_TRUE(unlabeled(pul::OpKind::kDelete, 6, {}, "").ok());
  xml::NodeId text = pul.NewTextParam("replaced");
  ASSERT_TRUE(unlabeled(pul::OpKind::kReplaceChildren, 7, {text}, "").ok());
  ASSERT_TRUE(unlabeled(pul::OpKind::kReplaceValue, 9, {}, "01").ok());

  std::string reason;
  std::vector<bool> overridden = core::OverriddenOps(doc, pul, &reason);
  EXPECT_EQ(overridden,
            (std::vector<bool>{false, false, true, true, true}));
  EXPECT_EQ(reason, "operation under removed node 4");

  auto undo = VersionStore::ComputeUndo(doc, pul, StoreOptions());
  ASSERT_TRUE(undo.ok()) << undo.status();
  auto bytes = pul::SerializePul(*undo);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  // Pinned from the drop-to-fixpoint implementation this one replaces.
  constexpr char kUndo[] =
      R"(<pul>)"
      R"(<op kind="ren" target="16" label="e2:011101:10011:2:14:1")"
      R"( arg="authors"/>)"
      R"(<op kind="insAfter" target="3" label="e2:000011:00011:2:0:0">)"
      R"(<elem><article xu:ids="4"><title xu:ids="5">)"
      R"(<?xuid 11?>XML Processing</title><authors xu:ids="6">)"
      R"(<author position="00" xu:ids="7;9"><?xuid 8?>B.Catania</author>)"
      R"(</authors><initPage xu:ids="12"><?xuid 13?>23</initPage></article>)"
      R"(</elem></op></pul>)";
  EXPECT_EQ(*bytes, kUndo);
  xml::Document state = doc;
  ASSERT_TRUE(pul::ApplyPul(&state, pul).ok());
  ASSERT_TRUE(pul::ApplyPul(&state, *undo).ok());
  auto same = xml::Document::SameAnnotated(state, doc);
  ASSERT_TRUE(same.ok()) << same.status();
  EXPECT_TRUE(*same);
}

}  // namespace
}  // namespace xupdate::store
