#include "core/invert.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/random.h"
#include "core/reduce.h"
#include "pul/apply.h"
#include "pul/obtainable.h"
#include "testing/test_docs.h"
#include "xml/parser.h"

namespace xupdate::core {
namespace {

using pul::OpKind;
using pul::Pul;
using xml::Document;
using xml::NodeId;

constexpr NodeId kAllIds = std::numeric_limits<NodeId>::max();

class InvertTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = xupdate::testing::PaperFigureDocument();
    labeling_ = label::Labeling::Build(doc_);
  }

  Pul MakePul() {
    Pul p;
    p.BindIdSpace(doc_.max_assigned_id() + 1);
    return p;
  }

  // Applies `pul`, then its inverse, and checks the round trip restores
  // the document exactly — node ids included.
  void CheckRoundTrip(const Pul& pul) {
    std::string before = pul::CanonicalForm(doc_, kAllIds);
    auto inverse = Invert(doc_, pul);
    ASSERT_TRUE(inverse.ok()) << inverse.status();
    Document working = doc_;
    ASSERT_TRUE(pul::ApplyPul(&working, pul).ok());
    ASSERT_TRUE(pul::ApplyPul(&working, *inverse).ok());
    EXPECT_EQ(pul::CanonicalForm(working, kAllIds), before);
  }

  Document doc_;
  label::Labeling labeling_;
};

TEST_F(InvertTest, InsertionInvertsToDeletion) {
  Pul p = MakePul();
  auto t = p.AddFragment("<x><y/></x>");
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsLast, 4, labeling_, {*t}).ok());
  auto inverse = Invert(doc_, p);
  ASSERT_TRUE(inverse.ok()) << inverse.status();
  ASSERT_EQ(inverse->size(), 1u);
  EXPECT_EQ(inverse->ops()[0].kind, OpKind::kDelete);
  EXPECT_EQ(inverse->ops()[0].target, *t);
  CheckRoundTrip(p);
}

TEST_F(InvertTest, DeletionInvertsToPositionalReinsertion) {
  Pul p = MakePul();
  ASSERT_TRUE(p.AddDelete(5, labeling_).ok());  // first child of 4
  auto inverse = Invert(doc_, p);
  ASSERT_TRUE(inverse.ok()) << inverse.status();
  ASSERT_EQ(inverse->size(), 1u);
  EXPECT_EQ(inverse->ops()[0].kind, OpKind::kInsFirst);
  EXPECT_EQ(inverse->ops()[0].target, 4u);
  CheckRoundTrip(p);
}

TEST_F(InvertTest, MiddleChildDeletionAnchorsToLeftSibling) {
  Pul p = MakePul();
  ASSERT_TRUE(p.AddDelete(6, labeling_).ok());  // between 5 and 12
  auto inverse = Invert(doc_, p);
  ASSERT_TRUE(inverse.ok()) << inverse.status();
  ASSERT_EQ(inverse->size(), 1u);
  EXPECT_EQ(inverse->ops()[0].kind, OpKind::kInsAfter);
  EXPECT_EQ(inverse->ops()[0].target, 5u);
  CheckRoundTrip(p);
}

TEST_F(InvertTest, AdjacentDeletionsRestoreInOrder) {
  Pul p = MakePul();
  ASSERT_TRUE(p.AddDelete(5, labeling_).ok());
  ASSERT_TRUE(p.AddDelete(6, labeling_).ok());
  auto inverse = Invert(doc_, p);
  ASSERT_TRUE(inverse.ok()) << inverse.status();
  // One grouped insFirst(4, [5's copy, 6's copy]).
  ASSERT_EQ(inverse->size(), 1u);
  EXPECT_EQ(inverse->ops()[0].kind, OpKind::kInsFirst);
  EXPECT_EQ(inverse->ops()[0].param_trees.size(), 2u);
  CheckRoundTrip(p);
}

TEST_F(InvertTest, AttributeDeletionRestores) {
  Pul p = MakePul();
  ASSERT_TRUE(p.AddDelete(9, labeling_).ok());
  CheckRoundTrip(p);
}

TEST_F(InvertTest, ValueAndNameChangesInvert) {
  Pul p = MakePul();
  ASSERT_TRUE(
      p.AddStringOp(OpKind::kReplaceValue, 11, labeling_, "changed").ok());
  ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 5, labeling_, "renamed").ok());
  ASSERT_TRUE(p.AddStringOp(OpKind::kReplaceValue, 9, labeling_, "07").ok());
  CheckRoundTrip(p);
}

TEST_F(InvertTest, ReplaceNodeInverts) {
  Pul p = MakePul();
  auto r1 = p.AddFragment("<repl1/>");
  auto r2 = p.AddFragment("<repl2/>");
  ASSERT_TRUE(
      p.AddTreeOp(OpKind::kReplaceNode, 5, labeling_, {*r1, *r2}).ok());
  auto inverse = Invert(doc_, p);
  ASSERT_TRUE(inverse.ok()) << inverse.status();
  ASSERT_EQ(inverse->size(), 2u);  // repN(r1 -> saved 5) + del(r2)
  CheckRoundTrip(p);
}

TEST_F(InvertTest, EmptyReplaceNodeBehavesLikeDeletion) {
  Pul p = MakePul();
  ASSERT_TRUE(p.AddTreeOp(OpKind::kReplaceNode, 6, labeling_, {}).ok());
  CheckRoundTrip(p);
}

TEST_F(InvertTest, ReplaceChildrenInverts) {
  Pul p = MakePul();
  NodeId t = p.NewTextParam("flat");
  ASSERT_TRUE(p.AddTreeOp(OpKind::kReplaceChildren, 4, labeling_, {t}).ok());
  auto inverse = Invert(doc_, p);
  ASSERT_TRUE(inverse.ok()) << inverse.status();
  ASSERT_EQ(inverse->size(), 1u);
  EXPECT_EQ(inverse->ops()[0].kind, OpKind::kReplaceChildren);
  EXPECT_EQ(inverse->ops()[0].param_trees.size(), 3u);  // 5, 6, 12
  CheckRoundTrip(p);
}

TEST_F(InvertTest, DeletionNextToReplacedSiblingAnchorsToReplacement) {
  Pul p = MakePul();
  auto r = p.AddFragment("<newFive/>");
  ASSERT_TRUE(p.AddTreeOp(OpKind::kReplaceNode, 5, labeling_, {*r}).ok());
  ASSERT_TRUE(p.AddDelete(6, labeling_).ok());
  auto inverse = Invert(doc_, p);
  ASSERT_TRUE(inverse.ok()) << inverse.status();
  CheckRoundTrip(p);
}

TEST_F(InvertTest, SiblingInsertionPlusDeleteInverts) {
  // ins-> on a node that the same PUL deletes is NOT O-reducible and
  // must invert cleanly.
  Pul p = MakePul();
  auto t = p.AddFragment("<kept/>");
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsAfter, 5, labeling_, {*t}).ok());
  ASSERT_TRUE(p.AddDelete(5, labeling_).ok());
  CheckRoundTrip(p);
}

TEST_F(InvertTest, RejectsOReduciblePuls) {
  {
    Pul p = MakePul();
    ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 5, labeling_, "x").ok());
    ASSERT_TRUE(p.AddDelete(5, labeling_).ok());
    EXPECT_EQ(Invert(doc_, p).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    Pul p = MakePul();
    ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 5, labeling_, "x").ok());
    ASSERT_TRUE(p.AddDelete(4, labeling_).ok());  // ancestor of 5
    EXPECT_EQ(Invert(doc_, p).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    Pul p = MakePul();
    auto t = p.AddFragment("<x/>");
    ASSERT_TRUE(p.AddTreeOp(OpKind::kInsLast, 4, labeling_, {*t}).ok());
    NodeId txt = p.NewTextParam("z");
    ASSERT_TRUE(
        p.AddTreeOp(OpKind::kReplaceChildren, 4, labeling_, {txt}).ok());
    EXPECT_EQ(Invert(doc_, p).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// The reason names the lowest-listed overridden op and its lowest-listed
// overrider, whatever order the targets hash in.
TEST_F(InvertTest, ReasonNamesLowestListedOverride) {
  Pul p = MakePul();
  ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 5, labeling_, "x").ok());
  ASSERT_TRUE(p.AddDelete(5, labeling_).ok());
  ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 16, labeling_, "y").ok());
  ASSERT_TRUE(p.AddDelete(16, labeling_).ok());
  std::string reason;
  EXPECT_EQ(OverriddenOps(doc_, p, &reason),
            (std::vector<bool>{true, false, true, false}));
  EXPECT_EQ(reason, "same-target override on node 5");
  auto inverse = Invert(doc_, p);
  EXPECT_EQ(inverse.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(inverse.status().message().find("same-target override on node 5"),
            std::string::npos)
      << inverse.status();
}

// A repN overrides a del of its own target whichever of the two is
// listed first (rule O1), as Reduce drops the del either way.
TEST_F(InvertTest, ReplaceNodeOverridesSameTargetDeleteListedAfterIt) {
  Pul p = MakePul();
  auto t = p.AddFragment("<x/>");
  ASSERT_TRUE(p.AddTreeOp(OpKind::kReplaceNode, 5, labeling_, {*t}).ok());
  ASSERT_TRUE(p.AddDelete(5, labeling_).ok());
  EXPECT_EQ(OverriddenOps(doc_, p), (std::vector<bool>{false, true}));
  EXPECT_EQ(Invert(doc_, p).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(InvertTest, RejectsRootRemoval) {
  Pul p = MakePul();
  ASSERT_TRUE(p.AddDelete(1, labeling_).ok());
  EXPECT_FALSE(Invert(doc_, p).ok());
}

// Property sweep: reduce a random deterministic PUL (so it becomes
// O-irreducible and |O|=1), invert it, and verify apply;apply-inverse is
// the identity, node ids included.
class InvertPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(InvertPropertyTest, ApplyThenInverseIsIdentity) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2917 + 1);
  Document doc = xupdate::testing::RandomDocument(rng, 16);
  label::Labeling labeling = label::Labeling::Build(doc);
  xupdate::testing::RandomPulOptions options;
  options.max_ops = 4;
  options.deterministic = true;
  Pul raw = xupdate::testing::RandomPul(rng, doc, labeling, options);
  auto reduced = Reduce(raw, {.mode = ReduceMode::kDeterministic});
  ASSERT_TRUE(reduced.ok()) << reduced.status();
  if (reduced->empty()) GTEST_SKIP();
  // Root removals are not invertible; skip those rare draws.
  bool removes_root = false;
  for (const pul::UpdateOp& op : reduced->ops()) {
    if (op.target == doc.root() &&
        (op.kind == OpKind::kDelete || op.kind == OpKind::kReplaceNode)) {
      removes_root = true;
    }
  }
  if (removes_root) GTEST_SKIP();

  auto inverse = Invert(doc, *reduced);
  ASSERT_TRUE(inverse.ok()) << inverse.status();
  // Targets in the pre-state carry exactly their Build labels; targets
  // the forward PUL creates carry none.
  for (const pul::UpdateOp& op : inverse->ops()) {
    const label::NodeLabel* expect = labeling.Find(op.target);
    ASSERT_EQ(op.target_label.valid(), expect != nullptr) << op.target;
    if (expect != nullptr) {
      EXPECT_EQ(op.target_label.self, expect->self);
      EXPECT_EQ(testing::LabelText(op.target_label),
                testing::LabelText(*expect));
    }
  }
  std::string before = pul::CanonicalForm(doc, kAllIds);
  Document working = doc;
  ASSERT_TRUE(pul::ApplyPul(&working, *reduced).ok());
  auto applied = pul::ApplyPul(&working, *inverse);
  ASSERT_TRUE(applied.ok()) << applied;
  EXPECT_EQ(pul::CanonicalForm(working, kAllIds), before);
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, InvertPropertyTest,
                         ::testing::Range(0, 60));

}  // namespace
}  // namespace xupdate::core
