// Ordering behaviour of the best-effort resolution (Algorithm 3): focus
// nodes in document order, the §4.2 type-precedence at equal focus, and
// the auto-solve cascades the ordering enables.

#include <gtest/gtest.h>

#include "core/reconcile.h"
#include "label/labeling.h"
#include "testing/test_docs.h"
#include "xml/parser.h"

namespace xupdate::core {
namespace {

using pul::OpKind;
using pul::Policies;
using pul::Pul;
using xml::Document;
using xml::NodeId;

class ConflictOrderingTest : public ::testing::Test {
 protected:
  // ids: r=1, outer=2, inner=3, leaf=4, t=5(text), side=6
  void SetUp() override {
    auto doc = xml::ParseDocument(
        "<r><outer><inner><leaf>t</leaf></inner></outer><side/></r>");
    ASSERT_TRUE(doc.ok());
    doc_ = std::move(*doc);
    labeling_ = label::Labeling::Build(doc_);
  }

  Pul MakePul(int producer) {
    Pul p;
    p.BindIdSpace(1000 * static_cast<NodeId>(producer + 1));
    return p;
  }

  Document doc_;
  label::Labeling labeling_;
};

TEST_F(ConflictOrderingTest, AncestorConflictResolvesFirst) {
  // Conflicts at node 2 (outer) and node 4 (leaf). Processing the outer
  // one first excludes the leaf ops, auto-solving the inner conflict.
  Pul a = MakePul(0);
  ASSERT_TRUE(a.AddDelete(2, labeling_).ok());
  Pul b = MakePul(1);
  ASSERT_TRUE(b.AddStringOp(OpKind::kRename, 4, labeling_, "x").ok());
  Pul c = MakePul(2);
  ASSERT_TRUE(c.AddStringOp(OpKind::kRename, 4, labeling_, "y").ok());
  ReconcileStats stats;
  auto merged = Reconcile({&a, &b, &c}, {}, &stats);
  ASSERT_TRUE(merged.ok()) << merged.status();
  ASSERT_EQ(merged->size(), 1u);
  EXPECT_EQ(merged->ops()[0].kind, OpKind::kDelete);
  // The type-1 rename conflict dissolved without choosing a winner.
  EXPECT_GE(stats.conflicts_auto_solved, 1u);
}

TEST_F(ConflictOrderingTest, RepNConflictPrecedesDelOverrideAtOneFocus) {
  // At one focus node: a type-1 repN-vs-repN conflict and a type-4
  // del-overrides conflict. Precedence (i) < (iv): the repN pair is
  // decided first; with an unexcludable repN the del must yield.
  Pul a = MakePul(0);
  auto ra = a.AddFragment("<va/>");
  ASSERT_TRUE(a.AddTreeOp(OpKind::kReplaceNode, 3, labeling_, {*ra}).ok());
  Policies keep;
  keep.preserve_inserted_data = true;
  a.set_policies(keep);
  Pul b = MakePul(1);
  auto rb = b.AddFragment("<vb/>");
  ASSERT_TRUE(b.AddTreeOp(OpKind::kReplaceNode, 3, labeling_, {*rb}).ok());
  Pul c = MakePul(2);
  ASSERT_TRUE(c.AddDelete(3, labeling_).ok());

  auto merged = Reconcile({&a, &b, &c});
  ASSERT_TRUE(merged.ok()) << merged.status();
  // Producer a's protected repN survives; b's repN and c's del are out.
  ASSERT_EQ(merged->size(), 1u);
  EXPECT_EQ(merged->ops()[0].kind, OpKind::kReplaceNode);
  ASSERT_EQ(merged->ops()[0].param_trees.size(), 1u);
  EXPECT_EQ(merged->forest().name(merged->ops()[0].param_trees[0]), "va");
}

TEST_F(ConflictOrderingTest, OrderConflictAfterOverrideAtOneFocus) {
  // insFirst order conflict on node 3 plus a del(3) override: the del
  // (rank iv) processes before the order conflict (rank viii), and its
  // exclusion of both insertions auto-solves the order conflict — no
  // generated op appears.
  Pul a = MakePul(0);
  auto ta = a.AddFragment("<ia/>");
  ASSERT_TRUE(a.AddTreeOp(OpKind::kInsFirst, 3, labeling_, {*ta}).ok());
  Pul b = MakePul(1);
  auto tb = b.AddFragment("<ib/>");
  ASSERT_TRUE(b.AddTreeOp(OpKind::kInsFirst, 3, labeling_, {*tb}).ok());
  Pul c = MakePul(2);
  ASSERT_TRUE(c.AddDelete(3, labeling_).ok());
  ReconcileStats stats;
  auto merged = Reconcile({&a, &b, &c}, {}, &stats);
  ASSERT_TRUE(merged.ok()) << merged.status();
  ASSERT_EQ(merged->size(), 1u);
  EXPECT_EQ(merged->ops()[0].kind, OpKind::kDelete);
  EXPECT_EQ(stats.operations_generated, 0u);
  EXPECT_GE(stats.conflicts_auto_solved, 1u);
}

TEST_F(ConflictOrderingTest, GeneratedOrderOpRespectsWinnersOrder) {
  // Three producers insert before node 6; the only order-preserving one
  // must come first in the generated concatenation, the rest follow in
  // producer order.
  Pul a = MakePul(0);
  auto ta = a.AddFragment("<pa/>");
  ASSERT_TRUE(a.AddTreeOp(OpKind::kInsBefore, 6, labeling_, {*ta}).ok());
  Pul b = MakePul(1);
  auto tb = b.AddFragment("<pb/>");
  ASSERT_TRUE(b.AddTreeOp(OpKind::kInsBefore, 6, labeling_, {*tb}).ok());
  Policies order;
  order.preserve_insertion_order = true;
  b.set_policies(order);
  Pul c = MakePul(2);
  auto tc = c.AddFragment("<pc/>");
  ASSERT_TRUE(c.AddTreeOp(OpKind::kInsBefore, 6, labeling_, {*tc}).ok());

  auto merged = Reconcile({&a, &b, &c});
  ASSERT_TRUE(merged.ok()) << merged.status();
  ASSERT_EQ(merged->size(), 1u);
  const auto& params = merged->ops()[0].param_trees;
  ASSERT_EQ(params.size(), 3u);
  EXPECT_EQ(merged->forest().name(params[0]), "pb");  // winner first
  EXPECT_EQ(merged->forest().name(params[1]), "pa");
  EXPECT_EQ(merged->forest().name(params[2]), "pc");
}

TEST_F(ConflictOrderingTest, ChainedExclusionAcrossConflictTypes) {
  // del(2) overrides insA(3); losing that insA dissolves the type-2
  // attribute conflict with a same-name insA on node 6 — no, different
  // targets never type-2-conflict; instead chain through node 3:
  // type-2 conflict on 3 (two insA, same name) + type-5 del(2): the
  // non-local override excludes both insA ops; the type-2 conflict then
  // auto-solves with no survivor.
  Pul a = MakePul(0);
  NodeId aa = a.NewAttributeParam("k", "1");
  ASSERT_TRUE(a.AddTreeOp(OpKind::kInsAttributes, 3, labeling_, {aa}).ok());
  Pul b = MakePul(1);
  NodeId bb = b.NewAttributeParam("k", "2");
  ASSERT_TRUE(b.AddTreeOp(OpKind::kInsAttributes, 3, labeling_, {bb}).ok());
  Pul c = MakePul(2);
  ASSERT_TRUE(c.AddDelete(2, labeling_).ok());
  ReconcileStats stats;
  auto merged = Reconcile({&a, &b, &c}, {}, &stats);
  ASSERT_TRUE(merged.ok()) << merged.status();
  ASSERT_EQ(merged->size(), 1u);
  EXPECT_EQ(merged->ops()[0].kind, OpKind::kDelete);
  EXPECT_GE(stats.conflicts_auto_solved, 1u);
}

TEST_F(ConflictOrderingTest, IndependentFociResolveIndependently) {
  Pul a = MakePul(0);
  ASSERT_TRUE(a.AddStringOp(OpKind::kRename, 4, labeling_, "ax").ok());
  ASSERT_TRUE(a.AddStringOp(OpKind::kRename, 6, labeling_, "ay").ok());
  Pul b = MakePul(1);
  ASSERT_TRUE(b.AddStringOp(OpKind::kRename, 4, labeling_, "bx").ok());
  ASSERT_TRUE(b.AddStringOp(OpKind::kRename, 6, labeling_, "by").ok());
  ReconcileStats stats;
  auto merged = Reconcile({&a, &b}, {}, &stats);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(stats.conflicts_total, 2u);
  EXPECT_EQ(merged->size(), 2u);  // one winner per focus
}

}  // namespace
}  // namespace xupdate::core
