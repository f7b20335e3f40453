#include "core/reconcile.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "label/labeling.h"
#include "testing/test_docs.h"
#include "xml/serializer.h"

namespace xupdate::core {
namespace {

using pul::OpKind;
using pul::Policies;
using pul::Pul;
using xml::NodeId;

class ReconcileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = xupdate::testing::PaperFigureDocument();
    labeling_ = label::Labeling::Build(doc_);
  }

  Pul MakePul(int producer) {
    Pul p;
    p.BindIdSpace(doc_.max_assigned_id() + 1 +
                  static_cast<NodeId>(producer) * 1000);
    return p;
  }

  // Builds the three PULs of Example 7 with configurable policies.
  void BuildExample9Puls(Policies pol1, Policies pol2, Policies pol3) {
    p1_ = MakePul(0);
    ASSERT_TRUE(p1_.AddTreeOp(OpKind::kInsAttributes, 7, labeling_,
                              {p1_.NewAttributeParam("email", "catania@disi")})
                    .ok());
    auto gg = p1_.AddFragment("<author>G G</author>");
    ASSERT_TRUE(p1_.AddTreeOp(OpKind::kInsAfter, 5, labeling_, {*gg}).ok());
    ASSERT_TRUE(
        p1_.AddStringOp(OpKind::kReplaceValue, 9, labeling_, "34").ok());
    p1_.set_policies(pol1);

    p2_ = MakePul(1);
    ASSERT_TRUE(p2_.AddTreeOp(OpKind::kInsAttributes, 7, labeling_,
                              {p2_.NewAttributeParam("email", "catania@gmail")})
                    .ok());
    auto ac = p2_.AddFragment("<author>A C</author>");
    ASSERT_TRUE(p2_.AddTreeOp(OpKind::kInsAfter, 5, labeling_, {*ac}).ok());
    ASSERT_TRUE(
        p2_.AddStringOp(OpKind::kReplaceValue, 9, labeling_, "35").ok());
    ASSERT_TRUE(
        p2_.AddStringOp(OpKind::kReplaceValue, 8, labeling_, "F C").ok());
    auto fc = p2_.AddFragment("<author>F C</author>");
    ASSERT_TRUE(p2_.AddTreeOp(OpKind::kInsBefore, 7, labeling_, {*fc}).ok());
    p2_.set_policies(pol2);

    p3_ = MakePul(2);
    NodeId t = p3_.NewTextParam("G G");
    ASSERT_TRUE(
        p3_.AddTreeOp(OpKind::kReplaceChildren, 7, labeling_, {t}).ok());
    p3_.set_policies(pol3);
  }

  std::multiset<std::string> Fingerprints(const Pul& pul) {
    std::multiset<std::string> out;
    for (const pul::UpdateOp& op : pul.ops()) {
      std::string s(pul::OpKindName(op.kind));
      s += "(" + std::to_string(op.target);
      for (NodeId r : op.param_trees) {
        s += ",";
        switch (pul.forest().type(r)) {
          case xml::NodeType::kElement: {
            auto txt = xml::SerializeSubtree(pul.forest(), r, {});
            s += txt.ok() ? *txt : "<?>";
            break;
          }
          case xml::NodeType::kText:
            s += "t'" + std::string(pul.forest().value(r)) + "'";
            break;
          case xml::NodeType::kAttribute:
            s += "@" + std::string(pul.forest().name(r)) + "=" +
                 std::string(pul.forest().value(r));
            break;
        }
      }
      if (!op.param_string.empty()) s += ",'" + op.param_string + "'";
      s += ")";
      out.insert(std::move(s));
    }
    return out;
  }

  xml::Document doc_;
  label::Labeling labeling_;
  Pul p1_, p2_, p3_;
};

TEST_F(ReconcileTest, Example9BestEffortResolution) {
  // Producer 1 preserves insertion order and inserted data; producer 2
  // nothing; producer 3 inserted data. Expected result (paper):
  // {ins->(5, [G G, A C]), op11, op31, op13, op52}.
  Policies pol1;
  pol1.preserve_insertion_order = true;
  pol1.preserve_inserted_data = true;
  Policies pol2;
  Policies pol3;
  pol3.preserve_inserted_data = true;
  BuildExample9Puls(pol1, pol2, pol3);

  ReconcileStats stats;
  auto result = Reconcile({&p1_, &p2_, &p3_}, {}, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  std::multiset<std::string> expected = {
      // Generated order-conflict resolution: producer 1's author first.
      "insAfter(5,<author>G G</author>,<author>A C</author>)",
      // op11 kept over op12 (inserted-data policy of producer 1).
      "insAttr(7,@email=catania@disi)",
      // op31 kept over op32.
      "repV(9,'34')",
      // op13 kept; its overridden op42 excluded.
      "repC(7,t'G G')",
      // op52 was never in conflict.
      "insBefore(7,<author>F C</author>)",
  };
  EXPECT_EQ(Fingerprints(*result), expected);
  EXPECT_EQ(stats.conflicts_total, 4u);
  EXPECT_EQ(stats.operations_generated, 1u);
  EXPECT_EQ(stats.operations_excluded, 5u);  // op21, op22, op12, op42, op32
}

TEST_F(ReconcileTest, Example9FailsWhenAllPreserveOrder) {
  // "If all three producers required the preservation of insertion
  // order ... the reconciliation would fail."
  Policies order_only;
  order_only.preserve_insertion_order = true;
  BuildExample9Puls(order_only, order_only, order_only);
  auto result = Reconcile({&p1_, &p2_, &p3_});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnresolvedConflict);
}

TEST_F(ReconcileTest, NoConflictsPassThrough) {
  Pul a = MakePul(0);
  ASSERT_TRUE(a.AddStringOp(OpKind::kRename, 5, labeling_, "x").ok());
  Pul b = MakePul(1);
  ASSERT_TRUE(b.AddStringOp(OpKind::kRename, 16, labeling_, "y").ok());
  ReconcileStats stats;
  auto result = Reconcile({&a, &b}, {}, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
  EXPECT_EQ(stats.conflicts_total, 0u);
}

TEST_F(ReconcileTest, AsymmetricDefaultExcludesOverridden) {
  Pul a = MakePul(0);
  ASSERT_TRUE(a.AddDelete(5, labeling_).ok());
  Pul b = MakePul(1);
  ASSERT_TRUE(b.AddStringOp(OpKind::kRename, 5, labeling_, "x").ok());
  auto result = Reconcile({&a, &b});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->ops()[0].kind, OpKind::kDelete);
}

TEST_F(ReconcileTest, InsertedDataPolicyFlipsExclusionToOverrider) {
  Pul a = MakePul(0);
  ASSERT_TRUE(a.AddDelete(5, labeling_).ok());
  Pul b = MakePul(1);
  auto t = b.AddFragment("<x/>");
  ASSERT_TRUE(b.AddTreeOp(OpKind::kInsFirst, 5, labeling_, {*t}).ok());
  Policies pol;
  pol.preserve_inserted_data = true;
  b.set_policies(pol);
  auto result = Reconcile({&a, &b});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->ops()[0].kind, OpKind::kInsFirst);
}

TEST_F(ReconcileTest, RemovedDataPolicyBlocksOverriderExclusion) {
  // Producer a protects its delete; producer b protects its insertion:
  // irreconcilable.
  Pul a = MakePul(0);
  ASSERT_TRUE(a.AddDelete(5, labeling_).ok());
  Policies pa;
  pa.preserve_removed_data = true;
  a.set_policies(pa);
  Pul b = MakePul(1);
  auto t = b.AddFragment("<x/>");
  ASSERT_TRUE(b.AddTreeOp(OpKind::kInsFirst, 5, labeling_, {*t}).ok());
  Policies pb;
  pb.preserve_inserted_data = true;
  b.set_policies(pb);
  auto result = Reconcile({&a, &b});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnresolvedConflict);
}

TEST_F(ReconcileTest, RepeatedModificationBothProtectedFails) {
  Pul a = MakePul(0);
  ASSERT_TRUE(a.AddStringOp(OpKind::kReplaceValue, 8, labeling_, "x").ok());
  Pul b = MakePul(1);
  ASSERT_TRUE(b.AddStringOp(OpKind::kReplaceValue, 8, labeling_, "y").ok());
  Policies protect;
  protect.preserve_inserted_data = true;
  a.set_policies(protect);
  b.set_policies(protect);
  EXPECT_FALSE(Reconcile({&a, &b}).ok());
}

TEST_F(ReconcileTest, SymmetricKeepsFirstWhenUnconstrained) {
  Pul a = MakePul(0);
  ASSERT_TRUE(a.AddStringOp(OpKind::kReplaceValue, 8, labeling_, "x").ok());
  Pul b = MakePul(1);
  ASSERT_TRUE(b.AddStringOp(OpKind::kReplaceValue, 8, labeling_, "y").ok());
  auto result = Reconcile({&a, &b});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->ops()[0].param_string, "x");
}

TEST_F(ReconcileTest, CascadingExclusionAutoSolvesDownstreamConflicts) {
  // del(4) (protected) overrides ops on 4's subtree from both other
  // producers; the repV-vs-repV conflict under it dissolves once both
  // sides are excluded by the non-local override.
  Pul a = MakePul(0);
  ASSERT_TRUE(a.AddDelete(4, labeling_).ok());
  Policies pa;
  pa.preserve_removed_data = true;
  a.set_policies(pa);
  Pul b = MakePul(1);
  ASSERT_TRUE(b.AddStringOp(OpKind::kReplaceValue, 8, labeling_, "x").ok());
  Pul c = MakePul(2);
  ASSERT_TRUE(c.AddStringOp(OpKind::kReplaceValue, 8, labeling_, "y").ok());
  ReconcileStats stats;
  auto result = Reconcile({&a, &b, &c}, {}, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->ops()[0].kind, OpKind::kDelete);
  EXPECT_GE(stats.conflicts_auto_solved, 1u);
}

TEST_F(ReconcileTest, OrderConflictWithoutPoliciesConcatenates) {
  Pul a = MakePul(0);
  auto ta = a.AddFragment("<a1/>");
  ASSERT_TRUE(a.AddTreeOp(OpKind::kInsFirst, 16, labeling_, {*ta}).ok());
  Pul b = MakePul(1);
  auto tb = b.AddFragment("<b1/>");
  ASSERT_TRUE(b.AddTreeOp(OpKind::kInsFirst, 16, labeling_, {*tb}).ok());
  ReconcileStats stats;
  auto result = Reconcile({&a, &b}, {}, &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->ops()[0].kind, OpKind::kInsFirst);
  EXPECT_EQ(result->ops()[0].param_trees.size(), 2u);
  EXPECT_EQ(stats.operations_generated, 1u);
}

}  // namespace
}  // namespace xupdate::core
