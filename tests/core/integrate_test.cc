#include "core/integrate.h"

#include <gtest/gtest.h>

#include "core/reduce.h"
#include "label/labeling.h"
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

class IntegrateTest : public ::testing::Test {
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

  const Conflict* FindConflict(const IntegrationResult& r,
                               ConflictType type) {
    for (const Conflict& c : r.conflicts) {
      if (c.type == type) return &c;
    }
    return nullptr;
  }

  Document doc_;
  label::Labeling labeling_;
};

TEST_F(IntegrateTest, Example6NoConflicts) {
  // Delta1 = {insA(4, initPage="132"), repV(8,'MM'), repN(7,<authors/>)}
  // Delta2 = {insA(4, lastPage="134"), ren(5, title)}: no conflicts;
  // integration == merge.
  Pul p1 = MakePul(0);
  ASSERT_TRUE(p1.AddTreeOp(OpKind::kInsAttributes, 4, labeling_,
                           {p1.NewAttributeParam("initPage", "132")})
                  .ok());
  ASSERT_TRUE(p1.AddStringOp(OpKind::kReplaceValue, 8, labeling_, "MM").ok());
  auto authors = p1.AddFragment("<authors/>");
  ASSERT_TRUE(
      p1.AddTreeOp(OpKind::kReplaceNode, 7, labeling_, {*authors}).ok());

  Pul p2 = MakePul(1);
  ASSERT_TRUE(p2.AddTreeOp(OpKind::kInsAttributes, 4, labeling_,
                           {p2.NewAttributeParam("lastPage", "134")})
                  .ok());
  ASSERT_TRUE(p2.AddStringOp(OpKind::kRename, 5, labeling_, "title").ok());

  auto result = Integrate({&p1, &p2});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->conflicts.empty());
  EXPECT_EQ(result->merged.size(), 5u);
  // Proposition 2: with empty Gamma the merged PUL is equivalent to both
  // sequential orders. (Check via obtainable sets; repN removes node 8,
  // so Delta1's repV(8) applies before it within one PUL.)
  NodeId horizon = doc_.max_assigned_id();
  auto merged_set = pul::ObtainableSet(doc_, result->merged, 20000, horizon);
  ASSERT_TRUE(merged_set.ok()) << merged_set.status();
  std::set<std::string> seq12;
  auto mids = pul::ObtainableDocuments(doc_, p1, 2000, horizon);
  ASSERT_TRUE(mids.ok());
  for (const Document& mid : *mids) {
    auto finals = pul::ObtainableSet(mid, p2, 20000, horizon);
    ASSERT_TRUE(finals.ok());
    seq12.insert(finals->begin(), finals->end());
  }
  EXPECT_EQ(*merged_set, seq12);
}

TEST_F(IntegrateTest, Example6DeterministicReductionAfterMerge) {
  // The tail of Example 6: the deterministic reduction of the merged
  // PUL collapses the two insA operations into one:
  //   {insA(4, initPage, lastPage), ren(5, title), repN(7, <authors/>)}
  // (the paper's listing also keeps Delta1's repV(8), which the repN on
  // its ancestor 7 overrides — rule O3 removes it here).
  Pul p1 = MakePul(0);
  ASSERT_TRUE(p1.AddTreeOp(OpKind::kInsAttributes, 4, labeling_,
                           {p1.NewAttributeParam("initPage", "132")})
                  .ok());
  ASSERT_TRUE(p1.AddStringOp(OpKind::kReplaceValue, 8, labeling_, "MM").ok());
  auto authors = p1.AddFragment("<authors/>");
  ASSERT_TRUE(
      p1.AddTreeOp(OpKind::kReplaceNode, 7, labeling_, {*authors}).ok());
  Pul p2 = MakePul(1);
  ASSERT_TRUE(p2.AddTreeOp(OpKind::kInsAttributes, 4, labeling_,
                           {p2.NewAttributeParam("lastPage", "134")})
                  .ok());
  ASSERT_TRUE(p2.AddStringOp(OpKind::kRename, 5, labeling_, "title").ok());

  auto result = Integrate({&p1, &p2});
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->conflicts.empty());
  auto reduced =
      Reduce(result->merged, {.mode = ReduceMode::kDeterministic});
  ASSERT_TRUE(reduced.ok()) << reduced.status();
  ASSERT_EQ(reduced->size(), 3u);
  int ins_attr_ops = 0;
  for (const pul::UpdateOp& op : reduced->ops()) {
    if (op.kind == OpKind::kInsAttributes) {
      ++ins_attr_ops;
      EXPECT_EQ(op.param_trees.size(), 2u);  // initPage + lastPage merged
    }
  }
  EXPECT_EQ(ins_attr_ops, 1);
}

TEST_F(IntegrateTest, Example7ConflictCatalogue) {
  // Three producers; conflicts cf1 (type 3 on node 5's siblings... the
  // paper's node 5), cf2 (type 2), cf3 (type 1), cf4 (type 5).
  Pul p1 = MakePul(0);
  ASSERT_TRUE(p1.AddTreeOp(OpKind::kInsAttributes, 7, labeling_,
                           {p1.NewAttributeParam("email", "catania@disi")})
                  .ok());
  auto gg = p1.AddFragment("<author>G G</author>");
  ASSERT_TRUE(p1.AddTreeOp(OpKind::kInsAfter, 5, labeling_, {*gg}).ok());
  ASSERT_TRUE(p1.AddStringOp(OpKind::kReplaceValue, 9, labeling_, "34").ok());

  Pul p2 = MakePul(1);
  ASSERT_TRUE(p2.AddTreeOp(OpKind::kInsAttributes, 7, labeling_,
                           {p2.NewAttributeParam("email", "catania@gmail")})
                  .ok());
  auto ac = p2.AddFragment("<author>A C</author>");
  ASSERT_TRUE(p2.AddTreeOp(OpKind::kInsAfter, 5, labeling_, {*ac}).ok());
  ASSERT_TRUE(p2.AddStringOp(OpKind::kReplaceValue, 9, labeling_, "35").ok());
  ASSERT_TRUE(p2.AddStringOp(OpKind::kReplaceValue, 8, labeling_, "F C").ok());
  auto fc = p2.AddFragment("<author>F C</author>");
  ASSERT_TRUE(p2.AddTreeOp(OpKind::kInsBefore, 7, labeling_, {*fc}).ok());

  Pul p3 = MakePul(2);
  NodeId t = p3.NewTextParam("G G");
  ASSERT_TRUE(
      p3.AddTreeOp(OpKind::kReplaceChildren, 7, labeling_, {t}).ok());

  auto result = Integrate({&p1, &p2, &p3});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->conflicts.size(), 4u);

  const Conflict* cf1 = FindConflict(*result, ConflictType::kInsertionOrder);
  ASSERT_NE(cf1, nullptr);
  EXPECT_EQ(cf1->ops.size(), 2u);

  const Conflict* cf2 =
      FindConflict(*result, ConflictType::kRepeatedAttributeInsertion);
  ASSERT_NE(cf2, nullptr);
  EXPECT_EQ(cf2->ops.size(), 2u);

  const Conflict* cf3 =
      FindConflict(*result, ConflictType::kRepeatedModification);
  ASSERT_NE(cf3, nullptr);
  EXPECT_EQ(cf3->ops.size(), 2u);
  // The repV(9) pair, not repV(8): node 8 is touched by one PUL only.
  EXPECT_EQ(p2.ops()[static_cast<size_t>(cf3->ops[0].op)].target, 9u);

  const Conflict* cf4 =
      FindConflict(*result, ConflictType::kNonLocalOverride);
  ASSERT_NE(cf4, nullptr);
  EXPECT_EQ(cf4->overrider.pul, 2);
  ASSERT_EQ(cf4->ops.size(), 1u);
  EXPECT_EQ(cf4->ops[0].pul, 1);
  // The overridden op is repV(8) — a descendant of 7; repV(9) targets an
  // attribute of 7 and is exempt from repC's override.
  EXPECT_EQ(p2.ops()[static_cast<size_t>(cf4->ops[0].op)].target, 8u);

  // Delta contains only the unconflicted insBefore(7).
  ASSERT_EQ(result->merged.size(), 1u);
  EXPECT_EQ(result->merged.ops()[0].kind, OpKind::kInsBefore);
  EXPECT_EQ(result->merged.ops()[0].target, 7u);
}

TEST_F(IntegrateTest, LocalOverrideDetected) {
  Pul p1 = MakePul(0);
  ASSERT_TRUE(p1.AddDelete(5, labeling_).ok());
  Pul p2 = MakePul(1);
  ASSERT_TRUE(p2.AddStringOp(OpKind::kRename, 5, labeling_, "x").ok());
  auto result = Integrate({&p1, &p2});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->conflicts.size(), 1u);
  EXPECT_EQ(result->conflicts[0].type, ConflictType::kLocalOverride);
  EXPECT_EQ(result->conflicts[0].overrider.pul, 0);
  EXPECT_TRUE(result->merged.empty());
}

TEST_F(IntegrateTest, TwoDeletesDoNotConflict) {
  Pul p1 = MakePul(0);
  ASSERT_TRUE(p1.AddDelete(5, labeling_).ok());
  Pul p2 = MakePul(1);
  ASSERT_TRUE(p2.AddDelete(5, labeling_).ok());
  auto result = Integrate({&p1, &p2});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->conflicts.empty());
  EXPECT_EQ(result->merged.size(), 2u);
}

TEST_F(IntegrateTest, EmptyRepNBehavesLikeDelete) {
  Pul p1 = MakePul(0);
  ASSERT_TRUE(p1.AddTreeOp(OpKind::kReplaceNode, 5, labeling_, {}).ok());
  Pul p2 = MakePul(1);
  ASSERT_TRUE(p2.AddDelete(5, labeling_).ok());
  // repN(v,[]) == del(v): two deletions never conflict.
  auto result = Integrate({&p1, &p2});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->conflicts.empty());
}

TEST_F(IntegrateTest, SameNameAttributeInsertionsConflict) {
  Pul p1 = MakePul(0);
  ASSERT_TRUE(p1.AddTreeOp(OpKind::kInsAttributes, 4, labeling_,
                           {p1.NewAttributeParam("page", "1")})
                  .ok());
  Pul p2 = MakePul(1);
  ASSERT_TRUE(p2.AddTreeOp(OpKind::kInsAttributes, 4, labeling_,
                           {p2.NewAttributeParam("page", "2")})
                  .ok());
  auto result = Integrate({&p1, &p2});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->conflicts.size(), 1u);
  EXPECT_EQ(result->conflicts[0].type,
            ConflictType::kRepeatedAttributeInsertion);
}

TEST_F(IntegrateTest, DistinctNameAttributeInsertionsDoNot) {
  Pul p1 = MakePul(0);
  ASSERT_TRUE(p1.AddTreeOp(OpKind::kInsAttributes, 4, labeling_,
                           {p1.NewAttributeParam("initPage", "1")})
                  .ok());
  Pul p2 = MakePul(1);
  ASSERT_TRUE(p2.AddTreeOp(OpKind::kInsAttributes, 4, labeling_,
                           {p2.NewAttributeParam("lastPage", "2")})
                  .ok());
  auto result = Integrate({&p1, &p2});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->conflicts.empty());
}

TEST_F(IntegrateTest, InsIntoNeverOrderConflicts) {
  // Type 3 excludes insInto (its position is implementation-defined
  // anyway).
  Pul p1 = MakePul(0);
  auto t1 = p1.AddFragment("<x/>");
  ASSERT_TRUE(p1.AddTreeOp(OpKind::kInsInto, 4, labeling_, {*t1}).ok());
  Pul p2 = MakePul(1);
  auto t2 = p2.AddFragment("<y/>");
  ASSERT_TRUE(p2.AddTreeOp(OpKind::kInsInto, 4, labeling_, {*t2}).ok());
  auto result = Integrate({&p1, &p2});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->conflicts.empty());
}

TEST_F(IntegrateTest, SameProducerOpsNeverConflict) {
  Pul p1 = MakePul(0);
  auto a = p1.AddFragment("<a/>");
  auto b = p1.AddFragment("<b/>");
  ASSERT_TRUE(p1.AddTreeOp(OpKind::kInsFirst, 4, labeling_, {*a}).ok());
  ASSERT_TRUE(p1.AddTreeOp(OpKind::kInsFirst, 4, labeling_, {*b}).ok());
  Pul p2 = MakePul(1);
  ASSERT_TRUE(p2.AddStringOp(OpKind::kRename, 16, labeling_, "x").ok());
  auto result = Integrate({&p1, &p2});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->conflicts.empty());
  EXPECT_EQ(result->merged.size(), 3u);
}

TEST_F(IntegrateTest, NonLocalOverrideSkipsDeletions) {
  // del under del: deleting a descendant of a deleted node is harmless.
  Pul p1 = MakePul(0);
  ASSERT_TRUE(p1.AddDelete(4, labeling_).ok());
  Pul p2 = MakePul(1);
  ASSERT_TRUE(p2.AddDelete(5, labeling_).ok());
  auto result = Integrate({&p1, &p2});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->conflicts.empty());
}

TEST_F(IntegrateTest, NonLocalOverrideAcrossLevels) {
  // repN at node 2 overrides a rename deep below (node 8's parent chain:
  // 8 < 7 < 6 < 4 < 2).
  Pul p1 = MakePul(0);
  auto n = p1.AddFragment("<n/>");
  ASSERT_TRUE(p1.AddTreeOp(OpKind::kReplaceNode, 2, labeling_, {*n}).ok());
  Pul p2 = MakePul(1);
  ASSERT_TRUE(p2.AddStringOp(OpKind::kReplaceValue, 8, labeling_, "x").ok());
  auto result = Integrate({&p1, &p2});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->conflicts.size(), 1u);
  EXPECT_EQ(result->conflicts[0].type, ConflictType::kNonLocalOverride);
}

TEST_F(IntegrateTest, RequiresLabels) {
  Pul p1 = MakePul(0);
  pul::UpdateOp op;
  op.kind = OpKind::kDelete;
  op.target = 5;
  ASSERT_TRUE(p1.AddOp(op).ok());
  Pul p2 = MakePul(1);
  ASSERT_TRUE(p2.AddDelete(4, labeling_).ok());
  EXPECT_FALSE(Integrate({&p1, &p2}).ok());
}

TEST_F(IntegrateTest, Proposition2DeterministicReducedNoConflict) {
  // Deterministically reduced PULs with empty Gamma: Delta == merge and
  // both sequential orders agree.
  Pul p1 = MakePul(0);
  auto a = p1.AddFragment("<pp>1</pp>");
  ASSERT_TRUE(p1.AddTreeOp(OpKind::kInsLast, 4, labeling_, {*a}).ok());
  ASSERT_TRUE(p1.AddStringOp(OpKind::kRename, 5, labeling_, "t2").ok());
  Pul p2 = MakePul(1);
  auto b = p2.AddFragment("<qq>2</qq>");
  ASSERT_TRUE(p2.AddTreeOp(OpKind::kInsFirst, 16, labeling_, {*b}).ok());
  ASSERT_TRUE(p2.AddStringOp(OpKind::kReplaceValue, 11, labeling_, "v").ok());

  auto r1 = Reduce(p1, {.mode = ReduceMode::kDeterministic});
  auto r2 = Reduce(p2, {.mode = ReduceMode::kDeterministic});
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  auto result = Integrate({&*r1, &*r2});
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->conflicts.empty());

  NodeId horizon = doc_.max_assigned_id();
  auto merged_set = pul::ObtainableSet(doc_, result->merged, 20000, horizon);
  ASSERT_TRUE(merged_set.ok());
  auto seq = [&](const Pul& first, const Pul& second) {
    std::set<std::string> out;
    auto mids = pul::ObtainableDocuments(doc_, first, 2000, horizon);
    EXPECT_TRUE(mids.ok());
    for (const Document& mid : *mids) {
      auto finals = pul::ObtainableSet(mid, second, 20000, horizon);
      EXPECT_TRUE(finals.ok());
      out.insert(finals->begin(), finals->end());
    }
    return out;
  };
  EXPECT_EQ(*merged_set, seq(*r1, *r2));
  EXPECT_EQ(*merged_set, seq(*r2, *r1));
}

}  // namespace
}  // namespace xupdate::core
