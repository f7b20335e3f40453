#include "core/aggregate.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "label/labeling.h"
#include "pul/apply.h"
#include "pul/obtainable.h"
#include "testing/test_docs.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xupdate::core {
namespace {

using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::Document;
using xml::NodeId;

// Document for Example 8: ids 3 (element taking the new article),
// 5 (element being renamed), 10 (text whose value changes).
Document Example8Document() {
  Document doc;
  auto e = [&](NodeId id, std::string_view name) {
    EXPECT_TRUE(doc.CreateWithId(id, xml::NodeType::kElement, name, "").ok());
  };
  e(1, "dblp");
  e(3, "proceedings");
  e(5, "conf");
  e(9, "pages");
  EXPECT_TRUE(doc.CreateWithId(10, xml::NodeType::kText, "", "12").ok());
  (void)doc.SetRoot(1);
  (void)doc.AppendChild(1, 3);
  (void)doc.AppendChild(1, 5);
  (void)doc.AppendChild(1, 9);
  (void)doc.AppendChild(9, 10);
  return doc;
}

// An op targeting a node created by an earlier PUL carries no label.
UpdateOp UnlabeledOp(OpKind kind, NodeId target) {
  UpdateOp op;
  op.kind = kind;
  op.target = target;
  return op;
}

class AggregateExample8Test : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = Example8Document();
    labeling_ = label::Labeling::Build(doc_);

    // Delta1 = {insLast(3, <article24><title25>XML26</title></article>),
    //           repV(10, '13')}
    p1_.BindIdSpace(24);
    auto article = p1_.AddFragment("<article><title>XML</title></article>");
    ASSERT_TRUE(article.ok());
    ASSERT_EQ(*article, 24u);
    ASSERT_TRUE(p1_.AddTreeOp(OpKind::kInsLast, 3, labeling_, {24}).ok());
    ASSERT_TRUE(
        p1_.AddStringOp(OpKind::kReplaceValue, 10, labeling_, "13").ok());

    // Delta2 = {insLast(24, <author27>G G28</author>,
    //                       <author29>M M30</author>), ren(5, title)}
    p2_.BindIdSpace(27);
    auto gg = p2_.AddFragment("<author>G G</author>");
    auto mm = p2_.AddFragment("<author>M M</author>");
    ASSERT_EQ(*gg, 27u);
    ASSERT_EQ(*mm, 29u);
    UpdateOp ins = UnlabeledOp(OpKind::kInsLast, 24);
    ins.param_trees = {27, 29};
    ASSERT_TRUE(p2_.AddOp(ins).ok());
    ASSERT_TRUE(p2_.AddStringOp(OpKind::kRename, 5, labeling_, "title").ok());

    // Delta3 = {repN(29, <author31>F C32</author>), ren(5, name),
    //           repV(26, 'On XML')}
    p3_.BindIdSpace(31);
    auto fc = p3_.AddFragment("<author>F C</author>");
    ASSERT_EQ(*fc, 31u);
    UpdateOp rep = UnlabeledOp(OpKind::kReplaceNode, 29);
    rep.param_trees = {31};
    ASSERT_TRUE(p3_.AddOp(rep).ok());
    ASSERT_TRUE(p3_.AddStringOp(OpKind::kRename, 5, labeling_, "name").ok());
    UpdateOp repv = UnlabeledOp(OpKind::kReplaceValue, 26);
    repv.param_string = "On XML";
    ASSERT_TRUE(p3_.AddOp(repv).ok());
  }

  const UpdateOp* FindOp(const Pul& pul, OpKind kind, NodeId target) {
    for (const UpdateOp& op : pul.ops()) {
      if (op.kind == kind && op.target == target) return &op;
    }
    return nullptr;
  }

  Document doc_;
  label::Labeling labeling_;
  Pul p1_, p2_, p3_;
};

TEST_F(AggregateExample8Test, TwoPulAggregation) {
  auto agg = Aggregate({&p1_, &p2_});
  ASSERT_TRUE(agg.ok()) << agg.status();
  EXPECT_EQ(agg->size(), 3u);
  const UpdateOp* ins = FindOp(*agg, OpKind::kInsLast, 3);
  ASSERT_NE(ins, nullptr);
  ASSERT_EQ(ins->param_trees.size(), 1u);
  auto tree = xml::SerializeSubtree(agg->forest(), ins->param_trees[0], {});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(*tree,
            "<article><title>XML</title><author>G G</author>"
            "<author>M M</author></article>");
  EXPECT_NE(FindOp(*agg, OpKind::kReplaceValue, 10), nullptr);
  EXPECT_NE(FindOp(*agg, OpKind::kRename, 5), nullptr);
}

TEST_F(AggregateExample8Test, ThreePulAggregation) {
  AggregateStats stats;
  auto agg = Aggregate({&p1_, &p2_, &p3_}, {}, &stats);
  ASSERT_TRUE(agg.ok()) << agg.status();
  // {insLast(3, article...), repV(10,'13'), ren(5,'name')}
  EXPECT_EQ(agg->size(), 3u);
  const UpdateOp* ins = FindOp(*agg, OpKind::kInsLast, 3);
  ASSERT_NE(ins, nullptr);
  auto tree = xml::SerializeSubtree(agg->forest(), ins->param_trees[0], {});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(*tree,
            "<article><title>On XML</title><author>G G</author>"
            "<author>F C</author></article>");
  const UpdateOp* ren = FindOp(*agg, OpKind::kRename, 5);
  ASSERT_NE(ren, nullptr);
  EXPECT_EQ(ren->param_string, "name");  // B3: later rename wins
  // Ids survive aggregation: author31 replaced author29.
  EXPECT_TRUE(agg->forest().Exists(31));
  EXPECT_FALSE(agg->forest().Exists(29));
  EXPECT_FALSE(agg->forest().Exists(30));
  EXPECT_GE(stats.folded_ops, 2u);  // insLast(24), repN(29), repV(26)
}

TEST_F(AggregateExample8Test, AggregateAppliesLikeSequence) {
  auto agg = Aggregate({&p1_, &p2_, &p3_});
  ASSERT_TRUE(agg.ok());
  Document via_agg = doc_;
  ASSERT_TRUE(pul::ApplyPul(&via_agg, *agg).ok());
  Document via_seq = doc_;
  ASSERT_TRUE(pul::ApplyPul(&via_seq, p1_).ok());
  ASSERT_TRUE(pul::ApplyPul(&via_seq, p2_).ok());
  ASSERT_TRUE(pul::ApplyPul(&via_seq, p3_).ok());
  EXPECT_EQ(pul::CanonicalForm(via_agg), pul::CanonicalForm(via_seq));
}

class AggregateRuleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = xml::ParseDocument("<r><p><a/><b/></p></r>");
    ASSERT_TRUE(doc.ok());
    doc_ = std::move(*doc);  // ids: r=1, p=2, a=3, b=4
    labeling_ = label::Labeling::Build(doc_);
  }

  Pul MakePul(NodeId base) {
    Pul p;
    p.BindIdSpace(base);
    return p;
  }

  Document doc_;
  label::Labeling labeling_;
};

TEST_F(AggregateRuleTest, C4InsBeforeKeepsFirstPulFirst) {
  Pul p1 = MakePul(100);
  auto t1 = p1.AddFragment("<x1/>");
  ASSERT_TRUE(p1.AddTreeOp(OpKind::kInsBefore, 3, labeling_, {*t1}).ok());
  Pul p2 = MakePul(200);
  auto t2 = p2.AddFragment("<x2/>");
  ASSERT_TRUE(p2.AddTreeOp(OpKind::kInsBefore, 3, labeling_, {*t2}).ok());
  auto agg = Aggregate({&p1, &p2});
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->size(), 1u);
  // Sequential: x1 before a, then x2 before a -> [x1, x2, a].
  ASSERT_EQ(agg->ops()[0].param_trees.size(), 2u);
  EXPECT_EQ(agg->forest().name(agg->ops()[0].param_trees[0]), "x1");
  EXPECT_EQ(agg->forest().name(agg->ops()[0].param_trees[1]), "x2");
}

TEST_F(AggregateRuleTest, C5InsAfterPutsLaterPulFirst) {
  Pul p1 = MakePul(100);
  auto t1 = p1.AddFragment("<x1/>");
  ASSERT_TRUE(p1.AddTreeOp(OpKind::kInsAfter, 3, labeling_, {*t1}).ok());
  Pul p2 = MakePul(200);
  auto t2 = p2.AddFragment("<x2/>");
  ASSERT_TRUE(p2.AddTreeOp(OpKind::kInsAfter, 3, labeling_, {*t2}).ok());
  auto agg = Aggregate({&p1, &p2});
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->size(), 1u);
  // Sequential: [a, x1] then [a, x2, x1].
  EXPECT_EQ(agg->forest().name(agg->ops()[0].param_trees[0]), "x2");
  EXPECT_EQ(agg->forest().name(agg->ops()[0].param_trees[1]), "x1");
}

TEST_F(AggregateRuleTest, B3LaterValueWins) {
  Pul p1 = MakePul(100);
  NodeId t1 = p1.NewTextParam("one");
  ASSERT_TRUE(
      p1.AddTreeOp(OpKind::kReplaceChildren, 2, labeling_, {t1}).ok());
  Pul p2 = MakePul(200);
  NodeId t2 = p2.NewTextParam("two");
  ASSERT_TRUE(
      p2.AddTreeOp(OpKind::kReplaceChildren, 2, labeling_, {t2}).ok());
  auto agg = Aggregate({&p1, &p2});
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->size(), 1u);
  EXPECT_EQ(agg->forest().value(agg->ops()[0].param_trees[0]), "two");
}

TEST_F(AggregateRuleTest, GeneralizedRepCAbsorbsLaterInsertions) {
  // Delta1 repC(p, 'text'); Delta2 insLast(p, <n/>): naive merging would
  // let the stage-4 repC wipe the stage-2 insertion; the generalized
  // repC parameter list keeps both.
  Pul p1 = MakePul(100);
  NodeId t1 = p1.NewTextParam("text");
  ASSERT_TRUE(
      p1.AddTreeOp(OpKind::kReplaceChildren, 2, labeling_, {t1}).ok());
  Pul p2 = MakePul(200);
  auto n = p2.AddFragment("<n/>");
  ASSERT_TRUE(p2.AddTreeOp(OpKind::kInsLast, 2, labeling_, {*n}).ok());
  auto agg = Aggregate({&p1, &p2});
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->size(), 1u);
  EXPECT_EQ(agg->ops()[0].kind, OpKind::kReplaceChildren);
  ASSERT_EQ(agg->ops()[0].param_trees.size(), 2u);

  Document via_agg = doc_;
  ASSERT_TRUE(pul::ApplyPul(&via_agg, *agg).ok());
  Document via_seq = doc_;
  ASSERT_TRUE(pul::ApplyPul(&via_seq, p1).ok());
  ASSERT_TRUE(pul::ApplyPul(&via_seq, p2).ok());
  EXPECT_EQ(pul::CanonicalForm(via_agg), pul::CanonicalForm(via_seq));
}

TEST_F(AggregateRuleTest, DeleteOfInsertedRootCancelsInsertion) {
  Pul p1 = MakePul(100);
  auto t = p1.AddFragment("<x/>");
  NodeId root_id = *t;
  ASSERT_TRUE(p1.AddTreeOp(OpKind::kInsLast, 2, labeling_, {root_id}).ok());
  Pul p2 = MakePul(200);
  ASSERT_TRUE(p2.AddOp(UnlabeledOp(OpKind::kDelete, root_id)).ok());
  auto agg = Aggregate({&p1, &p2});
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->size(), 1u);
  EXPECT_TRUE(agg->ops()[0].param_trees.empty());
  // Applying the aggregate is a no-op structurally.
  Document via_agg = doc_;
  ASSERT_TRUE(pul::ApplyPul(&via_agg, *agg).ok());
  EXPECT_EQ(pul::CanonicalForm(via_agg), pul::CanonicalForm(doc_));
}

TEST_F(AggregateRuleTest, SiblingInsertAroundInsertedRootSplices) {
  Pul p1 = MakePul(100);
  auto t = p1.AddFragment("<x/>");
  NodeId x = *t;
  ASSERT_TRUE(p1.AddTreeOp(OpKind::kInsLast, 2, labeling_, {x}).ok());
  Pul p2 = MakePul(200);
  auto before = p2.AddFragment("<pre/>");
  auto after = p2.AddFragment("<post/>");
  UpdateOp ib = UnlabeledOp(OpKind::kInsBefore, x);
  ib.param_trees = {*before};
  ASSERT_TRUE(p2.AddOp(ib).ok());
  UpdateOp ia = UnlabeledOp(OpKind::kInsAfter, x);
  ia.param_trees = {*after};
  ASSERT_TRUE(p2.AddOp(ia).ok());
  auto agg = Aggregate({&p1, &p2});
  ASSERT_TRUE(agg.ok()) << agg.status();
  ASSERT_EQ(agg->size(), 1u);
  const auto& params = agg->ops()[0].param_trees;
  ASSERT_EQ(params.size(), 3u);
  EXPECT_EQ(agg->forest().name(params[0]), "pre");
  EXPECT_EQ(agg->forest().name(params[1]), "x");
  EXPECT_EQ(agg->forest().name(params[2]), "post");
}

TEST_F(AggregateRuleTest, EditsInsideInsertedTree) {
  Pul p1 = MakePul(100);
  auto t = p1.AddFragment("<x><y>old</y></x>");
  NodeId x = *t;
  NodeId y = p1.forest().children(x)[0];
  NodeId ytext = p1.forest().children(y)[0];
  ASSERT_TRUE(p1.AddTreeOp(OpKind::kInsLast, 2, labeling_, {x}).ok());
  Pul p2 = MakePul(200);
  UpdateOp ren = UnlabeledOp(OpKind::kRename, y);
  ren.param_string = "why";
  ASSERT_TRUE(p2.AddOp(ren).ok());
  UpdateOp repv = UnlabeledOp(OpKind::kReplaceValue, ytext);
  repv.param_string = "new";
  ASSERT_TRUE(p2.AddOp(repv).ok());
  auto agg = Aggregate({&p1, &p2});
  ASSERT_TRUE(agg.ok()) << agg.status();
  ASSERT_EQ(agg->size(), 1u);
  auto tree = xml::SerializeSubtree(agg->forest(),
                                    agg->ops()[0].param_trees[0], {});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(*tree, "<x><why>new</why></x>");
}

TEST_F(AggregateRuleTest, StageOrderRespectedWhenFolding) {
  // Regression: Delta2 lists del(X) *before* insLast(n) where n lives
  // inside X (X inserted by Delta1). The five-stage semantics runs the
  // insertion (stage 2) before the deletion (stage 5), so the aggregate
  // must not leave a dangling operation on the erased node.
  Pul p1 = MakePul(100);
  auto t = p1.AddFragment("<X><n/></X>");
  NodeId x = *t;
  NodeId n = p1.forest().children(x)[0];
  ASSERT_TRUE(p1.AddTreeOp(OpKind::kInsLast, 2, labeling_, {x}).ok());

  Pul p2 = MakePul(200);
  ASSERT_TRUE(p2.AddOp(UnlabeledOp(OpKind::kDelete, x)).ok());
  auto m = p2.AddFragment("<m/>");
  UpdateOp ins = UnlabeledOp(OpKind::kInsLast, n);
  ins.param_trees = {*m};
  ASSERT_TRUE(p2.AddOp(ins).ok());

  auto agg = Aggregate({&p1, &p2});
  ASSERT_TRUE(agg.ok()) << agg.status();
  // Sequential: X (with n and m) inserted, then deleted -> no-op.
  Document via_agg = doc_;
  ASSERT_TRUE(pul::ApplyPul(&via_agg, *agg).ok());
  Document via_seq = doc_;
  ASSERT_TRUE(pul::ApplyPul(&via_seq, p1).ok());
  ASSERT_TRUE(pul::ApplyPul(&via_seq, p2).ok());
  EXPECT_EQ(pul::CanonicalForm(via_agg), pul::CanonicalForm(via_seq));
}

TEST_F(AggregateRuleTest, OpsOnNodesErasedBySameStageAreDropped) {
  // Two nested deletes of new nodes in one PUL: the inner one targets a
  // node the outer one erases; both are "silently complete".
  Pul p1 = MakePul(100);
  auto t = p1.AddFragment("<X><n/></X>");
  NodeId x = *t;
  NodeId n = p1.forest().children(x)[0];
  ASSERT_TRUE(p1.AddTreeOp(OpKind::kInsLast, 2, labeling_, {x}).ok());
  Pul p2 = MakePul(200);
  ASSERT_TRUE(p2.AddOp(UnlabeledOp(OpKind::kDelete, x)).ok());
  ASSERT_TRUE(p2.AddOp(UnlabeledOp(OpKind::kDelete, n)).ok());
  auto agg = Aggregate({&p1, &p2});
  ASSERT_TRUE(agg.ok()) << agg.status();
  Document via_agg = doc_;
  ASSERT_TRUE(pul::ApplyPul(&via_agg, *agg).ok());
  EXPECT_EQ(pul::CanonicalForm(via_agg), pul::CanonicalForm(doc_));
}

// Proposition 4 sweep: Aggregate(D1, D2) is substitutable to D1;D2 on
// random documents (D1 generated deterministic so the intermediate
// document is unique).
class AggregatePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AggregatePropertyTest, SubstitutableToSequentialComposition) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  Document doc = xupdate::testing::RandomDocument(rng, 12);
  label::Labeling labeling = label::Labeling::Build(doc);
  NodeId horizon = doc.max_assigned_id();

  xupdate::testing::RandomPulOptions opt1;
  opt1.max_ops = 3;
  opt1.deterministic = true;
  opt1.id_base = horizon + 1000;
  Pul p1 = xupdate::testing::RandomPul(rng, doc, labeling, opt1);
  if (p1.empty()) GTEST_SKIP();

  // Unique intermediate document (Delta1 is deterministic by
  // construction), with labels maintained for Delta2's construction.
  Document mid = doc;
  label::Labeling mid_labeling = labeling;
  pul::ApplyOptions apply_opts;
  apply_opts.labeling = &mid_labeling;
  ASSERT_TRUE(pul::ApplyPul(&mid, p1, apply_opts).ok());

  xupdate::testing::RandomPulOptions opt2;
  opt2.max_ops = 3;
  opt2.id_base = horizon + 2000;
  Pul p2 = xupdate::testing::RandomPul(rng, mid, mid_labeling, opt2);

  auto agg = Aggregate({&p1, &p2});
  ASSERT_TRUE(agg.ok()) << agg.status();

  auto agg_set = pul::ObtainableSet(doc, *agg, 20000, horizon);
  ASSERT_TRUE(agg_set.ok()) << agg_set.status();
  auto seq_set = pul::ObtainableSet(mid, p2, 20000, horizon);
  ASSERT_TRUE(seq_set.ok()) << seq_set.status();
  EXPECT_TRUE(std::includes(seq_set->begin(), seq_set->end(),
                            agg_set->begin(), agg_set->end()))
      << "aggregate not substitutable to sequential composition";
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, AggregatePropertyTest,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace xupdate::core
