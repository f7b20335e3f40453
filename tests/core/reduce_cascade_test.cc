// Multi-stage reduction cascades: rule applications in late stages can
// re-enable early-stage rules; the reducer runs stages 1-9 to a global
// fixpoint (see DESIGN.md). These tests pin the cascading behaviour.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/reduce.h"
#include "label/labeling.h"
#include "pul/obtainable.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xupdate::core {
namespace {

using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::Document;
using xml::NodeId;

class CascadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ids: r=1, p=2, a=3, b=4, c=5
    auto doc = xml::ParseDocument("<r><p><a/><b/><c/></p></r>");
    ASSERT_TRUE(doc.ok());
    doc_ = std::move(*doc);
    labeling_ = label::Labeling::Build(doc_);
    pul_.BindIdSpace(100);
  }

  NodeId Frag(const char* text) {
    auto r = pul_.AddFragment(text);
    EXPECT_TRUE(r.ok());
    return *r;
  }

  std::multiset<std::string> Reduced(ReduceMode mode = ReduceMode::kPlain) {
    auto reduced = Reduce(pul_, {.mode = mode});
    EXPECT_TRUE(reduced.ok()) << reduced.status();
    if (!reduced.ok()) return {};
    auto sub = pul::IsSubstitutable(doc_, *reduced, pul_);
    EXPECT_TRUE(sub.ok()) << sub.status();
    if (sub.ok()) {
      EXPECT_TRUE(*sub);
    }
    std::multiset<std::string> out;
    for (const UpdateOp& op : reduced->ops()) {
      std::string s(pul::OpKindName(op.kind));
      s += "(" + std::to_string(op.target);
      for (NodeId r : op.param_trees) {
        auto text = xml::SerializeSubtree(reduced->forest(), r, {});
        s += "," + (text.ok() ? *text : "?");
      }
      s += ")";
      out.insert(std::move(s));
    }
    return out;
  }

  Document doc_;
  label::Labeling labeling_;
  Pul pul_;
};

TEST_F(CascadeTest, LateStageMergeReenablesI5) {
  // insAfter(c) exists; insLast(p) turns into insAfter(c) by I15
  // (stage 8), which must then collapse with the original by I5
  // (stage 1) — requires the global fixpoint loop.
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsAfter, 5, labeling_, {Frag("<x1/>")}).ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsLast, 2, labeling_, {Frag("<x2/>")}).ok());
  EXPECT_EQ(Reduced(),
            (std::multiset<std::string>{"insAfter(5,<x1/>,<x2/>)"}));
}

TEST_F(CascadeTest, InsIntoChainsThroughInsFirstIntoInsBefore) {
  // I6: insInto(p) + insFirst(p) -> insFirst(p,[f,i]); then I14 with
  // insBefore(a) (a = first child): insBefore(a, [first-trees, b]).
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsInto, 2, labeling_, {Frag("<i/>")}).ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsFirst, 2, labeling_, {Frag("<f/>")}).ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsBefore, 3, labeling_, {Frag("<b0/>")})
          .ok());
  EXPECT_EQ(Reduced(),
            (std::multiset<std::string>{"insBefore(3,<f/>,<i/>,<b0/>)"}));
}

TEST_F(CascadeTest, RepNSwallowsNeighborhood) {
  // repN(b) absorbs: insBefore(b) [IR8], insAfter(b) [IR9], then via
  // siblings: insAfter(a) [IR19] and insBefore(c) [IR20].
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kReplaceNode, 4, labeling_, {Frag("<n/>")})
          .ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsBefore, 4, labeling_, {Frag("<p1/>")})
          .ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsAfter, 4, labeling_, {Frag("<p2/>")})
          .ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsAfter, 3, labeling_, {Frag("<p3/>")})
          .ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsBefore, 5, labeling_, {Frag("<p4/>")})
          .ok());
  auto result = Reduced();
  ASSERT_EQ(result.size(), 1u);
  // All five operations fold into one repN on node 4; parameter order
  // depends on rule order, so check the shape loosely.
  EXPECT_EQ(result.begin()->substr(0, 7), "repN(4,");
  EXPECT_NE(result.begin()->find("<n/>"), std::string::npos);
  EXPECT_NE(result.begin()->find("<p4/>"), std::string::npos);
}

TEST_F(CascadeTest, OverrideCascadesIntoMerges) {
  // del(p) kills everything on/under p; an unrelated pair on r's other
  // side still merges.
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsLast, 3, labeling_, {Frag("<x/>")}).ok());
  ASSERT_TRUE(pul_.AddStringOp(OpKind::kRename, 4, labeling_, "z").ok());
  ASSERT_TRUE(pul_.AddDelete(2, labeling_).ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsAfter, 2, labeling_, {Frag("<s1/>")}).ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsAfter, 2, labeling_, {Frag("<s2/>")}).ok());
  EXPECT_EQ(Reduced(),
            (std::multiset<std::string>{"del(2)",
                                        "insAfter(2,<s1/>,<s2/>)"}));
}

TEST_F(CascadeTest, DeterministicReductionOfPureInsIntoPair) {
  // Two insIntos on different nodes: stage 10 converts both, and the
  // converted insFirst on p then absorbs nothing else.
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsInto, 2, labeling_, {Frag("<i1/>")}).ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsInto, 3, labeling_, {Frag("<i2/>")}).ok());
  EXPECT_EQ(Reduced(ReduceMode::kDeterministic),
            (std::multiset<std::string>{"insFirst(2,<i1/>)",
                                        "insFirst(3,<i2/>)"}));
}

TEST_F(CascadeTest, Stage10ConversionFeedsI5) {
  // After stage 10 the converted insFirst meets an existing insBefore
  // of the first child (I14) — the post-conversion fixpoint pass must
  // run for the PUL to become fully merged.
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsInto, 2, labeling_, {Frag("<i/>")}).ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsBefore, 3, labeling_, {Frag("<b0/>")})
          .ok());
  // Plain reduction merges them via I10 already; deterministic must give
  // the same single op (not an insFirst + insBefore pair).
  auto det = Reduced(ReduceMode::kDeterministic);
  ASSERT_EQ(det.size(), 1u);
  EXPECT_EQ(det.begin()->substr(0, 12), "insBefore(3,");
}

}  // namespace
}  // namespace xupdate::core
