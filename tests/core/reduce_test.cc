#include "core/reduce.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "label/labeling.h"
#include "obs/trace.h"
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

std::string Fingerprint(const Pul& pul, const UpdateOp& op) {
  std::string out(pul::OpKindName(op.kind));
  out += "(" + std::to_string(op.target);
  for (NodeId r : op.param_trees) {
    out += ",";
    switch (pul.forest().type(r)) {
      case xml::NodeType::kElement: {
        auto s = xml::SerializeSubtree(pul.forest(), r, {});
        out += s.ok() ? *s : "<?>";
        break;
      }
      case xml::NodeType::kText:
        out += "t'" + std::string(pul.forest().value(r)) + "'";
        break;
      case xml::NodeType::kAttribute:
        out += "@" + std::string(pul.forest().name(r)) + "=" +
               std::string(pul.forest().value(r));
        break;
    }
  }
  if (!op.param_string.empty()) out += ",'" + op.param_string + "'";
  out += ")";
  return out;
}

std::multiset<std::string> Fingerprints(const Pul& pul) {
  std::multiset<std::string> out;
  for (const UpdateOp& op : pul.ops()) out.insert(Fingerprint(pul, op));
  return out;
}

// Fixture with the doc <r><p><a/><b/><c/></p></r> (ids 1,2,3,4,5) plus
// an attribute q on p (id 6 via manual add).
class ReduceRuleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = xml::ParseDocument("<r><p q=\"0\"><a/><b/><c/></p></r>");
    ASSERT_TRUE(doc.ok());
    doc_ = std::move(*doc);
    // ids: r=1, p=2, q=3(attr), a=4, b=5, c=6
    labeling_ = label::Labeling::Build(doc_);
    pul_.BindIdSpace(100);
  }

  NodeId Frag(const char* text) {
    auto r = pul_.AddFragment(text);
    EXPECT_TRUE(r.ok());
    return *r;
  }

  // With `fired` set, also collects the names of the rules the reduction
  // traced as fired, in journal order.
  std::multiset<std::string> ReducedSet(
      ReduceMode mode = ReduceMode::kPlain,
      std::vector<std::string>* fired = nullptr) {
    obs::Tracer tracer;
    auto reduced = Reduce(
        pul_, {.mode = mode, .tracer = fired != nullptr ? &tracer : nullptr});
    if (fired != nullptr) {
      for (const obs::TraceEvent& e : tracer.SortedEvents()) {
        if (e.kind == obs::EventKind::kRuleFired) fired->push_back(e.name);
      }
    }
    EXPECT_TRUE(reduced.ok()) << reduced.status();
    if (!reduced.ok()) return {};
    // Every reduction must be substitutable to the input (Prop. 1).
    auto sub = pul::IsSubstitutable(doc_, *reduced, pul_);
    EXPECT_TRUE(sub.ok()) << sub.status();
    if (sub.ok()) {
      EXPECT_TRUE(*sub);
    }
    return Fingerprints(*reduced);
  }

  // One merge-rule case: in plain, deterministic and canonical mode the
  // input reduces to `expected` by exactly one firing of `rule`. The
  // worklist driver serves the first two modes and the canonical stepper
  // the third, so each case exercises its rule through both.
  void ExpectMerge(const char* rule,
                   const std::multiset<std::string>& expected) {
    for (ReduceMode mode : {ReduceMode::kPlain, ReduceMode::kDeterministic,
                            ReduceMode::kCanonical}) {
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
      std::vector<std::string> fired;
      EXPECT_EQ(ReducedSet(mode, &fired), expected);
      EXPECT_EQ(fired, std::vector<std::string>{rule});
    }
  }

  Document doc_;
  label::Labeling labeling_;
  Pul pul_;
};

TEST_F(ReduceRuleTest, O1SameTargetOverriddenByDelete) {
  ASSERT_TRUE(pul_.AddStringOp(OpKind::kRename, 4, labeling_, "x").ok());
  ASSERT_TRUE(pul_.AddDelete(4, labeling_).ok());
  EXPECT_EQ(ReducedSet(), (std::multiset<std::string>{"del(4)"}));
}

TEST_F(ReduceRuleTest, O1DeleteOverriddenByRepN) {
  ASSERT_TRUE(pul_.AddDelete(4, labeling_).ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kReplaceNode, 4, labeling_, {Frag("<n/>")})
          .ok());
  EXPECT_EQ(ReducedSet(), (std::multiset<std::string>{"repN(4,<n/>)"}));
}

TEST_F(ReduceRuleTest, O1DuplicateDeletesCollapse) {
  ASSERT_TRUE(pul_.AddDelete(4, labeling_).ok());
  ASSERT_TRUE(pul_.AddDelete(4, labeling_).ok());
  EXPECT_EQ(ReducedSet(), (std::multiset<std::string>{"del(4)"}));
}

TEST_F(ReduceRuleTest, O1SiblingInsertionsSurvive) {
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsBefore, 4, labeling_, {Frag("<n/>")}).ok());
  ASSERT_TRUE(pul_.AddDelete(4, labeling_).ok());
  EXPECT_EQ(ReducedSet(),
            (std::multiset<std::string>{"insBefore(4,<n/>)", "del(4)"}));
}

TEST_F(ReduceRuleTest, O2ChildInsertionOverriddenByRepC) {
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsLast, 2, labeling_, {Frag("<n/>")}).ok());
  NodeId t = pul_.NewTextParam("z");
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kReplaceChildren, 2, labeling_, {t}).ok());
  EXPECT_EQ(ReducedSet(), (std::multiset<std::string>{"repC(2,t'z')"}));
}

TEST_F(ReduceRuleTest, O3DescendantOpsOverriddenByAncestorDelete) {
  ASSERT_TRUE(pul_.AddStringOp(OpKind::kRename, 4, labeling_, "x").ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsBefore, 5, labeling_, {Frag("<n/>")}).ok());
  ASSERT_TRUE(pul_.AddDelete(2, labeling_).ok());
  EXPECT_EQ(ReducedSet(), (std::multiset<std::string>{"del(2)"}));
}

TEST_F(ReduceRuleTest, O3NestedDeleteCollapses) {
  ASSERT_TRUE(pul_.AddDelete(4, labeling_).ok());
  ASSERT_TRUE(pul_.AddDelete(2, labeling_).ok());
  EXPECT_EQ(ReducedSet(), (std::multiset<std::string>{"del(2)"}));
}

TEST_F(ReduceRuleTest, O4DescendantOverriddenByAncestorRepCButNotItsAttribute) {
  ASSERT_TRUE(pul_.AddStringOp(OpKind::kRename, 4, labeling_, "x").ok());
  // The attribute q (id 3) of p is NOT overridden by repC(p).
  ASSERT_TRUE(
      pul_.AddStringOp(OpKind::kReplaceValue, 3, labeling_, "9").ok());
  NodeId t = pul_.NewTextParam("z");
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kReplaceChildren, 2, labeling_, {t}).ok());
  EXPECT_EQ(ReducedSet(),
            (std::multiset<std::string>{"repV(3,'9')", "repC(2,t'z')"}));
}

TEST_F(ReduceRuleTest, I5CollapsesSameKindInsertions) {
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsLast, 2, labeling_, {Frag("<n1/>")}).ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsLast, 2, labeling_, {Frag("<n2/>")}).ok());
  ExpectMerge("I5", {"insLast(2,<n1/>,<n2/>)"});
}

TEST_F(ReduceRuleTest, I5CollapsesAttributeInsertions) {
  ASSERT_TRUE(pul_.AddTreeOp(OpKind::kInsAttributes, 2, labeling_,
                             {pul_.NewAttributeParam("k1", "1")})
                  .ok());
  ASSERT_TRUE(pul_.AddTreeOp(OpKind::kInsAttributes, 2, labeling_,
                             {pul_.NewAttributeParam("k2", "2")})
                  .ok());
  ExpectMerge("I5", {"insAttr(2,@k1=1,@k2=2)"});
}

TEST_F(ReduceRuleTest, I6InsIntoPlusInsFirst) {
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsInto, 2, labeling_, {Frag("<i/>")}).ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsFirst, 2, labeling_, {Frag("<f/>")}).ok());
  ExpectMerge("I6", {"insFirst(2,<f/>,<i/>)"});
}

TEST_F(ReduceRuleTest, I7InsIntoPlusInsLast) {
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsInto, 2, labeling_, {Frag("<i/>")}).ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsLast, 2, labeling_, {Frag("<l/>")}).ok());
  ExpectMerge("I7", {"insLast(2,<i/>,<l/>)"});
}

TEST_F(ReduceRuleTest, IR8RepNAbsorbsInsBefore) {
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kReplaceNode, 5, labeling_, {Frag("<n/>")})
          .ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsBefore, 5, labeling_, {Frag("<b/>")}).ok());
  ExpectMerge("IR8", {"repN(5,<b/>,<n/>)"});
}

TEST_F(ReduceRuleTest, IR9RepNAbsorbsInsAfter) {
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kReplaceNode, 5, labeling_, {Frag("<n/>")})
          .ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsAfter, 5, labeling_, {Frag("<a/>")}).ok());
  ExpectMerge("IR9", {"repN(5,<n/>,<a/>)"});
}

TEST_F(ReduceRuleTest, I10InsIntoPlusInsBeforeChild) {
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsInto, 2, labeling_, {Frag("<i/>")}).ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsBefore, 5, labeling_, {Frag("<b/>")}).ok());
  ExpectMerge("I10", {"insBefore(5,<i/>,<b/>)"});
}

TEST_F(ReduceRuleTest, I11InsIntoPlusInsAfterChild) {
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsInto, 2, labeling_, {Frag("<i/>")}).ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsAfter, 5, labeling_, {Frag("<a/>")}).ok());
  ExpectMerge("I11", {"insAfter(5,<a/>,<i/>)"});
}

TEST_F(ReduceRuleTest, IR12RepNChildAbsorbsInsInto) {
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kReplaceNode, 5, labeling_, {Frag("<n/>")})
          .ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsInto, 2, labeling_, {Frag("<i/>")}).ok());
  ExpectMerge("IR12", {"repN(5,<n/>,<i/>)"});
}

TEST_F(ReduceRuleTest, IR13RepNAttributeAbsorbsInsA) {
  NodeId na = pul_.NewAttributeParam("q2", "7");
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kReplaceNode, 3, labeling_, {na}).ok());
  ASSERT_TRUE(pul_.AddTreeOp(OpKind::kInsAttributes, 2, labeling_,
                             {pul_.NewAttributeParam("k", "1")})
                  .ok());
  ExpectMerge("IR13", {"repN(3,@q2=7,@k=1)"});
}

TEST_F(ReduceRuleTest, I14InsBeforeFirstChildAbsorbsInsFirst) {
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsBefore, 4, labeling_, {Frag("<b/>")}).ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsFirst, 2, labeling_, {Frag("<f/>")}).ok());
  ExpectMerge("I14", {"insBefore(4,<f/>,<b/>)"});
}

TEST_F(ReduceRuleTest, I15InsAfterLastChildAbsorbsInsLast) {
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsAfter, 6, labeling_, {Frag("<a/>")}).ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsLast, 2, labeling_, {Frag("<l/>")}).ok());
  ExpectMerge("I15", {"insAfter(6,<a/>,<l/>)"});
}

TEST_F(ReduceRuleTest, IR16RepNFirstChildAbsorbsInsFirst) {
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kReplaceNode, 4, labeling_, {Frag("<n/>")})
          .ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsFirst, 2, labeling_, {Frag("<f/>")}).ok());
  ExpectMerge("IR16", {"repN(4,<f/>,<n/>)"});
}

TEST_F(ReduceRuleTest, IR17RepNLastChildAbsorbsInsLast) {
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kReplaceNode, 6, labeling_, {Frag("<n/>")})
          .ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsLast, 2, labeling_, {Frag("<l/>")}).ok());
  ExpectMerge("IR17", {"repN(6,<n/>,<l/>)"});
}

TEST_F(ReduceRuleTest, I18InsBeforePlusInsAfterLeftSibling) {
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsBefore, 5, labeling_, {Frag("<b/>")}).ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsAfter, 4, labeling_, {Frag("<a/>")}).ok());
  ExpectMerge("I18", {"insBefore(5,<a/>,<b/>)"});
}

TEST_F(ReduceRuleTest, IR19RepNPlusInsAfterLeftSibling) {
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kReplaceNode, 5, labeling_, {Frag("<n/>")})
          .ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsAfter, 4, labeling_, {Frag("<a/>")}).ok());
  ExpectMerge("IR19", {"repN(5,<a/>,<n/>)"});
}

TEST_F(ReduceRuleTest, IR20RepNPlusInsBeforeRightSibling) {
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kReplaceNode, 4, labeling_, {Frag("<n/>")})
          .ok());
  ASSERT_TRUE(
      pul_.AddTreeOp(OpKind::kInsBefore, 5, labeling_, {Frag("<b/>")}).ok());
  ExpectMerge("IR20", {"repN(4,<n/>,<b/>)"});
}

TEST_F(ReduceRuleTest, UnrelatedOpsUntouched) {
  ASSERT_TRUE(pul_.AddStringOp(OpKind::kRename, 4, labeling_, "x").ok());
  ASSERT_TRUE(pul_.AddStringOp(OpKind::kReplaceValue, 3, labeling_, "1").ok());
  ASSERT_TRUE(pul_.AddDelete(6, labeling_).ok());
  EXPECT_EQ(ReducedSet(),
            (std::multiset<std::string>{"ren(4,'x')", "repV(3,'1')",
                                        "del(6)"}));
}

TEST_F(ReduceRuleTest, IncompatibleInputRejected) {
  ASSERT_TRUE(pul_.AddStringOp(OpKind::kRename, 4, labeling_, "x").ok());
  ASSERT_TRUE(pul_.AddStringOp(OpKind::kRename, 4, labeling_, "y").ok());
  EXPECT_EQ(Reduce(pul_).status().code(), StatusCode::kIncompatible);
}

TEST_F(ReduceRuleTest, EmptyPulReducesToEmpty) {
  auto reduced = Reduce(pul_);
  ASSERT_TRUE(reduced.ok());
  EXPECT_TRUE(reduced->empty());
}

TEST_F(ReduceRuleTest, StatsReportApplications) {
  ASSERT_TRUE(pul_.AddStringOp(OpKind::kRename, 4, labeling_, "x").ok());
  ASSERT_TRUE(pul_.AddDelete(4, labeling_).ok());
  ReduceStats stats;
  auto reduced = Reduce(pul_, {}, &stats);
  ASSERT_TRUE(reduced.ok());
  EXPECT_EQ(stats.input_ops, 2u);
  EXPECT_EQ(stats.output_ops, 1u);
  EXPECT_GE(stats.rule_applications, 1u);
}

// Random property sweep: for random (doc, PUL) pairs, every reduction
// mode yields a substitutable PUL; deterministic reductions have a
// singleton obtainable set; canonical forms are shuffle-invariant.
class ReducePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ReducePropertyTest, ReductionContracts) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  Document doc = xupdate::testing::RandomDocument(rng, 14);
  label::Labeling labeling = label::Labeling::Build(doc);

  Pul pul;
  pul.BindIdSpace(doc.max_assigned_id() + 1);
  std::vector<NodeId> nodes = doc.AllNodesInOrder();
  std::set<std::pair<NodeId, int>> used_rep;
  int fresh = 0;
  size_t target_ops = 2 + rng.Below(5);
  int guard = 0;
  while (pul.size() < target_ops && ++guard < 200) {
    NodeId target = nodes[static_cast<size_t>(rng.Below(nodes.size()))];
    OpKind kind = static_cast<OpKind>(rng.Below(pul::kNumOpKinds));
    // Respect applicability conditions.
    xml::NodeType tt = doc.type(target);
    auto frag = [&]() {
      auto r =
          pul.AddFragment("<g" + std::to_string(fresh++) + "/>");
      return *r;
    };
    switch (kind) {
      case OpKind::kInsBefore:
      case OpKind::kInsAfter:
        if (tt == xml::NodeType::kAttribute || target == doc.root()) break;
        (void)pul.AddTreeOp(kind, target, labeling, {frag()});
        break;
      case OpKind::kInsFirst:
      case OpKind::kInsLast:
      case OpKind::kInsInto:
        if (tt != xml::NodeType::kElement) break;
        (void)pul.AddTreeOp(kind, target, labeling, {frag()});
        break;
      case OpKind::kInsAttributes:
        if (tt != xml::NodeType::kElement) break;
        (void)pul.AddTreeOp(
            kind, target, labeling,
            {pul.NewAttributeParam("g" + std::to_string(fresh++), "v")});
        break;
      case OpKind::kDelete:
        if (target == doc.root()) break;
        (void)pul.AddDelete(target, labeling);
        break;
      case OpKind::kReplaceNode: {
        if (target == doc.root()) break;
        if (!used_rep.insert({target, static_cast<int>(kind)}).second) break;
        if (tt == xml::NodeType::kAttribute) {
          (void)pul.AddTreeOp(
              kind, target, labeling,
              {pul.NewAttributeParam("r" + std::to_string(fresh++), "v")});
        } else {
          (void)pul.AddTreeOp(kind, target, labeling, {frag()});
        }
        break;
      }
      case OpKind::kReplaceValue:
        if (tt == xml::NodeType::kElement) break;
        if (!used_rep.insert({target, static_cast<int>(kind)}).second) break;
        (void)pul.AddStringOp(kind, target, labeling, "nv");
        break;
      case OpKind::kReplaceChildren: {
        if (tt != xml::NodeType::kElement) break;
        if (!used_rep.insert({target, static_cast<int>(kind)}).second) break;
        NodeId t = pul.NewTextParam("ct");
        (void)pul.AddTreeOp(kind, target, labeling, {t});
        break;
      }
      case OpKind::kRename:
        if (tt == xml::NodeType::kText) break;
        if (!used_rep.insert({target, static_cast<int>(kind)}).second) break;
        (void)pul.AddStringOp(kind, target, labeling, "rn");
        break;
    }
  }
  if (pul.empty()) GTEST_SKIP() << "empty random PUL";

  // Proposition 1's cardinality chain: |O(D)| >= |O(D^O)| >= |O(D^H)| = 1.
  auto original_set = pul::ObtainableSet(doc, pul);
  ASSERT_TRUE(original_set.ok()) << original_set.status();
  for (ReduceMode mode : {ReduceMode::kPlain, ReduceMode::kDeterministic,
                          ReduceMode::kCanonical}) {
    auto reduced = Reduce(pul, {.mode = mode});
    ASSERT_TRUE(reduced.ok()) << reduced.status();
    auto sub = pul::IsSubstitutable(doc, *reduced, pul);
    ASSERT_TRUE(sub.ok()) << sub.status();
    EXPECT_TRUE(*sub) << "mode " << static_cast<int>(mode);
    auto set = pul::ObtainableSet(doc, *reduced);
    ASSERT_TRUE(set.ok());
    EXPECT_LE(set->size(), original_set->size())
        << "mode " << static_cast<int>(mode);
    if (mode != ReduceMode::kPlain) {
      EXPECT_EQ(set->size(), 1u) << "mode " << static_cast<int>(mode);
    }
    // Idempotence.
    auto twice = Reduce(*reduced, {.mode = mode});
    ASSERT_TRUE(twice.ok());
    EXPECT_EQ(Fingerprints(*twice), Fingerprints(*reduced));
  }
  // Canonical shuffle invariance.
  auto baseline = Reduce(pul, {.mode = ReduceMode::kCanonical});
  ASSERT_TRUE(baseline.ok());
  Pul shuffled = pul;
  rng.Shuffle(shuffled.mutable_ops());
  auto again = Reduce(shuffled, {.mode = ReduceMode::kCanonical});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(Fingerprints(*again), Fingerprints(*baseline));
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, ReducePropertyTest,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace xupdate::core
