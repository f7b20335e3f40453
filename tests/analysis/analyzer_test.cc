// Golden and property tests for the static PUL analyzer: lint
// diagnostics on pathological PULs, reduction-effect prediction bounds,
// and the pairwise independence verdicts.

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "analysis/independence.h"
#include "analysis/lint.h"
#include "analysis/predict.h"
#include "analysis/report.h"
#include "common/random.h"
#include "core/integrate.h"
#include "core/reduce.h"
#include "label/labeling.h"
#include "pul/pul_io.h"
#include "testing/test_docs.h"

namespace xupdate::analysis {
namespace {

using pul::OpKind;
using pul::Pul;
using xml::Document;
using xml::NodeId;

class AnalyzerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = xupdate::testing::PaperFigureDocument();
    labeling_ = label::Labeling::Build(doc_);
  }

  Pul MakePul(int producer = 0) {
    Pul p;
    p.BindIdSpace(doc_.max_assigned_id() + 1 +
                  static_cast<NodeId>(producer) * 1000);
    return p;
  }

  // Codes of the report, in order, as one space-separated string.
  static std::string Codes(const DiagnosticReport& report) {
    std::string out;
    for (const Diagnostic& d : report) {
      if (!out.empty()) out += " ";
      out += d.code;
    }
    return out;
  }

  Document doc_;
  label::Labeling labeling_;
};

// --- Lint -----------------------------------------------------------------

TEST_F(AnalyzerTest, CleanPulHasNoFindings) {
  // Canonically ordered (3 < 5 < 7 in document order), disjoint targets.
  Pul p = MakePul();
  ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 3, labeling_, "vol").ok());
  ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 5, labeling_, "caption").ok());
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsAttributes, 7, labeling_,
                          {p.NewAttributeParam("id", "a1")})
                  .ok());
  EXPECT_TRUE(LintPul(p).empty());
}

TEST_F(AnalyzerTest, DuplicateReplacementIsError) {
  Pul p = MakePul();
  ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 5, labeling_, "one").ok());
  // AddOp-level compatibility is the caller's concern; build the raw op
  // so the lint pass sees the Definition 3 violation.
  pul::UpdateOp dup;
  dup.kind = OpKind::kRename;
  dup.target = 5;
  dup.target_label = p.ops()[0].target_label;
  dup.param_string = "two";
  ASSERT_TRUE(p.AddOp(dup).ok());
  DiagnosticReport report = LintPul(p);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].code, kCodeDuplicateReplacement);
  EXPECT_EQ(report[0].severity, Severity::kError);
  EXPECT_EQ(report[0].op_index, 1);
  EXPECT_EQ(report[0].related_op, 0);
  EXPECT_TRUE(HasSeverity(report, Severity::kError));
}

TEST_F(AnalyzerTest, OpInsideDeletedSubtreeIsWarning) {
  // del(4) erases the whole article subtree; ren(5) targets its title.
  Pul p = MakePul();
  ASSERT_TRUE(p.AddDelete(4, labeling_).ok());
  ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 5, labeling_, "t").ok());
  DiagnosticReport report = LintPul(p);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].code, kCodeOverriddenBySubtreeOp);
  EXPECT_EQ(report[0].severity, Severity::kWarning);
  EXPECT_EQ(report[0].op_index, 1);
  EXPECT_EQ(report[0].related_op, 0);
}

TEST_F(AnalyzerTest, RepCAttributeExceptionSuppressesXU002) {
  // repC(7) replaces author's children; its attribute 9 survives, so
  // insA-style ops on 9 are NOT dead — here repV(9) keeps its meaning.
  Pul p = MakePul();
  ASSERT_TRUE(p.AddTreeOp(OpKind::kReplaceChildren, 7, labeling_,
                          {p.NewTextParam("new content")})
                  .ok());
  ASSERT_TRUE(p.AddStringOp(OpKind::kReplaceValue, 9, labeling_, "01").ok());
  // Text node 8 (a child of 7) IS replaced.
  ASSERT_TRUE(p.AddStringOp(OpKind::kReplaceValue, 8, labeling_, "X").ok());
  DiagnosticReport report = LintPul(p);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].code, kCodeOverriddenBySubtreeOp);
  EXPECT_EQ(report[0].op_index, 2);
}

// XU002 as a plain scan over ops x killers: the reference the indexed
// sweep in LintPul must match diagnostic for diagnostic.
std::vector<std::pair<int, int>> ReferenceOverridden(const Pul& pul) {
  std::vector<std::pair<int, int>> out;
  const auto& ops = pul.ops();
  for (size_t i = 0; i < ops.size(); ++i) {
    const pul::UpdateOp& op = ops[i];
    if (!op.target_label.valid()) continue;
    for (size_t k = 0; k < ops.size(); ++k) {
      const pul::UpdateOp& killer = ops[k];
      if (!killer.target_label.valid()) continue;
      if (killer.kind != OpKind::kDelete &&
          killer.kind != OpKind::kReplaceNode &&
          killer.kind != OpKind::kReplaceChildren) {
        continue;
      }
      if (k == i || killer.target == op.target) continue;
      if (!label::IsDescendantOf(op.target_label, killer.target_label)) {
        continue;
      }
      if (killer.kind == OpKind::kReplaceChildren &&
          op.target_label.parent == killer.target &&
          op.target_label.type == xml::NodeType::kAttribute) {
        continue;
      }
      out.emplace_back(static_cast<int>(i), static_cast<int>(k));
      break;
    }
  }
  return out;
}

// Random ops whose targets and labels are drawn independently, from two
// unrelated documents: crossing (non-nested) label intervals, killers
// sharing a target, and repC over an attribute's parent all occur.
TEST_F(AnalyzerTest, OverriddenBySubtreeMatchesPlainScan) {
  const OpKind kinds[] = {OpKind::kDelete,       OpKind::kReplaceNode,
                          OpKind::kReplaceChildren, OpKind::kReplaceValue,
                          OpKind::kRename,       OpKind::kDelete};
  size_t reported = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    Document a = xupdate::testing::RandomDocument(rng, 40);
    Document b = xupdate::testing::RandomDocument(rng, 40);
    label::Labeling la = label::Labeling::Build(a);
    label::Labeling lb = label::Labeling::Build(b);
    std::vector<NodeId> na = a.AllNodesInOrder();
    std::vector<NodeId> nb = b.AllNodesInOrder();
    Pul p = MakePul();
    const size_t num_ops = 1 + rng.Below(seed % 4 == 0 ? 400 : 40);
    for (size_t n = 0; n < num_ops; ++n) {
      pul::UpdateOp op;
      op.kind = kinds[rng.Below(std::size(kinds))];
      bool from_b = rng.Below(4) == 0;
      const std::vector<NodeId>& nodes = from_b ? nb : na;
      NodeId labelled = nodes[rng.Below(nodes.size())];
      op.target_label = *(from_b ? lb : la).Get(labelled);
      // Mostly the labelled node itself; sometimes the label's parent or
      // any node of `a`, to collide with other killers' targets.
      switch (rng.Below(4)) {
        case 0:
          op.target = op.target_label.parent != xml::kInvalidNode
                          ? op.target_label.parent
                          : labelled;
          break;
        case 1:
          op.target = na[rng.Below(na.size())];
          break;
        default:
          op.target = labelled;
      }
      if (rng.Below(20) == 0) op.target_label = label::NodeLabel();
      p.mutable_ops().push_back(std::move(op));
    }
    std::vector<std::pair<int, int>> got;
    DiagnosticReport report = LintPul(p);
    for (const Diagnostic& d : report) {
      if (std::string(d.code) == kCodeOverriddenBySubtreeOp) {
        got.emplace_back(d.op_index, d.related_op);
      }
    }
    std::vector<std::pair<int, int>> want = ReferenceOverridden(p);
    EXPECT_EQ(got, want) << "seed " << seed;
    reported += want.size();
  }
  EXPECT_GT(reported, 1000u);
}

TEST_F(AnalyzerTest, SiblingInsertionOnAttributeIsDangling) {
  Pul p = MakePul();
  auto frag = p.AddFragment("<x/>");
  ASSERT_TRUE(frag.ok());
  ASSERT_TRUE(
      p.AddTreeOp(OpKind::kInsBefore, 9, labeling_, {*frag}).ok());
  DiagnosticReport report = LintPul(p);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].code, kCodeDanglingSiblingRef);
}

TEST_F(AnalyzerTest, SiblingInsertionOnRootIsDangling) {
  Pul p = MakePul();
  auto frag = p.AddFragment("<x/>");
  ASSERT_TRUE(frag.ok());
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsAfter, 1, labeling_, {*frag}).ok());
  DiagnosticReport report = LintPul(p);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].code, kCodeDanglingSiblingRef);
}

TEST_F(AnalyzerTest, NonCanonicalOrderReportedOnce) {
  // Targets 14, 5, 3 — two inversions, one finding (the first).
  Pul p = MakePul();
  ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 14, labeling_, "a").ok());
  ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 5, labeling_, "b").ok());
  ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 3, labeling_, "c").ok());
  DiagnosticReport report = LintPul(p);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].code, kCodeNonCanonicalOrder);
  EXPECT_EQ(report[0].severity, Severity::kInfo);
  EXPECT_EQ(report[0].op_index, 1);
  EXPECT_EQ(report[0].related_op, 0);
}

TEST_F(AnalyzerTest, DuplicateAttributeAcrossOpsIsWarning) {
  Pul p = MakePul();
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsAttributes, 4, labeling_,
                          {p.NewAttributeParam("initPage", "1")})
                  .ok());
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsAttributes, 4, labeling_,
                          {p.NewAttributeParam("initPage", "2")})
                  .ok());
  DiagnosticReport report = LintPul(p);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].code, kCodeDuplicateAttribute);
  EXPECT_EQ(report[0].op_index, 1);
  EXPECT_EQ(report[0].related_op, 0);
}

TEST_F(AnalyzerTest, DuplicateAttributeWithinOneOpIsWarning) {
  Pul p = MakePul();
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsAttributes, 4, labeling_,
                          {p.NewAttributeParam("lang", "en"),
                           p.NewAttributeParam("lang", "fr")})
                  .ok());
  DiagnosticReport report = LintPul(p);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].code, kCodeDuplicateAttribute);
  EXPECT_EQ(report[0].op_index, 0);
}

TEST_F(AnalyzerTest, MissingLabelAndEmptyRepNAreInfos) {
  Pul p = MakePul();
  pul::UpdateOp no_label;
  no_label.kind = OpKind::kReplaceNode;
  no_label.target = 14;  // label left invalid: aggregation-created node
  ASSERT_TRUE(p.AddOp(no_label).ok());
  DiagnosticReport report = LintPul(p);
  EXPECT_EQ(Codes(report), "XU006 XU007");
  EXPECT_FALSE(HasSeverity(report, Severity::kWarning));
}

// The full pathological-PUL report as rendered JSON — one golden string
// covering code/severity/anchor stability and JSON shape at once.
TEST_F(AnalyzerTest, GoldenDiagnosticReportJson) {
  Pul p = MakePul();
  ASSERT_TRUE(p.AddDelete(4, labeling_).ok());                    // killer
  ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 5, labeling_, "x").ok());
  pul::UpdateOp dup;                                              // XU001
  dup.kind = OpKind::kRename;
  dup.target = 5;
  dup.target_label = p.ops()[1].target_label;
  dup.param_string = "y";
  ASSERT_TRUE(p.AddOp(dup).ok());
  DiagnosticReport report = LintPul(p);
  EXPECT_EQ(Codes(report), "XU002 XU001 XU002");
  EXPECT_EQ(
      DiagnosticsToJson(report),
      "[{\"code\":\"XU002\",\"severity\":\"warning\",\"op\":1,\"related\":0,"
      "\"message\":\"op 1 (ren on node 5) targets a node inside the subtree "
      "that op 0 (del) removes; reduction erases it\"},"
      "{\"code\":\"XU001\",\"severity\":\"error\",\"op\":2,\"related\":1,"
      "\"message\":\"op 2 (ren on node 5) repeats the replacement of op 1; "
      "the PUL violates Definition 3\"},"
      "{\"code\":\"XU002\",\"severity\":\"warning\",\"op\":2,\"related\":0,"
      "\"message\":\"op 2 (ren on node 5) targets a node inside the subtree "
      "that op 0 (del) removes; reduction erases it\"}]");
}

TEST_F(AnalyzerTest, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(JsonEscape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
}

// --- Prediction -----------------------------------------------------------

TEST_F(AnalyzerTest, EmptyPulPredictsIdentity) {
  Pul p = MakePul();
  ReductionPrediction pred = PredictReduction(p);
  EXPECT_TRUE(pred.no_rule_can_fire);
  EXPECT_EQ(pred.input_ops, 0u);
  EXPECT_EQ(pred.surviving_upper_bound, 0u);
}

TEST_F(AnalyzerTest, UnrelatedOpsPredictIdentity) {
  // ren(3) and repV(13): different subtrees, no parent/sibling link.
  Pul p = MakePul();
  ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 3, labeling_, "v").ok());
  ASSERT_TRUE(p.AddStringOp(OpKind::kReplaceValue, 13, labeling_, "9").ok());
  ReductionPrediction pred = PredictReduction(p);
  EXPECT_TRUE(pred.no_rule_can_fire);
  EXPECT_EQ(pred.surviving_upper_bound, 2u);
  EXPECT_EQ(pred.guaranteed_kills, 0u);
  EXPECT_FALSE(pred.has_ins_into);
}

TEST_F(AnalyzerTest, SubtreeOverridePredictsKill) {
  // del(4) + ren(5) + repV(8): both non-killers are inside 4's subtree.
  Pul p = MakePul();
  ASSERT_TRUE(p.AddDelete(4, labeling_).ok());
  ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 5, labeling_, "t").ok());
  ASSERT_TRUE(p.AddStringOp(OpKind::kReplaceValue, 8, labeling_, "M").ok());
  ReductionPrediction pred = PredictReduction(p);
  EXPECT_FALSE(pred.no_rule_can_fire);
  EXPECT_EQ(pred.surviving_upper_bound, 1u);
  EXPECT_EQ(pred.guaranteed_kills, 2u);
  auto reduced = core::Reduce(p);
  ASSERT_TRUE(reduced.ok());
  EXPECT_LE(reduced->size(), pred.surviving_upper_bound);
}

TEST_F(AnalyzerTest, InsIntoFlagSetAndFamiliesFold) {
  // insInto(4) + insLast(4): I7 folds them into one family.
  Pul p = MakePul();
  auto f1 = p.AddFragment("<a/>");
  auto f2 = p.AddFragment("<b/>");
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsInto, 4, labeling_, {*f1}).ok());
  ASSERT_TRUE(p.AddTreeOp(OpKind::kInsLast, 4, labeling_, {*f2}).ok());
  ReductionPrediction pred = PredictReduction(p);
  EXPECT_TRUE(pred.has_ins_into);
  EXPECT_FALSE(pred.no_rule_can_fire);
  EXPECT_EQ(pred.surviving_upper_bound, 1u);
  auto reduced = core::Reduce(p);
  ASSERT_TRUE(reduced.ok());
  EXPECT_LE(reduced->size(), pred.surviving_upper_bound);
}

// Sound on random workloads: the fixpoint never keeps more ops than the
// static bound, in any mode.
TEST_F(AnalyzerTest, PredictionBoundsReduceOnRandomPuls) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    Document doc = xupdate::testing::RandomDocument(rng, 30);
    label::Labeling labeling = label::Labeling::Build(doc);
    xupdate::testing::RandomPulOptions options;
    options.max_ops = 8;
    Pul pul = xupdate::testing::RandomPul(rng, doc, labeling, options);
    ReductionPrediction pred = PredictReduction(pul);
    for (core::ReduceMode mode :
         {core::ReduceMode::kPlain, core::ReduceMode::kDeterministic,
          core::ReduceMode::kCanonical}) {
      auto reduced = core::Reduce(pul, {.mode = mode});
      ASSERT_TRUE(reduced.ok()) << reduced.status() << " seed " << seed;
      EXPECT_LE(reduced->size(), pred.surviving_upper_bound)
          << "seed " << seed << " mode " << static_cast<int>(mode);
      if (pred.no_rule_can_fire && mode == core::ReduceMode::kPlain) {
        EXPECT_EQ(reduced->size(), pul.size()) << "seed " << seed;
      }
    }
  }
}

// --- Independence ---------------------------------------------------------

TEST_F(AnalyzerTest, SameKindSameTargetIsMustConflict) {
  Pul a = MakePul(0);
  ASSERT_TRUE(a.AddStringOp(OpKind::kRename, 5, labeling_, "x").ok());
  Pul b = MakePul(1);
  ASSERT_TRUE(b.AddStringOp(OpKind::kRename, 5, labeling_, "y").ok());
  IndependenceReport r = AnalyzeIndependence(a, b);
  EXPECT_EQ(r.verdict, IndependenceVerdict::kMustConflict);
  EXPECT_EQ(r.reason, "repeated-modification");
  EXPECT_EQ(r.op_a, 0);
  EXPECT_EQ(r.op_b, 0);
}

TEST_F(AnalyzerTest, SharedAttributeNameIsMustConflict) {
  Pul a = MakePul(0);
  ASSERT_TRUE(a.AddTreeOp(OpKind::kInsAttributes, 4, labeling_,
                          {a.NewAttributeParam("page", "1")})
                  .ok());
  Pul b = MakePul(1);
  ASSERT_TRUE(b.AddTreeOp(OpKind::kInsAttributes, 4, labeling_,
                          {b.NewAttributeParam("page", "2")})
                  .ok());
  EXPECT_EQ(AnalyzeIndependence(a, b).reason, "repeated-attribute");

  Pul c = MakePul(2);
  ASSERT_TRUE(c.AddTreeOp(OpKind::kInsAttributes, 4, labeling_,
                          {c.NewAttributeParam("year", "2011")})
                  .ok());
  EXPECT_EQ(AnalyzeIndependence(a, c).verdict,
            IndependenceVerdict::kIndependent);
}

TEST_F(AnalyzerTest, AncestorDeleteIsMustConflict) {
  Pul a = MakePul(0);
  ASSERT_TRUE(a.AddDelete(4, labeling_).ok());
  Pul b = MakePul(1);
  ASSERT_TRUE(b.AddStringOp(OpKind::kRename, 5, labeling_, "t").ok());
  IndependenceReport r = AnalyzeIndependence(a, b);
  EXPECT_EQ(r.verdict, IndependenceVerdict::kMustConflict);
  EXPECT_EQ(r.reason, "non-local-override");
  // Symmetric: B's overrider against A's inner op.
  IndependenceReport rev = AnalyzeIndependence(b, a);
  EXPECT_EQ(rev.verdict, IndependenceVerdict::kMustConflict);
}

TEST_F(AnalyzerTest, DeleteInsideDeleteIsIndependent) {
  // Type 5 exempts inner deletes (removing a node twice is no conflict),
  // and the targets differ, so no type 1-4 rule applies either.
  Pul a = MakePul(0);
  ASSERT_TRUE(a.AddDelete(4, labeling_).ok());
  Pul b = MakePul(1);
  ASSERT_TRUE(b.AddDelete(5, labeling_).ok());
  EXPECT_EQ(AnalyzeIndependence(a, b).verdict,
            IndependenceVerdict::kIndependent);
  auto dyn = core::Integrate({&a, &b});
  ASSERT_TRUE(dyn.ok());
  EXPECT_TRUE(dyn->conflicts.empty());
}

TEST_F(AnalyzerTest, EmptyRepNBehavesAsDelete) {
  // repN(4, {}) is effectively del(4): overrides B's ren(4) locally.
  Pul a = MakePul(0);
  pul::UpdateOp rep;
  rep.kind = OpKind::kReplaceNode;
  rep.target = 4;
  rep.target_label = *labeling_.Find(4);
  ASSERT_TRUE(a.AddOp(rep).ok());
  Pul b = MakePul(1);
  ASSERT_TRUE(b.AddStringOp(OpKind::kRename, 4, labeling_, "x").ok());
  IndependenceReport r = AnalyzeIndependence(a, b);
  EXPECT_EQ(r.verdict, IndependenceVerdict::kMustConflict);
  EXPECT_EQ(r.reason, "local-override");
}

TEST_F(AnalyzerTest, MissingLabelIsMayConflict) {
  Pul a = MakePul(0);
  pul::UpdateOp op;
  op.kind = OpKind::kRename;
  op.target = 999;  // label unknown: aggregation-created node
  op.param_string = "n";
  ASSERT_TRUE(a.AddOp(op).ok());
  Pul b = MakePul(1);
  ASSERT_TRUE(b.AddStringOp(OpKind::kRename, 5, labeling_, "y").ok());
  IndependenceReport r = AnalyzeIndependence(a, b);
  EXPECT_EQ(r.verdict, IndependenceVerdict::kMayConflict);
  EXPECT_EQ(r.reason, "missing-label");
}

TEST_F(AnalyzerTest, VerdictAndSeverityNames) {
  EXPECT_EQ(IndependenceVerdictName(IndependenceVerdict::kIndependent),
            "independent");
  EXPECT_EQ(IndependenceVerdictName(IndependenceVerdict::kMayConflict),
            "may-conflict");
  EXPECT_EQ(IndependenceVerdictName(IndependenceVerdict::kMustConflict),
            "must-conflict");
  EXPECT_EQ(SeverityName(Severity::kInfo), "info");
  EXPECT_EQ(SeverityName(Severity::kWarning), "warning");
  EXPECT_EQ(SeverityName(Severity::kError), "error");
}

TEST_F(AnalyzerTest, PredictionJsonShape) {
  Pul p = MakePul();
  ASSERT_TRUE(p.AddDelete(4, labeling_).ok());
  ASSERT_TRUE(p.AddStringOp(OpKind::kRename, 5, labeling_, "t").ok());
  EXPECT_EQ(PredictionToJson(PredictReduction(p)),
            "{\"inputOps\":2,\"survivingUpperBound\":1,"
            "\"guaranteedKills\":1,\"noRuleCanFire\":false,"
            "\"hasInsInto\":false}");
}

}  // namespace
}  // namespace xupdate::analysis
