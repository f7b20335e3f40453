#include "analysis/independence.h"

#include <set>
#include <string>
#include <vector>

#include "pul/override.h"
#include "pul/pul_view.h"
#include "pul/update_op.h"

namespace xupdate::analysis {

namespace {

using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::NodeId;

constexpr pul::OverrideRelation kAcrossPuls =
    pul::OverrideRelation::kAcrossPuls;

std::set<std::string_view> InsertedAttributeNames(const Pul& pul,
                                                  const UpdateOp& op) {
  std::set<std::string_view> names;
  for (NodeId r : op.param_trees) names.insert(pul.forest().name(r));
  return names;
}

// The type 1-4 rules on one cross-PUL op pair with a shared target.
// Returns the stable reason tag of the first rule that fires, nullptr if
// none can. Exact: with two PULs, Algorithm 1 reports a same-target
// conflict iff some cross-PUL pair passes one of these tests.
const char* SameTargetConflict(const Pul& pul_a, const UpdateOp& a,
                               const Pul& pul_b, const UpdateOp& b) {
  OpKind ea = pul::EffectiveKind(a);
  OpKind eb = pul::EffectiveKind(b);
  if (ea == eb && pul::HasKind(pul::kRepeatedModificationKinds, ea)) {
    return "repeated-modification";
  }
  if (ea == eb && pul::HasKind(pul::kInsertionOrderKinds, ea)) {
    return "insertion-order";
  }
  if (ea == OpKind::kInsAttributes && eb == OpKind::kInsAttributes) {
    std::set<std::string_view> names_a = InsertedAttributeNames(pul_a, a);
    for (std::string_view name : InsertedAttributeNames(pul_b, b)) {
      if (names_a.count(name) != 0) return "repeated-attribute";
    }
  }
  auto local_override = [](OpKind overrider, OpKind other) {
    const pul::OverrideRule* rule = pul::SameTargetRule(overrider);
    return rule != nullptr && pul::Overrides(*rule, other, kAcrossPuls);
  };
  if (local_override(ea, eb) || local_override(eb, ea)) {
    return "local-override";
  }
  return nullptr;
}

}  // namespace

std::string_view IndependenceVerdictName(IndependenceVerdict verdict) {
  switch (verdict) {
    case IndependenceVerdict::kIndependent:
      return "independent";
    case IndependenceVerdict::kMayConflict:
      return "may-conflict";
    case IndependenceVerdict::kMustConflict:
      return "must-conflict";
  }
  return "?";
}

IndependenceReport AnalyzeIndependence(const Pul& a, const Pul& b) {
  IndependenceReport report;

  // Without a label an op's structural position is unknown; nothing can
  // be ruled out (and Integrate would reject the PUL anyway).
  for (const Pul* pul : {&a, &b}) {
    const auto& ops = pul->ops();
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!ops[i].target_label.valid()) {
        report.verdict = IndependenceVerdict::kMayConflict;
        report.reason = "missing-label";
        (pul == &a ? report.op_a : report.op_b) = static_cast<int>(i);
        return report;
      }
    }
  }

  // Conflict classes 1-4 need a shared target node: a flat chained join
  // in place of the hash-of-vectors (chains keep listing order).
  pul::TargetIndex b_by_target;
  b_by_target.Reset(b.ops().size());
  for (size_t j = 0; j < b.ops().size(); ++j) {
    b_by_target.Append(b.ops()[j].target, static_cast<int32_t>(j));
  }
  for (size_t i = 0; i < a.ops().size(); ++i) {
    for (int32_t j = b_by_target.Head(a.ops()[i].target); j >= 0;
         j = b_by_target.Next(j)) {
      const char* reason = SameTargetConflict(
          a, a.ops()[i], b, b.ops()[static_cast<size_t>(j)]);
      if (reason != nullptr) {
        report.verdict = IndependenceVerdict::kMustConflict;
        report.op_a = static_cast<int>(i);
        report.op_b = j;
        report.reason = reason;
        return report;
      }
    }
  }

  // Conflict class 5 needs a target of one PUL strictly inside the
  // subtree of an overriding op of the other: the first such pair of
  // the shared containment sweep over both PULs.
  const std::vector<pul::SweepOp> ops =
      pul::LabeledInSweepOrder({&a.ops(), &b.ops()}, kAcrossPuls);
  pul::SweepOverrides(ops, kAcrossPuls,
                      [&report](const pul::SweepOp& op,
                                const pul::OpenOverriders& open) {
                        if (report.verdict ==
                            IndependenceVerdict::kMustConflict) {
                          return;
                        }
                        const pul::OpenOverrider* over = open.Outermost();
                        if (over == nullptr) return;
                        report.verdict = IndependenceVerdict::kMustConflict;
                        report.reason = "non-local-override";
                        const bool a_over = over->op->pul == 0;
                        report.op_a = a_over ? over->op->index : op.index;
                        report.op_b = a_over ? op.index : over->op->index;
                      });
  if (report.verdict == IndependenceVerdict::kMustConflict) return report;

  // Fully labeled and no rule can fire on any related pair: the label
  // sets are disjoint per conflict class — provably no conflict.
  report.verdict = IndependenceVerdict::kIndependent;
  report.reason = "disjoint";
  return report;
}

}  // namespace xupdate::analysis
