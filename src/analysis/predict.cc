#include "analysis/predict.h"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "label/node_label.h"
#include "pul/override.h"
#include "pul/update_op.h"

namespace xupdate::analysis {

namespace {

using label::NodeLabel;
using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::kInvalidNode;
using xml::NodeId;

// Marks the ops the first override sweep (rules O3/O4) is guaranteed to
// drop: the shared containment sweep finds an overrider above them.
std::vector<char> SweptOps(const std::vector<UpdateOp>& ops) {
  const std::vector<pul::SweepOp> labeled = pul::LabeledInSweepOrder(
      {&ops}, pul::OverrideRelation::kWithinPul);
  std::vector<char> swept(ops.size(), 0);
  pul::SweepOverrides(labeled, pul::OverrideRelation::kWithinPul,
                      [&swept](const pul::SweepOp& op,
                               const pul::OpenOverriders& open) {
                        if (open.Outermost() != nullptr) swept[op.index] = 1;
                      });
  return swept;
}

// Most ops the Figure 2 fixpoint can keep on one target, from the kind
// counts of the ops initially aimed at it. Every merge result inherits
// the (target, kind) of one constituent, so the fixpoint constraints
// (no same-target repN/del + overridable pair, no repN + sibling
// insertion, no two same-kind insertions, no repC + child insertion,
// no insInto + insFirst/insLast) bound the survivors from the initial
// counts alone.
size_t GroupUpperBound(const std::array<size_t, pul::kNumOpKinds>& c) {
  auto count = [&c](OpKind k) { return c[static_cast<size_t>(k)]; };
  size_t before = count(OpKind::kInsBefore) > 0 ? 1 : 0;
  size_t after = count(OpKind::kInsAfter) > 0 ? 1 : 0;
  if (count(OpKind::kReplaceNode) > 0) return count(OpKind::kReplaceNode);
  if (count(OpKind::kDelete) > 0) return 1 + before + after;
  size_t total = count(OpKind::kRename) + count(OpKind::kReplaceValue) +
                 count(OpKind::kReplaceChildren);
  if (count(OpKind::kInsAttributes) > 0) total += 1;
  if (count(OpKind::kReplaceChildren) == 0) {
    size_t families = (count(OpKind::kInsFirst) > 0 ? 1 : 0) +
                      (count(OpKind::kInsLast) > 0 ? 1 : 0) +
                      (count(OpKind::kInsInto) > 0 ? 1 : 0);
    if (count(OpKind::kInsInto) > 0 &&
        (count(OpKind::kInsFirst) > 0 || count(OpKind::kInsLast) > 0)) {
      families -= 1;  // I6/I7 fold the insInto family into first/last
    }
    total += families;
  }
  return total + before + after;
}

// True if any pair of ops shares a target or a parent / left-sibling
// link (the I10-I20 neighbor rules). Without such a pair, and with no
// op under a subtree overrider, the fixpoint is empty and Reduce cannot
// change the operation list.
bool AnyNeighborPair(const std::vector<UpdateOp>& ops) {
  std::unordered_set<NodeId> targets;
  for (const UpdateOp& op : ops) {
    if (!targets.insert(op.target).second) return true;  // shared target
  }
  for (const UpdateOp& op : ops) {
    const NodeLabel& lab = op.target_label;
    if (!lab.valid()) continue;
    if (lab.parent != kInvalidNode && targets.count(lab.parent) != 0) {
      return true;
    }
    if (lab.left_sibling != kInvalidNode &&
        targets.count(lab.left_sibling) != 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

ReductionPrediction PredictReduction(const Pul& pul) {
  ReductionPrediction p;
  const std::vector<UpdateOp>& ops = pul.ops();
  p.input_ops = ops.size();
  for (const UpdateOp& op : ops) {
    if (op.kind == OpKind::kInsInto) {
      p.has_ins_into = true;
      break;
    }
  }
  if (ops.empty()) {
    p.no_rule_can_fire = true;
    return p;
  }
  std::vector<char> swept = SweptOps(ops);
  p.no_rule_can_fire =
      !AnyNeighborPair(ops) &&
      std::find(swept.begin(), swept.end(), 1) == swept.end();
  if (p.no_rule_can_fire) {
    p.surviving_upper_bound = ops.size();
    return p;
  }

  std::unordered_map<NodeId, std::array<size_t, pul::kNumOpKinds>> groups;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (swept[i] != 0) continue;
    auto [it, inserted] = groups.emplace(
        ops[i].target, std::array<size_t, pul::kNumOpKinds>{});
    ++it->second[static_cast<size_t>(ops[i].kind)];
  }
  size_t bound = 0;
  for (const auto& [target, counts] : groups) {
    bound += GroupUpperBound(counts);
  }
  p.surviving_upper_bound = std::min(bound, ops.size());
  p.guaranteed_kills = p.input_ops - p.surviving_upper_bound;
  return p;
}

}  // namespace xupdate::analysis
