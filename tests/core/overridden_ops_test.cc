// OverriddenOps against the quadratic loop it replaced: the flags of
// every operation must match, and the reason must name the lowest-listed
// overridden operation's lowest-listed overrider.

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "core/invert.h"
#include "label/labeling.h"
#include "testing/test_docs.h"

namespace xupdate::core {
namespace {

using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::Document;
using xml::NodeId;
using xml::NodeType;

bool KillsSubtree(OpKind kind) {
  return kind == OpKind::kDelete || kind == OpKind::kReplaceNode;
}
bool IsChildInsertion(OpKind kind) {
  return kind == OpKind::kInsFirst || kind == OpKind::kInsInto ||
         kind == OpKind::kInsLast;
}
bool IsO1Overridable(OpKind kind) {
  return IsChildInsertion(kind) || kind == OpKind::kInsAttributes ||
         kind == OpKind::kDelete || kind == OpKind::kReplaceValue ||
         kind == OpKind::kReplaceChildren || kind == OpKind::kRename;
}

// The O-rule scan OverriddenOps used before the shared sweep: every op
// against every same-target op and every del/repN/repC, with ancestry
// read through Document::IsAncestor. Its one same-target overrider is
// the last del/repN listed, except that a repN always overrides a del
// (the old loop kept a del listed after a repN).
std::vector<bool> ReferenceFlags(const Document& doc, const Pul& pul) {
  const std::vector<UpdateOp>& ops = pul.ops();
  std::vector<bool> overridden(ops.size(), false);
  std::unordered_map<NodeId, std::vector<size_t>> by_target;
  for (size_t i = 0; i < ops.size(); ++i) {
    by_target[ops[i].target].push_back(i);
  }
  for (const auto& [target, indexes] : by_target) {
    size_t killer = ops.size();
    bool has_repc = false;
    bool has_repn = false;
    for (size_t i : indexes) {
      if (KillsSubtree(ops[i].kind)) killer = i;
      has_repc |= ops[i].kind == OpKind::kReplaceChildren;
      has_repn |= ops[i].kind == OpKind::kReplaceNode;
    }
    for (size_t i : indexes) {
      if (killer != ops.size() && i != killer &&
          IsO1Overridable(ops[i].kind)) {
        overridden[i] = true;
      }
      if (has_repn && ops[i].kind == OpKind::kDelete) overridden[i] = true;
      if (has_repc && IsChildInsertion(ops[i].kind)) overridden[i] = true;
    }
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    for (size_t k = 0; k < ops.size(); ++k) {
      if (!doc.IsAncestor(ops[k].target, ops[i].target)) continue;
      if (KillsSubtree(ops[k].kind)) overridden[i] = true;
      if (ops[k].kind == OpKind::kReplaceChildren &&
          !(doc.parent(ops[i].target) == ops[k].target &&
            doc.type(ops[i].target) == NodeType::kAttribute)) {
        overridden[i] = true;
      }
    }
  }
  return overridden;
}

// The reason for the lowest flagged op: its lowest-listed overrider,
// found by trying every other op.
std::string ReferenceReason(const Document& doc, const Pul& pul,
                            const std::vector<bool>& flags) {
  const std::vector<UpdateOp>& ops = pul.ops();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!flags[i]) continue;
    const UpdateOp& op = ops[i];
    for (size_t k = 0; k < ops.size(); ++k) {
      const UpdateOp& over = ops[k];
      if (k == i) continue;
      if (over.target == op.target) {
        if (KillsSubtree(over.kind) && IsO1Overridable(op.kind) &&
            (over.kind != op.kind || k > i)) {
          return "same-target override on node " + std::to_string(op.target);
        }
        if (over.kind == OpKind::kReplaceChildren &&
            IsChildInsertion(op.kind)) {
          return "repC overrides insertion on node " +
                 std::to_string(op.target);
        }
        continue;
      }
      if (!doc.IsAncestor(over.target, op.target)) continue;
      if (KillsSubtree(over.kind)) {
        return "operation under removed node " + std::to_string(over.target);
      }
      if (over.kind == OpKind::kReplaceChildren &&
          !(doc.parent(op.target) == over.target &&
            doc.type(op.target) == NodeType::kAttribute)) {
        return "operation under repC target " + std::to_string(over.target);
      }
    }
    return "no overrider found";
  }
  return "";
}

// Random documents and raw operation lists: any kind on any node
// (attributes under repC targets included), same-target pairs, targets
// missing from the document or detached from its tree, empty and
// non-empty repN, and labels that are absent, current or stale (taken
// from another document).
TEST(OverriddenOpsDifferentialTest, MatchesQuadraticScan) {
  size_t flagged = 0;
  for (uint64_t seed = 1; seed <= 20000; ++seed) {
    Rng rng(seed);
    Document doc = xupdate::testing::RandomDocument(rng, 2 + rng.Below(24));
    Document other = xupdate::testing::RandomDocument(rng, 24);
    label::Labeling labeling = label::Labeling::Build(doc);
    label::Labeling stale = label::Labeling::Build(other);
    std::vector<NodeId> nodes = doc.AllNodesInOrder();
    std::vector<NodeId> other_nodes = other.AllNodesInOrder();
    const NodeId missing = doc.max_assigned_id() + 7;
    const NodeId detached = doc.NewElement("loose");
    Pul pul;
    const size_t num_ops = 1 + rng.Below(12);
    for (size_t n = 0; n < num_ops; ++n) {
      UpdateOp op;
      op.kind = static_cast<OpKind>(rng.Below(pul::kNumOpKinds));
      switch (rng.Below(10)) {
        case 0:
          op.target = missing;
          break;
        case 1:
          op.target = detached;
          break;
        case 2:
        case 3:
        case 4:
          op.target = pul.empty()
                          ? nodes[rng.Below(nodes.size())]
                          : pul.ops()[rng.Below(pul.size())].target;
          break;
        default:
          op.target = nodes[rng.Below(nodes.size())];
      }
      if (op.kind == OpKind::kReplaceNode && rng.Below(2) == 0) {
        op.param_trees.push_back(pul.NewTextParam("r"));
      }
      switch (rng.Below(3)) {
        case 0:
          if (const label::NodeLabel* lab = labeling.Find(op.target)) {
            op.target_label = *lab;
          }
          break;
        case 1:
          op.target_label =
              *stale.Find(other_nodes[rng.Below(other_nodes.size())]);
          break;
        default:
          break;
      }
      pul.mutable_ops().push_back(std::move(op));
    }
    std::string reason;
    std::vector<bool> got = OverriddenOps(doc, pul, &reason);
    std::vector<bool> want = ReferenceFlags(doc, pul);
    ASSERT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(reason, ReferenceReason(doc, pul, want)) << "seed " << seed;
    for (bool f : want) flagged += f ? 1 : 0;
  }
  EXPECT_GT(flagged, 20000u);
}

}  // namespace
}  // namespace xupdate::core
