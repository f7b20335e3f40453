#include "core/invert.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "label/labeling.h"
#include "pul/apply.h"
#include "pul/override.h"
#include "pul/pul_view.h"

namespace xupdate::core {

namespace {

using label::NodeLabel;
using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::Document;
using xml::kInvalidNode;
using xml::NodeId;
using xml::NodeType;

constexpr pul::OverrideRelation kWithinPul = pul::OverrideRelation::kWithinPul;

class Inverter {
 public:
  Inverter(const Document& doc, const Pul& pul) : doc_(doc), pul_(pul) {}

  Result<Pul> Run();

 private:
  // Saves a copy (original ids) of the subtree at `node` into the
  // inverse PUL's forest.
  Result<NodeId> Save(NodeId node) {
    return out_.forest().AdoptSubtree(doc_, node, /*preserve_ids=*/true);
  }

  Status AddInverseOp(OpKind kind, NodeId target,
                      std::vector<NodeId> trees, std::string arg) {
    UpdateOp op;
    op.kind = kind;
    op.target = target;
    op.param_trees = std::move(trees);
    op.param_string = std::move(arg);
    return out_.AddOp(std::move(op));
  }

  // Re-insertion anchor for a removed child `v`: the nearest left
  // sibling that survives the forward PUL — or, when the neighbor was
  // replaced (repN), the last root of its replacement. Falls back to
  // insFirst under the parent.
  struct Anchor {
    OpKind kind = OpKind::kInsFirst;
    NodeId target = kInvalidNode;
  };
  Anchor AnchorFor(NodeId v) const {
    NodeId parent = doc_.parent(v);
    const auto& siblings = doc_.children(parent);
    int index = doc_.ChildIndex(v);
    for (int i = index - 1; i >= 0; --i) {
      NodeId s = siblings[static_cast<size_t>(i)];
      auto it = replacement_tail_.find(s);
      if (it != replacement_tail_.end()) {
        if (it->second != kInvalidNode) {
          return {OpKind::kInsAfter, it->second};
        }
        continue;  // deleted (or replaced by nothing): keep scanning
      }
      return {OpKind::kInsAfter, s};
    }
    return {OpKind::kInsFirst, parent};
  }

  // Labels the inverse ops whose targets are nodes of the pre-state
  // document; targets created by the forward PUL stay unlabeled.
  void LabelTargets() {
    std::vector<NodeId> targets;
    targets.reserve(out_.size());
    for (const UpdateOp& op : out_.ops()) targets.push_back(op.target);
    label::Labeling labeling = label::Labeling::BuildFor(doc_, targets);
    for (UpdateOp& op : out_.mutable_ops()) {
      if (const NodeLabel* lab = labeling.Find(op.target)) {
        op.target_label = *lab;
      }
    }
  }

  const Document& doc_;
  const Pul& pul_;
  Pul out_;
  std::unordered_set<NodeId> removed_;
  // Removed node -> last replacement root (kInvalidNode if none).
  std::unordered_map<NodeId, NodeId> replacement_tail_;
};

Result<Pul> Inverter::Run() {
  XUPDATE_RETURN_IF_ERROR(pul_.CheckCompatible());
  std::string reason;
  std::vector<bool> overridden = OverriddenOps(doc_, pul_, &reason);
  if (std::find(overridden.begin(), overridden.end(), true) !=
      overridden.end()) {
    // An overridden operation has no effect, so inverting it would
    // corrupt the undo.
    return Status::InvalidArgument("PUL is O-reducible (" + reason +
                                   "); reduce before inverting");
  }

  // First pass: removal bookkeeping for anchor computation.
  for (const UpdateOp& op : pul_.ops()) {
    if (op.kind == OpKind::kDelete) {
      removed_.insert(op.target);
      replacement_tail_[op.target] = kInvalidNode;
    } else if (op.kind == OpKind::kReplaceNode) {
      removed_.insert(op.target);
      replacement_tail_[op.target] =
          op.param_trees.empty() ? kInvalidNode : op.param_trees.back();
    }
  }

  // Deletions grouped per anchor so restored sibling order is exact:
  // map anchor -> removed nodes in document order.
  struct Group {
    Inverter::Anchor anchor;
    std::vector<NodeId> nodes;  // document order
  };
  std::map<std::pair<int, NodeId>, Group> restore_children;
  std::unordered_map<NodeId, std::vector<NodeId>> restore_attributes;

  for (const UpdateOp& op : pul_.ops()) {
    if (!doc_.Exists(op.target)) {
      return Status::NotApplicable("target node " +
                                   std::to_string(op.target) +
                                   " not in document");
    }
    switch (op.kind) {
      case OpKind::kInsBefore:
      case OpKind::kInsAfter:
      case OpKind::kInsFirst:
      case OpKind::kInsLast:
      case OpKind::kInsInto:
      case OpKind::kInsAttributes:
        // Undo an insertion by deleting the inserted roots (they keep
        // their producer-assigned ids in the updated document).
        for (NodeId root : op.param_trees) {
          XUPDATE_RETURN_IF_ERROR(
              AddInverseOp(OpKind::kDelete, root, {}, ""));
        }
        break;
      case OpKind::kReplaceValue: {
        XUPDATE_RETURN_IF_ERROR(AddInverseOp(
            OpKind::kReplaceValue, op.target, {},
            std::string(doc_.value(op.target))));
        break;
      }
      case OpKind::kRename: {
        XUPDATE_RETURN_IF_ERROR(
            AddInverseOp(OpKind::kRename, op.target, {},
                           std::string(doc_.name(op.target))));
        break;
      }
      case OpKind::kReplaceChildren: {
        std::vector<NodeId> saved;
        for (NodeId child : doc_.children(op.target)) {
          XUPDATE_ASSIGN_OR_RETURN(NodeId copy, Save(child));
          saved.push_back(copy);
        }
        XUPDATE_RETURN_IF_ERROR(AddInverseOp(OpKind::kReplaceChildren,
                                               op.target, std::move(saved),
                                               ""));
        break;
      }
      case OpKind::kReplaceNode: {
        XUPDATE_ASSIGN_OR_RETURN(NodeId copy, Save(op.target));
        if (op.param_trees.empty()) {
          // Behaves like del: schedule a positional re-insertion.
          if (doc_.type(op.target) == NodeType::kAttribute) {
            restore_attributes[doc_.parent(op.target)].push_back(copy);
          } else if (doc_.parent(op.target) == kInvalidNode) {
            return Status::InvalidArgument(
                "cannot invert removal of a parentless node");
          } else {
            Anchor anchor = AnchorFor(op.target);
            auto key = std::make_pair(static_cast<int>(anchor.kind),
                                      anchor.target);
            restore_children[key].anchor = anchor;
            restore_children[key].nodes.push_back(copy);
          }
          break;
        }
        // repN(first replacement -> saved subtree), delete the rest.
        XUPDATE_RETURN_IF_ERROR(AddInverseOp(
            OpKind::kReplaceNode, op.param_trees.front(), {copy}, ""));
        for (size_t i = 1; i < op.param_trees.size(); ++i) {
          XUPDATE_RETURN_IF_ERROR(
              AddInverseOp(OpKind::kDelete, op.param_trees[i], {}, ""));
        }
        break;
      }
      case OpKind::kDelete: {
        XUPDATE_ASSIGN_OR_RETURN(NodeId copy, Save(op.target));
        if (doc_.type(op.target) == NodeType::kAttribute) {
          restore_attributes[doc_.parent(op.target)].push_back(copy);
          break;
        }
        if (doc_.parent(op.target) == kInvalidNode) {
          return Status::InvalidArgument(
              "cannot invert deletion of a parentless node");
        }
        Anchor anchor = AnchorFor(op.target);
        auto key =
            std::make_pair(static_cast<int>(anchor.kind), anchor.target);
        restore_children[key].anchor = anchor;
        restore_children[key].nodes.push_back(copy);
        break;
      }
    }
  }

  // Emit grouped re-insertions. Saved copies preserve ids, and groups
  // collect nodes in PUL order — normalize to document order of the
  // originals (copy ids equal original ids).
  for (auto& [key, group] : restore_children) {
    std::vector<NodeId>& nodes = group.nodes;
    std::sort(nodes.begin(), nodes.end(), [&](NodeId a, NodeId b) {
      return doc_.Compare(a, b) < 0;
    });
    XUPDATE_RETURN_IF_ERROR(AddInverseOp(group.anchor.kind,
                                           group.anchor.target,
                                           std::move(nodes), ""));
  }
  for (auto& [parent, attrs] : restore_attributes) {
    XUPDATE_RETURN_IF_ERROR(
        AddInverseOp(OpKind::kInsAttributes, parent, std::move(attrs),
                       ""));
  }
  XUPDATE_RETURN_IF_ERROR(out_.CheckCompatible());
  LabelTargets();
  return std::move(out_);
}

// The ops whose targets exist in `doc`, as the containment sweep sees
// them, positioned by a depth-first walk of the tree of their targets
// and the targets' ancestors alone: one counter numbers the enter and
// the leave step of each node, so a strict descendant's interval nests
// strictly inside. Siblings come in no particular order, which the sweep
// does not need: only ancestry decides what it finds. The cost follows
// the ops and their depth; the rest of the document is never visited.
// `by_target` chains the ops of each target in listing order.
std::vector<pul::SweepOp> DocumentOrdered(const Document& doc,
                                          const std::vector<UpdateOp>& ops,
                                          const pul::TargetIndex& by_target) {
  struct TreeNode {
    NodeId id;
    int32_t first_child = -1;
    int32_t next_sibling = -1;
  };
  std::vector<TreeNode> tree;
  std::vector<int32_t> stack;  // the roots, then the walk
  pul::TargetIndex node_of;    // NodeId -> its TreeNode, a one-entry chain
  node_of.Reset(ops.size());
  for (const UpdateOp& op : ops) {
    if (!doc.Exists(op.target) || node_of.Head(op.target) >= 0) continue;
    int32_t child = -1;
    for (NodeId v = op.target;; v = doc.parent(v)) {
      if (v == kInvalidNode) {
        stack.push_back(child);
        break;
      }
      int32_t at = node_of.Head(v);
      const bool known = at >= 0;
      if (!known) {
        at = static_cast<int32_t>(tree.size());
        tree.push_back({v});
        node_of.Append(v, at);
      }
      if (child >= 0) {
        tree[child].next_sibling = tree[at].first_child;
        tree[at].first_child = child;
      }
      if (known) break;
      child = at;
    }
  }

  std::vector<pul::SweepOp> out;
  out.reserve(ops.size());
  std::vector<size_t> first_op(tree.size());  // per node, in `out`
  uint64_t counter = 0;
  while (!stack.empty()) {  // a negative entry leaves node ~entry
    const int32_t entry = stack.back();
    stack.pop_back();
    if (entry < 0) {
      for (size_t o = first_op[~entry]; o < out.size(); ++o) {
        if (out[o].target != tree[~entry].id) break;
        out[o].end_key = counter;
      }
      ++counter;
      continue;
    }
    const TreeNode& node = tree[entry];
    first_op[entry] = out.size();
    for (int32_t i = by_target.Head(node.id); i >= 0; i = by_target.Next(i)) {
      pul::SweepOp op;
      op.start_key = counter;
      op.target = node.id;
      op.parent = doc.parent(node.id);
      op.index = i;
      op.kind = ops[i].kind;
      op.attribute = doc.type(node.id) == NodeType::kAttribute;
      out.push_back(op);
    }
    ++counter;
    stack.push_back(~entry);
    for (int32_t c = node.first_child; c >= 0; c = tree[c].next_sibling) {
      stack.push_back(c);
    }
  }
  return out;
}

std::string DescribeOverride(const pul::OverrideRule& rule, NodeId at) {
  const std::string node = std::to_string(at);
  switch (rule.scope) {
    case pul::OverrideScope::kSameTarget:
      return rule.overrider == OpKind::kReplaceChildren
                 ? "repC overrides insertion on node " + node
                 : "same-target override on node " + node;
    case pul::OverrideScope::kStrictSubtree:
      return "operation under removed node " + node;
    case pul::OverrideScope::kStrictSubtreeButOwnAttributes:
      return "operation under repC target " + node;
  }
  return {};
}

}  // namespace

std::vector<bool> OverriddenOps(const Document& doc, const Pul& pul,
                                std::string* reason) {
  const std::vector<UpdateOp>& ops = pul.ops();
  const int32_t n = static_cast<int32_t>(ops.size());
  // Per op: its lowest-listed overrider (-1: none) and the row it
  // overrides under.
  std::vector<int32_t> overrider(ops.size(), -1);
  std::vector<const pul::OverrideRule*> rule_of(ops.size(), nullptr);
  auto offer = [&](int32_t i, int32_t k, const pul::OverrideRule* rule) {
    if (overrider[i] < 0 || k < overrider[i]) {
      overrider[i] = k;
      rule_of[i] = rule;
    }
  };

  // Same-target rows (O1, O2), over the ops on each overrider's target.
  // Two dels override each other, so the last one listed stays (as in
  // Reduce): a del is overridden by a later del only.
  pul::TargetIndex by_target;
  by_target.Reset(ops.size());
  for (int32_t i = 0; i < n; ++i) by_target.Append(ops[i].target, i);
  for (int32_t k = 0; k < n; ++k) {
    const pul::OverrideRule* rule = pul::SameTargetRule(ops[k].kind);
    if (rule == nullptr) continue;
    for (int32_t i = by_target.Head(ops[k].target); i >= 0;
         i = by_target.Next(i)) {
      if (i != k && pul::Overrides(*rule, ops[i].kind, kWithinPul) &&
          (ops[i].kind != ops[k].kind || i < k)) {
        offer(i, k, rule);
      }
    }
  }

  // Subtree rows (O3, O4), swept in the document's own order.
  std::vector<pul::SweepOp> swept = DocumentOrdered(doc, ops, by_target);
  pul::SweepOverrides(swept, kWithinPul,
                      [&](const pul::SweepOp& op,
                          const pul::OpenOverriders& open) {
                        if (const pul::OpenOverrider* k =
                                open.LowestIndexed()) {
                          offer(op.index, k->op->index, k->rule);
                        }
                      });
  // One pass reaches the set a drop-to-fixpoint loop would: whatever
  // overrides an overridden repN/del/repC sits at or above its target,
  // so it already overrides every operation that one does.

  std::vector<bool> overridden(ops.size(), false);
  bool any = false;
  for (int32_t i = 0; i < n; ++i) {
    if (overrider[i] < 0) continue;
    if (reason != nullptr && !any) {
      *reason = DescribeOverride(*rule_of[i], ops[overrider[i]].target);
    }
    any = true;
    overridden[i] = true;
  }
  return overridden;
}

Result<pul::Pul> Invert(const xml::Document& doc, const pul::Pul& pul) {
  Inverter inverter(doc, pul);
  return inverter.Run();
}

}  // namespace xupdate::core
