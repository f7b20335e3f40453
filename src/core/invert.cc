#include "core/invert.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "label/labeling.h"
#include "pul/apply.h"

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

// Kinds a same-target repN/del makes ineffective (O1's overridable set).
bool IsO1Overridable(OpKind kind) {
  switch (kind) {
    case OpKind::kRename:
    case OpKind::kReplaceValue:
    case OpKind::kReplaceChildren:
    case OpKind::kDelete:
    case OpKind::kInsFirst:
    case OpKind::kInsLast:
    case OpKind::kInsInto:
    case OpKind::kInsAttributes:
      return true;
    default:
      return false;
  }
}

// Rejects PULs that the O-rules of Figure 2 would shrink: an overridden
// operation has no effect, so inverting it would corrupt the undo.
Status CheckOIrreducible(const Document& doc, const Pul& pul) {
  std::unordered_map<NodeId, std::vector<const UpdateOp*>> by_target;
  for (const UpdateOp& op : pul.ops()) {
    by_target[op.target].push_back(&op);
  }
  for (const auto& [target, ops] : by_target) {
    const UpdateOp* killer = nullptr;
    bool has_repc = false;
    for (const UpdateOp* op : ops) {
      if (op->kind == OpKind::kDelete || op->kind == OpKind::kReplaceNode) {
        killer = op;
      }
      if (op->kind == OpKind::kReplaceChildren) has_repc = true;
    }
    for (const UpdateOp* op : ops) {
      // O1: anything but a sibling insertion next to a same-target
      // repN/del is overridden (a second del counts too).
      if (killer != nullptr && op != killer && IsO1Overridable(op->kind)) {
        return Status::InvalidArgument(
            "PUL is O-reducible (same-target override on node " +
            std::to_string(target) + "); reduce before inverting");
      }
      // O2: child insertions next to a same-target repC.
      if (has_repc &&
          (op->kind == OpKind::kInsFirst || op->kind == OpKind::kInsInto ||
           op->kind == OpKind::kInsLast)) {
        return Status::InvalidArgument(
            "PUL is O-reducible (repC overrides insertion on node " +
            std::to_string(target) + "); reduce before inverting");
      }
    }
  }
  // Nested overrides (O3/O4): no op may target a node inside a killed
  // subtree. Ground truth from the document (we have it here).
  std::vector<NodeId> killers;
  for (const UpdateOp& op : pul.ops()) {
    if (op.kind == OpKind::kDelete || op.kind == OpKind::kReplaceNode) {
      killers.push_back(op.target);
    }
  }
  for (const UpdateOp& op : pul.ops()) {
    for (NodeId killer : killers) {
      if (doc.IsAncestor(killer, op.target)) {
        return Status::InvalidArgument(
            "PUL is O-reducible (operation under removed node " +
            std::to_string(killer) + "); reduce before inverting");
      }
    }
  }
  for (const UpdateOp& op : pul.ops()) {
    if (op.kind != OpKind::kReplaceChildren) continue;
    for (const UpdateOp& other : pul.ops()) {
      if (&other == &op) continue;
      if (doc.IsAncestor(op.target, other.target) &&
          !(doc.parent(other.target) == op.target &&
            doc.type(other.target) == NodeType::kAttribute)) {
        return Status::InvalidArgument(
            "PUL is O-reducible (operation under repC target " +
            std::to_string(op.target) + "); reduce before inverting");
      }
    }
  }
  return Status::OK();
}

class Inverter {
 public:
  Inverter(const Document& doc, const Pul& pul) : doc_(doc), pul_(pul) {}

  Result<Pul> Run();

 private:
  // Saves a copy (original ids) of the subtree at `node` into the
  // inverse PUL's forest.
  Result<NodeId> Save(NodeId node) {
    return out_.forest().AdoptSubtree(doc_, node, /*preserve_ids=*/true,
                                      nullptr);
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
  XUPDATE_RETURN_IF_ERROR(CheckOIrreducible(doc_, pul_));

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
            OpKind::kReplaceValue, op.target, {}, doc_.value(op.target)));
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

}  // namespace

Result<pul::Pul> Invert(const xml::Document& doc, const pul::Pul& pul) {
  Inverter inverter(doc, pul);
  return inverter.Run();
}

}  // namespace xupdate::core
