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

}  // namespace

std::vector<bool> OverriddenOps(const Document& doc, const Pul& pul,
                                std::string* reason) {
  const std::vector<UpdateOp>& ops = pul.ops();
  std::vector<bool> overridden(ops.size(), false);
  bool found = false;
  // Describes only the first override, in the order Invert reports it.
  auto mark = [&](size_t i, const auto& describe) {
    if (reason != nullptr && !found) *reason = describe();
    found = true;
    overridden[i] = true;
  };
  auto kills_subtree = [&ops](size_t i) {
    return ops[i].kind == OpKind::kDelete ||
           ops[i].kind == OpKind::kReplaceNode;
  };
  // Same-target overrides. O1: anything but a sibling insertion next to
  // a same-target repN/del (a second del counts too); O2: child
  // insertions next to a same-target repC.
  std::unordered_map<NodeId, std::vector<size_t>> by_target;
  for (size_t i = 0; i < ops.size(); ++i) {
    by_target[ops[i].target].push_back(i);
  }
  for (const auto& [target, indexes] : by_target) {
    size_t killer = ops.size();
    bool has_repc = false;
    for (size_t i : indexes) {
      if (kills_subtree(i)) killer = i;
      if (ops[i].kind == OpKind::kReplaceChildren) has_repc = true;
    }
    for (size_t i : indexes) {
      if (killer != ops.size() && i != killer &&
          pul::IsO1Overridable(ops[i].kind)) {
        mark(i, [&] {
          return "same-target override on node " + std::to_string(target);
        });
      }
      if (has_repc && (ops[i].kind == OpKind::kInsFirst ||
                       ops[i].kind == OpKind::kInsInto ||
                       ops[i].kind == OpKind::kInsLast)) {
        mark(i, [&] {
          return "repC overrides insertion on node " + std::to_string(target);
        });
      }
    }
  }
  // Nested overrides, with ancestry read from the document. O3: no op
  // may target a node inside a removed (del/repN) subtree.
  std::vector<size_t> killers;
  for (size_t k = 0; k < ops.size(); ++k) {
    if (kills_subtree(k)) killers.push_back(k);
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    for (size_t k : killers) {
      if (!doc.IsAncestor(ops[k].target, ops[i].target)) continue;
      mark(i, [&] {
        return "operation under removed node " +
               std::to_string(ops[k].target);
      });
      break;
    }
  }
  // O4: nor under a repC target, attributes of the target itself
  // excepted.
  for (size_t k = 0; k < ops.size(); ++k) {
    if (ops[k].kind != OpKind::kReplaceChildren) continue;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!doc.IsAncestor(ops[k].target, ops[i].target)) continue;
      if (doc.parent(ops[i].target) == ops[k].target &&
          doc.type(ops[i].target) == NodeType::kAttribute) {
        continue;
      }
      mark(i, [&] {
        return "operation under repC target " + std::to_string(ops[k].target);
      });
    }
  }
  // One pass reaches the set a drop-to-fixpoint loop would: whatever
  // overrides an overridden repN/del/repC sits at or above its target,
  // so it already overrides every operation that one does.
  return overridden;
}

Result<pul::Pul> Invert(const xml::Document& doc, const pul::Pul& pul) {
  Inverter inverter(doc, pul);
  return inverter.Run();
}

}  // namespace xupdate::core
