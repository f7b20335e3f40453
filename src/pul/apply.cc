#include "pul/apply.h"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"

namespace xupdate::pul {

using xml::Document;
using xml::kInvalidNode;
using xml::NodeId;
using xml::NodeType;

namespace {

// Applies one PUL to one document; bundles the recurring (doc, pul,
// labeling, oracle) state.
class Applier {
 public:
  Applier(Document* doc, const Pul& pul, const ApplyOptions& options,
          ChoiceOracle* oracle)
      : doc_(*doc), pul_(pul), options_(options), oracle_(oracle) {}

  Status Run();

 private:
  // Materializes a parameter tree into the document, assigning labels.
  Result<NodeId> Materialize(NodeId forest_root) {
    return doc_.AdoptSubtree(pul_.forest(), forest_root,
                             /*preserve_ids=*/true);
  }
  Status LabelNew(NodeId root) {
    if (options_.labeling == nullptr) return Status::OK();
    return options_.labeling->AssignForInsertedSubtree(doc_, root);
  }
  Status UnlabelDoomed(NodeId root) {
    if (options_.labeling == nullptr) return Status::OK();
    return options_.labeling->OnWillDeleteSubtree(doc_, root);
  }

  size_t Choose(size_t num_options, size_t fallback) {
    if (num_options <= 1) return 0;
    return oracle_ != nullptr ? oracle_->Choose(num_options) : fallback;
  }

  Status ApplyInsInto(const UpdateOp& op);
  Status ApplyInsAttributes(const UpdateOp& op);
  Status ApplyInsert(const UpdateOp& op);  // insBefore/After/First/Last
  Status ApplyReplaceNode(const UpdateOp& op);
  Status ApplyReplaceChildren(const UpdateOp& op);
  Status ApplyDelete(const UpdateOp& op);

  // Groups `ops` by key (groups in first-appearance order, list order
  // within each) and applies each group's ops in the order the oracle
  // picks.
  template <typename KeyFn, typename ApplyFn>
  Status ApplyGrouped(const std::vector<const UpdateOp*>& ops, KeyFn key,
                      ApplyFn apply);

  Document& doc_;
  const Pul& pul_;
  const ApplyOptions& options_;
  ChoiceOracle* oracle_;
};

template <typename KeyFn, typename ApplyFn>
Status Applier::ApplyGrouped(const std::vector<const UpdateOp*>& ops,
                             KeyFn key, ApplyFn apply) {
  std::vector<std::vector<const UpdateOp*>> groups;
  std::unordered_map<uint64_t, size_t> index;
  for (const UpdateOp* op : ops) {
    auto [it, inserted] = index.emplace(key(*op), groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(op);
  }
  for (auto& group : groups) {
    while (!group.empty()) {
      size_t pick = Choose(group.size(), 0);
      const UpdateOp* op = group[pick];
      group.erase(group.begin() + static_cast<ptrdiff_t>(pick));
      XUPDATE_RETURN_IF_ERROR(apply(*op));
    }
  }
  return Status::OK();
}

Status Applier::ApplyInsInto(const UpdateOp& op) {
  const auto& kids = doc_.children(op.target);
  size_t fallback =
      options_.ins_into == InsIntoPosition::kAsFirst ? 0 : kids.size();
  size_t pos = Choose(kids.size() + 1, fallback);
  // Anchor before adoption: materialization appends nothing to the child
  // list, so `pos` stays valid.
  for (NodeId forest_root : op.param_trees) {
    XUPDATE_ASSIGN_OR_RETURN(NodeId node, Materialize(forest_root));
    const auto& current = doc_.children(op.target);
    if (pos >= current.size()) {
      XUPDATE_RETURN_IF_ERROR(doc_.AppendChild(op.target, node));
    } else {
      XUPDATE_RETURN_IF_ERROR(doc_.InsertBefore(current[pos], node));
    }
    XUPDATE_RETURN_IF_ERROR(LabelNew(node));
    ++pos;
  }
  return Status::OK();
}

Status Applier::ApplyInsAttributes(const UpdateOp& op) {
  for (NodeId forest_root : op.param_trees) {
    XUPDATE_ASSIGN_OR_RETURN(NodeId node, Materialize(forest_root));
    XUPDATE_RETURN_IF_ERROR(doc_.AddAttribute(op.target, node));
    XUPDATE_RETURN_IF_ERROR(LabelNew(node));
  }
  return Status::OK();
}

// Sibling and edge insertions. insAfter and insFirst attach every tree
// at the same point, so they run in reverse to keep the parameter order.
Status Applier::ApplyInsert(const UpdateOp& op) {
  const size_t n = op.param_trees.size();
  const bool reverse =
      op.kind == OpKind::kInsAfter || op.kind == OpKind::kInsFirst;
  for (size_t i = 0; i < n; ++i) {
    XUPDATE_ASSIGN_OR_RETURN(
        NodeId node, Materialize(op.param_trees[reverse ? n - 1 - i : i]));
    XUPDATE_RETURN_IF_ERROR(
        op.kind == OpKind::kInsBefore  ? doc_.InsertBefore(op.target, node)
        : op.kind == OpKind::kInsAfter ? doc_.InsertAfter(op.target, node)
        : op.kind == OpKind::kInsFirst ? doc_.PrependChild(op.target, node)
                                       : doc_.AppendChild(op.target, node));
    XUPDATE_RETURN_IF_ERROR(LabelNew(node));
  }
  return Status::OK();
}

Status Applier::ApplyReplaceNode(const UpdateOp& op) {
  if (!doc_.Exists(op.target)) return Status::OK();  // overridden upstream
  std::vector<NodeId> replacements;
  replacements.reserve(op.param_trees.size());
  for (NodeId forest_root : op.param_trees) {
    XUPDATE_ASSIGN_OR_RETURN(NodeId node, Materialize(forest_root));
    replacements.push_back(node);
  }
  XUPDATE_RETURN_IF_ERROR(UnlabelDoomed(op.target));
  XUPDATE_RETURN_IF_ERROR(doc_.ReplaceNode(op.target, replacements));
  for (NodeId r : replacements) XUPDATE_RETURN_IF_ERROR(LabelNew(r));
  return Status::OK();
}

Status Applier::ApplyReplaceChildren(const UpdateOp& op) {
  if (!doc_.Exists(op.target)) return Status::OK();
  std::vector<NodeId> replacements;
  replacements.reserve(op.param_trees.size());
  for (NodeId forest_root : op.param_trees) {
    XUPDATE_ASSIGN_OR_RETURN(NodeId node, Materialize(forest_root));
    replacements.push_back(node);
  }
  for (NodeId c : doc_.children(op.target)) {
    XUPDATE_RETURN_IF_ERROR(UnlabelDoomed(c));
  }
  XUPDATE_RETURN_IF_ERROR(doc_.ReplaceChildren(op.target, replacements));
  for (NodeId r : replacements) XUPDATE_RETURN_IF_ERROR(LabelNew(r));
  return Status::OK();
}

Status Applier::ApplyDelete(const UpdateOp& op) {
  if (!doc_.Exists(op.target)) return Status::OK();
  XUPDATE_RETURN_IF_ERROR(UnlabelDoomed(op.target));
  return doc_.DeleteSubtree(op.target);
}

Status Applier::Run() {
  std::array<std::vector<const UpdateOp*>, 6> stages;
  for (const UpdateOp& op : pul_.ops()) {
    stages[static_cast<size_t>(StageOf(op.kind))].push_back(&op);
  }

  // Stage 1: insInto / insAttr / repV / ren. Only insInto is
  // order-sensitive (among ops with the same target).
  std::vector<const UpdateOp*> ins_into;
  for (const UpdateOp* op : stages[1]) {
    switch (op->kind) {
      case OpKind::kInsInto:
        ins_into.push_back(op);
        break;
      case OpKind::kInsAttributes:
        XUPDATE_RETURN_IF_ERROR(ApplyInsAttributes(*op));
        break;
      case OpKind::kReplaceValue:
        XUPDATE_RETURN_IF_ERROR(doc_.SetValue(op->target, op->param_string));
        break;
      case OpKind::kRename:
        XUPDATE_RETURN_IF_ERROR(doc_.Rename(op->target, op->param_string));
        break;
      default:
        return Status::Internal("unexpected op in stage 1");
    }
  }
  XUPDATE_RETURN_IF_ERROR(ApplyGrouped(
      ins_into,
      [](const UpdateOp& op) { return static_cast<uint64_t>(op.target); },
      [this](const UpdateOp& op) { return ApplyInsInto(op); }));

  // Stage 2: sibling/edge insertions; relative order of same-kind
  // same-target blocks is the remaining non-determinism.
  XUPDATE_RETURN_IF_ERROR(ApplyGrouped(
      stages[2],
      [](const UpdateOp& op) {
        return static_cast<uint64_t>(op.target) * 16 +
               static_cast<uint64_t>(op.kind);
      },
      [this](const UpdateOp& op) { return ApplyInsert(op); }));

  // Stages 3-5: replacements and deletions; ops whose target has already
  // been removed by an overriding operation are silently complete.
  for (const UpdateOp* op : stages[3]) {
    XUPDATE_RETURN_IF_ERROR(ApplyReplaceNode(*op));
  }
  for (const UpdateOp* op : stages[4]) {
    XUPDATE_RETURN_IF_ERROR(ApplyReplaceChildren(*op));
  }
  for (const UpdateOp* op : stages[5]) {
    XUPDATE_RETURN_IF_ERROR(ApplyDelete(*op));
  }
  return Status::OK();
}

// Parameter trees are new content: materializing one keeps its
// producer-assigned ids, so an id that names a node of `doc`, or a tree
// that two operations share, would clash halfway through the apply.
// Roots exist and are detached (Pul::AddOp), so trees overlap only
// where a root repeats.
Status CheckParamIdsFresh(const Document& doc, const Pul& pul) {
  auto in_use = [](NodeId id) {
    return Status::InvalidArgument("node id already in use: " +
                                   std::to_string(id));
  };
  const Document& forest = pul.forest();
  std::vector<NodeId> stack;
  for (const UpdateOp& op : pul.ops()) {
    stack.insert(stack.end(), op.param_trees.begin(), op.param_trees.end());
  }
  std::vector<NodeId> roots = stack;
  std::sort(roots.begin(), roots.end());
  for (size_t i = 1; i < roots.size(); ++i) {
    if (roots[i] == roots[i - 1]) return in_use(roots[i]);
  }
  // Ids are never reused, so one above the document's highest is fresh.
  const NodeId max_doc_id = doc.max_assigned_id();
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    if (id <= max_doc_id && doc.Exists(id)) return in_use(id);
    const auto& attrs = forest.attributes(id);
    const auto& kids = forest.children(id);
    stack.insert(stack.end(), attrs.begin(), attrs.end());
    stack.insert(stack.end(), kids.begin(), kids.end());
  }
  return Status::OK();
}

// True when the PUL leaves `element` in the document: no repN/del on it
// or an ancestor, no repC on an ancestor.
bool Survives(const Document& doc, const Pul& pul, NodeId element) {
  for (const UpdateOp& op : pul.ops()) {
    const bool removes =
        op.kind == OpKind::kReplaceNode || op.kind == OpKind::kDelete;
    if (!removes && op.kind != OpKind::kReplaceChildren) continue;
    if (removes && op.target == element) return false;
    if (doc.IsAncestor(op.target, element)) return false;
  }
  return true;
}

// No element the PUL leaves in place may end with two attributes of one
// name. Predicted from the pre-state, in the apply's final order: an
// attribute keeps its place under its ren's name unless deleted, gives
// way in place to its repN replacements, and insA appends after them.
Status CheckAttributeNamesUnique(const Document& doc, const Pul& pul) {
  struct Fate {  // what the PUL does to one attribute
    std::string_view name;
    const UpdateOp* replaced = nullptr;
    bool deleted = false;
  };
  std::unordered_map<NodeId, Fate> fates;
  std::unordered_map<NodeId, std::vector<const UpdateOp*>> inserts;
  std::vector<NodeId> touched;  // elements whose attribute set changes
  for (const UpdateOp& op : pul.ops()) {
    if (op.kind == OpKind::kInsAttributes) {
      touched.push_back(op.target);
      inserts[op.target].push_back(&op);
      continue;
    }
    if ((op.kind != OpKind::kRename && op.kind != OpKind::kReplaceValue &&
         op.kind != OpKind::kReplaceNode && op.kind != OpKind::kDelete) ||
        doc.type(op.target) != NodeType::kAttribute) {
      continue;
    }
    touched.push_back(doc.parent(op.target));
    Fate& fate =
        fates.try_emplace(op.target, Fate{doc.name(op.target)}).first->second;
    if (op.kind == OpKind::kRename) fate.name = op.param_string;
    if (op.kind == OpKind::kReplaceNode) fate.replaced = &op;
    if (op.kind == OpKind::kDelete) fate.deleted = true;
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  std::vector<std::string_view> names;
  auto add_params = [&](const UpdateOp& op) {
    for (NodeId r : op.param_trees) names.push_back(pul.forest().name(r));
  };
  for (NodeId element : touched) {
    names.clear();
    for (NodeId a : doc.attributes(element)) {
      auto it = fates.find(a);
      if (it == fates.end()) {
        names.push_back(doc.name(a));
      } else if (it->second.replaced != nullptr) {
        add_params(*it->second.replaced);
      } else if (!it->second.deleted) {
        names.push_back(it->second.name);
      }
    }
    if (auto it = inserts.find(element); it != inserts.end()) {
      for (const UpdateOp* op : it->second) add_params(*op);
    }
    for (size_t i = 1; i < names.size(); ++i) {
      if (std::find(names.begin(), names.begin() + i, names[i]) ==
          names.begin() + i) {
        continue;
      }
      if (!Survives(doc, pul, element)) break;
      return Status::NotApplicable("duplicate attribute \"" +
                                   std::string(names[i]) + "\" on element " +
                                   std::to_string(element));
    }
  }
  return Status::OK();
}

}  // namespace

Status CheckOpApplicable(const xml::Document& doc, const Pul& pul,
                         const UpdateOp& op) {
  if (!doc.Exists(op.target)) {
    return Status::NotApplicable("target node " + std::to_string(op.target) +
                                 " not in document");
  }
  NodeType target_type = doc.type(op.target);
  auto roots_are = [&](bool want_attr) -> bool {
    for (NodeId r : op.param_trees) {
      if ((pul.forest().type(r) == NodeType::kAttribute) != want_attr) {
        return false;
      }
    }
    return true;
  };
  switch (op.kind) {
    case OpKind::kInsBefore:
    case OpKind::kInsAfter:
      if (target_type == NodeType::kAttribute) {
        return Status::NotApplicable("sibling insertion on an attribute");
      }
      if (doc.parent(op.target) == kInvalidNode) {
        return Status::NotApplicable(
            "sibling insertion target has no parent");
      }
      if (!roots_are(false)) {
        return Status::NotApplicable("attribute tree in sibling insertion");
      }
      return Status::OK();
    case OpKind::kInsFirst:
    case OpKind::kInsLast:
    case OpKind::kInsInto:
      if (target_type != NodeType::kElement) {
        return Status::NotApplicable("child insertion on a non-element");
      }
      if (!roots_are(false)) {
        return Status::NotApplicable("attribute tree in child insertion");
      }
      return Status::OK();
    case OpKind::kInsAttributes:
      if (target_type != NodeType::kElement) {
        return Status::NotApplicable("insA on a non-element");
      }
      if (!roots_are(true)) {
        return Status::NotApplicable("insA parameter is not an attribute");
      }
      return Status::OK();
    case OpKind::kDelete:
      return Status::OK();
    case OpKind::kReplaceNode:
      if (doc.parent(op.target) == kInvalidNode) {
        return Status::NotApplicable("repN target has no parent");
      }
      if (!roots_are(target_type == NodeType::kAttribute)) {
        return Status::NotApplicable(
            "repN replacement kind must match the target kind");
      }
      return Status::OK();
    case OpKind::kReplaceValue:
      if (target_type == NodeType::kElement) {
        return Status::NotApplicable("repV on an element");
      }
      return Status::OK();
    case OpKind::kReplaceChildren:
      if (target_type != NodeType::kElement) {
        return Status::NotApplicable("repC on a non-element");
      }
      // Generalized repC (DESIGN.md): any non-attribute parameter forest.
      for (NodeId r : op.param_trees) {
        if (pul.forest().type(r) == NodeType::kAttribute) {
          return Status::NotApplicable("repC parameter must not be attributes");
        }
      }
      return Status::OK();
    case OpKind::kRename:
      if (target_type == NodeType::kText) {
        return Status::NotApplicable("ren on a text node");
      }
      if (!IsValidXmlName(op.param_string)) {
        return Status::NotApplicable("ren to an invalid name");
      }
      return Status::OK();
  }
  return Status::Internal("unknown operation kind");
}

Status CheckPulApplicable(const xml::Document& doc, const Pul& pul) {
  for (const UpdateOp& op : pul.ops()) {
    XUPDATE_RETURN_IF_ERROR(CheckOpApplicable(doc, pul, op));
  }
  XUPDATE_RETURN_IF_ERROR(pul.CheckCompatible());
  XUPDATE_RETURN_IF_ERROR(CheckParamIdsFresh(doc, pul));
  return CheckAttributeNamesUnique(doc, pul);
}

Status ApplyPul(xml::Document* doc, const Pul& pul,
                const ApplyOptions& options, ChoiceOracle* oracle) {
  XUPDATE_RETURN_IF_ERROR(CheckPulApplicable(*doc, pul));
  Applier applier(doc, pul, options, oracle);
  return applier.Run();
}

}  // namespace xupdate::pul
