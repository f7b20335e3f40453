#include "pul/pul.h"

#include <unordered_map>

#include "xml/parser.h"

namespace xupdate::pul {

using xml::NodeId;
using xml::NodeType;

Result<NodeId> Pul::AddFragment(std::string_view xml_text) {
  xml::ParseOptions options;
  options.read_ids = false;
  return xml::ParseFragment(&forest_, xml_text, options);
}

Status Pul::ValidateTreeParams(const UpdateOp& op) const {
  for (NodeId r : op.param_trees) {
    if (!forest_.Exists(r)) {
      return Status::InvalidArgument("parameter tree root " +
                                     std::to_string(r) +
                                     " not in PUL forest");
    }
    if (forest_.parent(r) != xml::kInvalidNode) {
      return Status::InvalidArgument("parameter tree root " +
                                     std::to_string(r) +
                                     " is not detached");
    }
    bool is_attr = forest_.type(r) == NodeType::kAttribute;
    switch (op.kind) {
      case OpKind::kInsBefore:
      case OpKind::kInsAfter:
      case OpKind::kInsFirst:
      case OpKind::kInsLast:
      case OpKind::kInsInto:
        if (is_attr) {
          return Status::NotApplicable(
              "insertion parameter roots must not be attributes");
        }
        break;
      case OpKind::kInsAttributes:
        if (!is_attr) {
          return Status::NotApplicable(
              "insA parameter roots must be attributes");
        }
        break;
      case OpKind::kReplaceChildren:
        // The spec's repC takes a single optional text node; the
        // generalized internal form produced by aggregation accepts any
        // non-attribute forest (DESIGN.md).
        if (is_attr) {
          return Status::NotApplicable(
              "repC parameter must not be attributes");
        }
        break;
      case OpKind::kReplaceNode:
        // Kind agreement with the target is checked at apply time
        // (Table 2: attribute targets take attribute trees).
        break;
      default:
        return Status::InvalidArgument(
            "operation kind takes no tree parameters");
    }
  }
  return Status::OK();
}

Status Pul::AddOp(UpdateOp op) {
  if (op.target == xml::kInvalidNode) {
    return Status::InvalidArgument("operation has no target");
  }
  if (op.HasTreeParams()) {
    XUPDATE_RETURN_IF_ERROR(ValidateTreeParams(op));
  } else if (!op.param_trees.empty()) {
    return Status::InvalidArgument("operation kind takes no trees");
  }
  ops_.push_back(std::move(op));
  return Status::OK();
}

Status Pul::AddTreeOp(OpKind kind, NodeId target,
                      const label::Labeling& labeling,
                      std::vector<NodeId> trees) {
  UpdateOp op;
  op.kind = kind;
  op.target = target;
  XUPDATE_ASSIGN_OR_RETURN(op.target_label, labeling.Get(target));
  op.param_trees = std::move(trees);
  return AddOp(std::move(op));
}

Status Pul::AddStringOp(OpKind kind, NodeId target,
                        const label::Labeling& labeling,
                        std::string_view value) {
  if (kind != OpKind::kReplaceValue && kind != OpKind::kRename) {
    return Status::InvalidArgument("AddStringOp takes repV or ren");
  }
  UpdateOp op;
  op.kind = kind;
  op.target = target;
  XUPDATE_ASSIGN_OR_RETURN(op.target_label, labeling.Get(target));
  op.param_string = std::string(value);
  return AddOp(std::move(op));
}

Status Pul::AddDelete(NodeId target, const label::Labeling& labeling) {
  UpdateOp op;
  op.kind = OpKind::kDelete;
  op.target = target;
  XUPDATE_ASSIGN_OR_RETURN(op.target_label, labeling.Get(target));
  return AddOp(std::move(op));
}

Status Pul::CheckCompatible() const {
  // Incompatibility needs same target + same kind + replacement class;
  // bucket replacement ops by target and check for kind repetition.
  std::unordered_map<NodeId, uint32_t> seen;  // target -> kind bitmask
  for (const UpdateOp& op : ops_) {
    if (ClassOf(op.kind) != OpClass::kReplacement) continue;
    uint32_t bit = 1u << static_cast<int>(op.kind);
    uint32_t& mask = seen[op.target];
    if (mask & bit) {
      return Status::Incompatible(
          std::string("two ") + std::string(OpKindName(op.kind)) +
          " operations target node " + std::to_string(op.target));
    }
    mask |= bit;
  }
  return Status::OK();
}

Status Pul::AdoptOp(const xml::Document& src_forest, const UpdateOp& op) {
  UpdateOp copy = op;
  copy.param_trees.clear();
  for (NodeId r : op.param_trees) {
    XUPDATE_ASSIGN_OR_RETURN(
        NodeId adopted,
        forest_.AdoptSubtree(src_forest, r, /*preserve_ids=*/true));
    copy.param_trees.push_back(adopted);
  }
  return AddOp(std::move(copy));
}

Result<Pul> Pul::Merge(const Pul& a, const Pul& b) {
  Pul out = a;
  for (const UpdateOp& op : b.ops()) {
    XUPDATE_RETURN_IF_ERROR(out.AdoptOp(b.forest(), op));
  }
  XUPDATE_RETURN_IF_ERROR(out.CheckCompatible());
  return out;
}

}  // namespace xupdate::pul
