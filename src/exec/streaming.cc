#include "exec/streaming.h"

#include <string>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"
#include "pul/update_op.h"
#include "xml/sax.h"
#include "xml/serializer.h"

namespace xupdate::exec {

namespace {

using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::kInvalidNode;
using xml::NodeId;
using xml::NodeType;
using xml::SaxAttribute;

// All operations of the PUL aimed at one node, pre-sorted by kind.
struct TargetOps {
  std::vector<const UpdateOp*> ins_before;
  std::vector<const UpdateOp*> ins_after;
  std::vector<const UpdateOp*> ins_first;
  std::vector<const UpdateOp*> ins_into;
  std::vector<const UpdateOp*> ins_last;
  std::vector<const UpdateOp*> ins_attr;
  const UpdateOp* rep_node = nullptr;
  const UpdateOp* rep_children = nullptr;
  const UpdateOp* rep_value = nullptr;
  const UpdateOp* rename = nullptr;
  bool deleted = false;
  bool seen = false;

  bool HasElementOnlyOps() const {
    return !ins_first.empty() || !ins_into.empty() || !ins_last.empty() ||
           !ins_attr.empty() || rep_children != nullptr;
  }
};

// "self[;attr1,attr2,...]".
Status ParseIdsAnnotation(std::string_view text, NodeId* self,
                          std::vector<NodeId>* attr_ids) {
  size_t semi = text.find(';');
  int64_t id = ParseNonNegativeInt(text.substr(0, semi));
  if (id <= 0) return Status::ParseError("bad xu:ids annotation");
  *self = static_cast<NodeId>(id);
  if (semi == std::string_view::npos) return Status::OK();
  // A ';' promises at least one attribute id, and every ',' promises
  // another — a dangling separator is malformed, not empty.
  std::string_view rest = text.substr(semi + 1);
  while (true) {
    size_t comma = rest.find(',');
    int64_t a = ParseNonNegativeInt(rest.substr(0, comma));
    if (a <= 0) return Status::ParseError("bad xu:ids attribute id");
    attr_ids->push_back(static_cast<NodeId>(a));
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  return Status::OK();
}

// Rewrites the SAX event stream according to the PUL (§4.3: "the
// original document is parsed generating a sequence of SAX events, that
// are transformed on-the-fly applying the operations specified in the
// PUL and immediately serialized"). Produces exactly the document the
// in-memory evaluator produces under its default options.
class Transformer : public xml::SaxHandler {
 public:
  Transformer(const Pul& pul,
              std::unordered_map<NodeId, TargetOps>& index)
      : pul_(pul), index_(index) {}

  std::string TakeOutput() { return std::move(output_); }

  Status StartElement(std::string_view name,
                      std::span<const SaxAttribute> attributes) override;
  Status EndElement(std::string_view name) override;
  Status Text(std::string_view text) override;
  Status ProcessingInstruction(std::string_view target,
                               std::string_view data) override;

 private:
  struct Frame {
    bool emit = true;
    bool children_suppressed = false;
    std::string end_name;
    TargetOps* ops = nullptr;
  };

  TargetOps* Find(NodeId id) {
    auto it = index_.find(id);
    if (it == index_.end()) return nullptr;
    it->second.seen = true;
    return &it->second;
  }

  bool ParentEmits() const {
    if (stack_.empty()) return true;
    return stack_.back().emit && !stack_.back().children_suppressed;
  }

  Status EmitParamTree(NodeId root) {
    switch (pul_.forest().type(root)) {
      case NodeType::kElement: {
        xml::SerializeOptions options;
        options.with_ids = true;
        return xml::AppendSubtree(pul_.forest(), root, options, out_.Raw());
      }
      case NodeType::kText:
        XUPDATE_RETURN_IF_ERROR(
            out_.ProcessingInstruction("xuid", std::to_string(root)));
        return out_.Text(pul_.forest().value(root));
      case NodeType::kAttribute:
        return Status::Internal("attribute tree outside an element tag");
    }
    return Status::Internal("unknown parameter node type");
  }

  Status EmitTrees(const std::vector<const UpdateOp*>& ops, bool reverse) {
    if (!reverse) {
      for (const UpdateOp* op : ops) {
        for (NodeId root : op->param_trees) {
          XUPDATE_RETURN_IF_ERROR(EmitParamTree(root));
        }
      }
    } else {
      for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
        for (NodeId root : (*it)->param_trees) {
          XUPDATE_RETURN_IF_ERROR(EmitParamTree(root));
        }
      }
    }
    return Status::OK();
  }

  const Pul& pul_;
  std::unordered_map<NodeId, TargetOps>& index_;
  std::string output_;
  xml::SaxWriter out_{&output_};
  std::vector<Frame> stack_;
  NodeId next_auto_id_ = 1;
  NodeId pending_text_id_ = kInvalidNode;
};

Status Transformer::StartElement(std::string_view name,
                                 std::span<const SaxAttribute> attributes) {
  pending_text_id_ = kInvalidNode;
  // Resolve ids (annotation or document-order auto-assignment, mirroring
  // the DOM parser: element first, then its attributes).
  NodeId self = kInvalidNode;
  std::vector<NodeId> explicit_attr_ids;
  for (const SaxAttribute& a : attributes) {
    if (a.name == xml::kIdsAttributeName) {
      XUPDATE_RETURN_IF_ERROR(
          ParseIdsAnnotation(a.value, &self, &explicit_attr_ids));
      break;
    }
  }
  if (self == kInvalidNode) self = next_auto_id_++;

  struct InAttr {
    const SaxAttribute* attr;
    NodeId id;
  };
  std::vector<InAttr> in_attrs;
  size_t pos = 0;
  for (const SaxAttribute& a : attributes) {
    if (a.name == xml::kIdsAttributeName) continue;
    NodeId id = pos < explicit_attr_ids.size() ? explicit_attr_ids[pos]
                                               : next_auto_id_++;
    in_attrs.push_back({&a, id});
    ++pos;
  }

  TargetOps* t = Find(self);
  if (!ParentEmits()) {
    // Inside a removed or replaced region: structure is consumed without
    // output; contained operations are overridden (stage semantics).
    stack_.push_back({false, false, std::string(), nullptr});
    // Attribute targets still count as seen.
    for (const InAttr& ia : in_attrs) Find(ia.id);
    return Status::OK();
  }

  if (t != nullptr && (t->deleted || t->rep_node != nullptr)) {
    // Sibling insertions survive removal of the target (Table 2 / O1).
    XUPDATE_RETURN_IF_ERROR(EmitTrees(t->ins_before, false));
    if (t->rep_node != nullptr) {
      for (NodeId root : t->rep_node->param_trees) {
        XUPDATE_RETURN_IF_ERROR(EmitParamTree(root));
      }
    }
    for (const InAttr& ia : in_attrs) Find(ia.id);
    stack_.push_back({false, false, std::string(), t});
    return Status::OK();
  }

  if (t != nullptr) {
    XUPDATE_RETURN_IF_ERROR(EmitTrees(t->ins_before, false));
  }

  // Assemble the output attribute list.
  std::vector<SaxAttribute> out_attrs;
  std::vector<NodeId> out_attr_ids;
  bool attrs_touched = t != nullptr && !t->ins_attr.empty();
  for (const InAttr& ia : in_attrs) {
    TargetOps* ta = Find(ia.id);
    if (ta == nullptr) {
      out_attrs.push_back(*ia.attr);
      out_attr_ids.push_back(ia.id);
      continue;
    }
    attrs_touched = true;
    if (ta->HasElementOnlyOps() || !ta->ins_before.empty() ||
        !ta->ins_after.empty()) {
      return Status::NotApplicable(
          "element-content operation targets attribute " +
          std::to_string(ia.id));
    }
    // repN (stage 3) runs before del (stage 5): a replaced attribute's
    // replacement survives a delete of the same attribute.
    if (ta->rep_node != nullptr) {
      for (NodeId root : ta->rep_node->param_trees) {
        if (pul_.forest().type(root) != NodeType::kAttribute) {
          return Status::NotApplicable(
              "attribute replaced by a non-attribute tree");
        }
        out_attrs.push_back(
            {pul_.forest().name(root), pul_.forest().value(root)});
        out_attr_ids.push_back(root);
      }
      continue;
    }
    if (ta->deleted) continue;
    out_attrs.push_back(
        {ta->rename != nullptr ? ta->rename->param_string : ia.attr->name,
         ta->rep_value != nullptr ? ta->rep_value->param_string
                                  : ia.attr->value});
    out_attr_ids.push_back(ia.id);
  }
  if (t != nullptr) {
    for (const UpdateOp* op : t->ins_attr) {
      for (NodeId root : op->param_trees) {
        out_attrs.push_back(
            {pul_.forest().name(root), pul_.forest().value(root)});
        out_attr_ids.push_back(root);
      }
    }
  }
  if (attrs_touched) {
    for (size_t i = 0; i < out_attrs.size(); ++i) {
      for (size_t j = i + 1; j < out_attrs.size(); ++j) {
        if (out_attrs[i].name == out_attrs[j].name) {
          return Status::NotApplicable(
              "duplicate attribute \"" + std::string(out_attrs[i].name) +
              "\" on element " + std::to_string(self));
        }
      }
    }
  }

  std::string out_name(t != nullptr && t->rename != nullptr
                           ? std::string_view(t->rename->param_string)
                           : name);
  // xu:ids annotation: "self[;attr ids]".
  std::string annotation = std::to_string(self);
  if (!out_attr_ids.empty()) {
    annotation += ';';
    for (size_t i = 0; i < out_attr_ids.size(); ++i) {
      if (i > 0) annotation += ',';
      annotation += std::to_string(out_attr_ids[i]);
    }
  }
  out_attrs.push_back({xml::kIdsAttributeName, annotation});
  XUPDATE_RETURN_IF_ERROR(out_.StartElement(out_name, out_attrs));

  Frame frame;
  frame.emit = true;
  frame.end_name = out_name;
  frame.ops = t;
  if (t != nullptr && t->rep_children != nullptr) {
    for (NodeId root : t->rep_children->param_trees) {
      XUPDATE_RETURN_IF_ERROR(EmitParamTree(root));
    }
    frame.children_suppressed = true;
  } else if (t != nullptr) {
    // Stage 1 insInto blocks land first-position in op order, then stage
    // 2 insFirst blocks land in front of them: emit both in reverse.
    XUPDATE_RETURN_IF_ERROR(EmitTrees(t->ins_first, true));
    XUPDATE_RETURN_IF_ERROR(EmitTrees(t->ins_into, true));
  }
  stack_.push_back(std::move(frame));
  return Status::OK();
}

Status Transformer::EndElement(std::string_view) {
  Frame frame = std::move(stack_.back());
  stack_.pop_back();
  pending_text_id_ = kInvalidNode;
  if (!frame.emit) {
    // Closing a removed/replaced target (or a node inside one); only a
    // removed *target* carries ops whose insAfter must still fire.
    if (frame.ops != nullptr && ParentEmits()) {
      XUPDATE_RETURN_IF_ERROR(EmitTrees(frame.ops->ins_after, true));
    }
    return Status::OK();
  }
  if (frame.ops != nullptr && !frame.children_suppressed) {
    XUPDATE_RETURN_IF_ERROR(EmitTrees(frame.ops->ins_last, false));
  }
  XUPDATE_RETURN_IF_ERROR(out_.EndElement(frame.end_name));
  if (frame.ops != nullptr) {
    XUPDATE_RETURN_IF_ERROR(EmitTrees(frame.ops->ins_after, true));
  }
  return Status::OK();
}

Status Transformer::Text(std::string_view text) {
  NodeId id = pending_text_id_ != kInvalidNode ? pending_text_id_
                                               : next_auto_id_++;
  pending_text_id_ = kInvalidNode;
  TargetOps* t = Find(id);
  if (!ParentEmits()) return Status::OK();
  if (t == nullptr) {
    XUPDATE_RETURN_IF_ERROR(
        out_.ProcessingInstruction("xuid", std::to_string(id)));
    return out_.Text(text);
  }
  if (t->HasElementOnlyOps() || t->rename != nullptr) {
    return Status::NotApplicable("element operation targets text node " +
                                 std::to_string(id));
  }
  XUPDATE_RETURN_IF_ERROR(EmitTrees(t->ins_before, false));
  if (t->deleted || t->rep_node != nullptr) {
    if (t->rep_node != nullptr) {
      for (NodeId root : t->rep_node->param_trees) {
        XUPDATE_RETURN_IF_ERROR(EmitParamTree(root));
      }
    }
  } else {
    XUPDATE_RETURN_IF_ERROR(
        out_.ProcessingInstruction("xuid", std::to_string(id)));
    XUPDATE_RETURN_IF_ERROR(out_.Text(
        t->rep_value != nullptr ? std::string_view(t->rep_value->param_string)
                                : text));
  }
  return EmitTrees(t->ins_after, true);
}

Status Transformer::ProcessingInstruction(std::string_view target,
                                          std::string_view data) {
  if (target != "xuid") return Status::OK();
  int64_t id = ParseNonNegativeInt(Trim(data));
  if (id <= 0) return Status::ParseError("bad <?xuid?> id");
  pending_text_id_ = static_cast<NodeId>(id);
  return Status::OK();
}

Status BuildIndex(const Pul& pul,
                  std::unordered_map<NodeId, TargetOps>* index) {
  XUPDATE_RETURN_IF_ERROR(pul.CheckCompatible());
  for (const UpdateOp& op : pul.ops()) {
    TargetOps& t = (*index)[op.target];
    switch (op.kind) {
      case OpKind::kInsBefore:
        t.ins_before.push_back(&op);
        break;
      case OpKind::kInsAfter:
        t.ins_after.push_back(&op);
        break;
      case OpKind::kInsFirst:
        t.ins_first.push_back(&op);
        break;
      case OpKind::kInsInto:
        t.ins_into.push_back(&op);
        break;
      case OpKind::kInsLast:
        t.ins_last.push_back(&op);
        break;
      case OpKind::kInsAttributes:
        t.ins_attr.push_back(&op);
        break;
      case OpKind::kDelete:
        t.deleted = true;
        break;
      case OpKind::kReplaceNode:
        t.rep_node = &op;
        break;
      case OpKind::kReplaceChildren:
        t.rep_children = &op;
        break;
      case OpKind::kReplaceValue:
        t.rep_value = &op;
        break;
      case OpKind::kRename:
        t.rename = &op;
        break;
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::string> StreamingEvaluator::Evaluate(
    std::string_view document_xml, const pul::Pul& pul) const {
  std::unordered_map<NodeId, TargetOps> index;
  XUPDATE_RETURN_IF_ERROR(BuildIndex(pul, &index));
  Transformer transformer(pul, index);
  XUPDATE_RETURN_IF_ERROR(xml::ParseSax(document_xml, &transformer));
  for (const auto& [id, t] : index) {
    if (!t.seen) {
      return Status::NotApplicable("target node " + std::to_string(id) +
                                   " not in document");
    }
  }
  return transformer.TakeOutput();
}

}  // namespace xupdate::exec
