#include "pul/describe.h"

#include "xml/serializer.h"

namespace xupdate::pul {

namespace {

// Paper-style operation glyphs.
std::string_view Glyph(OpKind kind) {
  switch (kind) {
    case OpKind::kInsBefore:
      return "ins<-";
    case OpKind::kInsAfter:
      return "ins->";
    case OpKind::kInsFirst:
      return "ins|<";
    case OpKind::kInsLast:
      return "ins>|";
    case OpKind::kInsInto:
      return "ins|";
    case OpKind::kInsAttributes:
      return "insA";
    case OpKind::kDelete:
      return "del";
    case OpKind::kReplaceNode:
      return "repN";
    case OpKind::kReplaceValue:
      return "repV";
    case OpKind::kReplaceChildren:
      return "repC";
    case OpKind::kRename:
      return "ren";
  }
  return "?";
}

void AppendElided(std::string* out, std::string_view text,
                  size_t max_param) {
  if (text.size() <= max_param) {
    *out += text;
  } else {
    *out += text.substr(0, max_param);
    *out += "...";
  }
}

}  // namespace

std::string DescribeOp(const Pul& pul, const UpdateOp& op,
                       size_t max_param) {
  std::string out(Glyph(op.kind));
  out += "(";
  out += std::to_string(op.target);
  for (xml::NodeId root : op.param_trees) {
    out += ", ";
    switch (pul.forest().type(root)) {
      case xml::NodeType::kElement: {
        auto text = xml::SerializeSubtree(pul.forest(), root, {});
        AppendElided(&out, text.ok() ? *text : "<?>", max_param);
        break;
      }
      case xml::NodeType::kText:
        out += "'";
        AppendElided(&out, pul.forest().value(root), max_param);
        out += "'";
        break;
      case xml::NodeType::kAttribute:
        out += std::string(pul.forest().name(root));
        out += "=\"";
        AppendElided(&out, pul.forest().value(root), max_param);
        out += "\"";
        break;
    }
  }
  if (op.kind == OpKind::kReplaceValue || op.kind == OpKind::kRename) {
    out += ", '";
    AppendElided(&out, op.param_string, max_param);
    out += "'";
  }
  out += ")";
  return out;
}

std::string DescribePul(const Pul& pul, size_t max_param) {
  std::string out;
  const Policies& policies = pul.policies();
  if (policies.preserve_insertion_order || policies.preserve_inserted_data ||
      policies.preserve_removed_data) {
    out += "policies:";
    if (policies.preserve_insertion_order) out += " insertion-order";
    if (policies.preserve_inserted_data) out += " inserted-data";
    if (policies.preserve_removed_data) out += " removed-data";
    out += "\n";
  }
  for (const UpdateOp& op : pul.ops()) {
    out += DescribeOp(pul, op, max_param);
    out += "\n";
  }
  return out;
}

}  // namespace xupdate::pul
