#include "label/node_label.h"

#include "common/string_util.h"

namespace xupdate::label {

void NodeLabel::Serialize(std::string* out) const {
  *out += xml::NodeTypeToChar(type);
  AppendDecimal(out, level);
  *out += ':';
  start.AppendTo(out);
  *out += ':';
  end.AppendTo(out);
  *out += ':';
  AppendDecimal(out, parent);
  *out += ':';
  AppendDecimal(out, left_sibling);
  *out += ':';
  *out += is_last_child ? '1' : '0';
}

Result<NodeLabel> NodeLabel::Parse(std::string_view text,
                                   xml::NodeId self_id) {
  NodeLabel lab;
  lab.self = self_id;
  if (text.empty()) return Status::ParseError("empty label");
  if (!xml::NodeTypeFromChar(text[0], &lab.type)) {
    return Status::ParseError("bad label type tag");
  }
  text.remove_prefix(1);
  std::string_view parts[6];
  size_t num_parts = 0;
  for (size_t pos = 0;;) {
    if (num_parts == 6) return Status::ParseError("bad label arity");
    size_t colon = text.find(':', pos);
    parts[num_parts++] = text.substr(
        pos, colon == std::string_view::npos ? colon : colon - pos);
    if (colon == std::string_view::npos) break;
    pos = colon + 1;
  }
  if (num_parts != 6) return Status::ParseError("bad label arity");
  int64_t level = ParseNonNegativeInt(parts[0]);
  int64_t parent = ParseNonNegativeInt(parts[3]);
  int64_t leftsib = ParseNonNegativeInt(parts[4]);
  if (level < 0 || parent < 0 || leftsib < 0) {
    return Status::ParseError("bad label integer field");
  }
  if (!lab.start.Assign(parts[1])) {
    return Status::ParseError("bad start code");
  }
  if (!lab.end.Assign(parts[2])) return Status::ParseError("bad end code");
  lab.level = static_cast<uint32_t>(level);
  lab.parent = static_cast<xml::NodeId>(parent);
  lab.left_sibling = static_cast<xml::NodeId>(leftsib);
  if (parts[5] != "0" && parts[5] != "1") {
    return Status::ParseError("bad last-child flag");
  }
  lab.is_last_child = parts[5] == "1";
  return lab;
}

bool Precedes(const NodeLabel& v1, const NodeLabel& v2) {
  return v1.valid() && v2.valid() && v1.self != v2.self &&
         v1.start < v2.start;
}

bool IsLeftSiblingOf(const NodeLabel& v1, const NodeLabel& v2) {
  return v1.valid() && v2.valid() && v2.left_sibling == v1.self;
}

bool IsChildOf(const NodeLabel& v1, const NodeLabel& v2) {
  return v1.valid() && v2.valid() && v1.parent == v2.self &&
         v1.type != xml::NodeType::kAttribute;
}

bool IsAttributeOf(const NodeLabel& v1, const NodeLabel& v2) {
  return v1.valid() && v2.valid() && v1.parent == v2.self &&
         v1.type == xml::NodeType::kAttribute;
}

bool IsFirstChildOf(const NodeLabel& v1, const NodeLabel& v2) {
  return IsChildOf(v1, v2) && v1.left_sibling == xml::kInvalidNode;
}

bool IsLastChildOf(const NodeLabel& v1, const NodeLabel& v2) {
  return IsChildOf(v1, v2) && v1.is_last_child;
}

bool IsDescendantOf(const NodeLabel& v1, const NodeLabel& v2) {
  return v1.valid() && v2.valid() && v2.start < v1.start &&
         v1.end < v2.end;
}

bool IsNonAttributeDescendantOf(const NodeLabel& v1, const NodeLabel& v2) {
  return IsDescendantOf(v1, v2) &&
         !(v1.parent == v2.self && v1.type == xml::NodeType::kAttribute);
}

}  // namespace xupdate::label
