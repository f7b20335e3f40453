#include "xml/parser.h"

#include <string>
#include <vector>

#include "common/string_util.h"
#include "xml/serializer.h"

namespace xupdate::xml {

namespace {

// Parses one xu:ids annotation, "self;attr,attr,...[;rest]": returns the
// element's own id and fills `attribute_ids` (positional).
Result<NodeId> ParseIdsAnnotation(std::string_view text,
                                  std::vector<NodeId>* attribute_ids) {
  attribute_ids->clear();
  size_t semi = text.find(';');
  int64_t self = ParseNonNegativeInt(text.substr(0, semi));
  if (self <= 0) return Status::ParseError("bad xu:ids self id");
  if (semi != std::string_view::npos) {
    std::string_view rest = text.substr(semi + 1);
    rest = rest.substr(0, rest.find(';'));
    while (!rest.empty()) {
      size_t comma = rest.find(',');
      int64_t id = ParseNonNegativeInt(rest.substr(0, comma));
      if (id <= 0) return Status::ParseError("bad xu:ids attribute id");
      attribute_ids->push_back(static_cast<NodeId>(id));
      if (comma == std::string_view::npos) break;
      rest.remove_prefix(comma + 1);
    }
  }
  return static_cast<NodeId>(self);
}

}  // namespace

Status DomBuilder::StartElement(std::string_view name,
                                std::span<const SaxAttribute> attributes) {
  NodeId element = kInvalidNode;
  attribute_ids_.clear();
  if (read_ids_) {
    for (const SaxAttribute& a : attributes) {
      if (a.name == kIdsAttributeName) {
        XUPDATE_ASSIGN_OR_RETURN(element,
                                 ParseIdsAnnotation(a.value, &attribute_ids_));
        break;
      }
    }
  }
  if (element != kInvalidNode) {
    XUPDATE_RETURN_IF_ERROR(
        doc_->CreateWithId(element, NodeType::kElement, name, ""));
  } else {
    XUPDATE_RETURN_IF_ERROR(PrepareFreshId());
    element = doc_->NewElement(name);
  }
  // attribute_ids_ becomes the element's attribute list: the annotated
  // ids in order, then fresh ones.
  size_t attr_pos = 0;
  for (const SaxAttribute& a : attributes) {
    if (read_ids_ && a.name == kIdsAttributeName) continue;
    if (attr_pos < attribute_ids_.size()) {
      XUPDATE_RETURN_IF_ERROR(doc_->CreateWithId(
          attribute_ids_[attr_pos], NodeType::kAttribute, a.name, a.value));
    } else {
      XUPDATE_RETURN_IF_ERROR(PrepareFreshId());
      attribute_ids_.push_back(doc_->NewAttribute(a.name, a.value));
    }
    ++attr_pos;
  }
  XUPDATE_RETURN_IF_ERROR(doc_->AddAttributes(
      element, std::span<const NodeId>(attribute_ids_).first(attr_pos)));
  if (stack_.empty()) {
    root_ = element;
  } else {
    children_.push_back(element);
  }
  stack_.push_back({element, children_.size()});
  pending_text_id_ = kInvalidNode;
  return Status::OK();
}

Status DomBuilder::EndElement(std::string_view) {
  OpenElement open = stack_.back();
  stack_.pop_back();
  pending_text_id_ = kInvalidNode;
  std::span<const NodeId> children(children_);
  Status status =
      doc_->AppendChildren(open.element, children.subspan(open.first_child));
  children_.resize(open.first_child);
  return status;
}

Status DomBuilder::ProcessingInstruction(std::string_view target,
                                         std::string_view data) {
  if (!read_ids_ || target != "xuid") return Status::OK();
  int64_t id = ParseNonNegativeInt(Trim(data));
  if (id <= 0) return Status::ParseError("bad <?xuid?> id");
  pending_text_id_ = static_cast<NodeId>(id);
  return Status::OK();
}

Status DomBuilder::Text(std::string_view text) {
  if (stack_.empty()) {
    return Status::ParseError("text outside the root element");
  }
  NodeId node;
  if (pending_text_id_ != kInvalidNode) {
    XUPDATE_RETURN_IF_ERROR(
        doc_->CreateWithId(pending_text_id_, NodeType::kText, "", text));
    node = pending_text_id_;
    pending_text_id_ = kInvalidNode;
  } else {
    XUPDATE_RETURN_IF_ERROR(PrepareFreshId());
    node = doc_->NewText(text);
  }
  children_.push_back(node);
  return Status::OK();
}

Status DomBuilder::PrepareFreshId() {
  doc_->ReserveIdsBelow(fresh_id_floor_);
  if (!doc_->fresh_ids_left()) {
    return Status::ParseError("no fresh node id left above the annotated ids");
  }
  return Status::OK();
}

Result<Document> ParseDocument(std::string_view input,
                               const ParseOptions& options) {
  Document doc;
  DomBuilder builder(&doc, options.read_ids);
  XUPDATE_RETURN_IF_ERROR(ParseSax(input, &builder, options.sax));
  XUPDATE_RETURN_IF_ERROR(doc.SetRoot(builder.root()));
  return doc;
}

Result<NodeId> ParseFragment(Document* doc, std::string_view input,
                             const ParseOptions& options) {
  DomBuilder builder(doc, options.read_ids);
  XUPDATE_RETURN_IF_ERROR(ParseSax(input, &builder, options.sax));
  return builder.root();
}

}  // namespace xupdate::xml
