#include "label/sidecar.h"

#include <string>
#include <vector>

#include "common/string_util.h"
#include "xml/sax.h"

namespace xupdate::label {

namespace {

using xml::Document;
using xml::kInvalidNode;
using xml::NodeId;
using xml::NodeType;

constexpr char kMagic[] = "xupdate-sidecar 1";

// One sidecar entry: identifier + serialized label.
struct Entry {
  NodeId id = kInvalidNode;
  std::string label;
};

// SAX handler building a document whose node ids are dictated by the
// positional sidecar entries (document order: element, its attributes,
// then children).
class SidecarBuilder : public xml::SaxHandler {
 public:
  SidecarBuilder(Document* doc, const std::vector<Entry>& entries)
      : doc_(doc), entries_(entries) {}

  NodeId root() const { return root_; }
  size_t consumed() const { return next_; }

  Status StartElement(std::string_view name,
                      std::span<const xml::SaxAttribute> attributes)
      override {
    XUPDATE_ASSIGN_OR_RETURN(NodeId id, TakeId());
    XUPDATE_RETURN_IF_ERROR(
        doc_->CreateWithId(id, NodeType::kElement, name, ""));
    for (const xml::SaxAttribute& attr : attributes) {
      XUPDATE_ASSIGN_OR_RETURN(NodeId attr_id, TakeId());
      XUPDATE_RETURN_IF_ERROR(doc_->CreateWithId(
          attr_id, NodeType::kAttribute, attr.name, attr.value));
      XUPDATE_RETURN_IF_ERROR(doc_->AddAttribute(id, attr_id));
    }
    if (stack_.empty()) {
      root_ = id;
    } else {
      XUPDATE_RETURN_IF_ERROR(doc_->AppendChild(stack_.back(), id));
    }
    stack_.push_back(id);
    return Status::OK();
  }

  Status EndElement(std::string_view) override {
    stack_.pop_back();
    return Status::OK();
  }

  Status Text(std::string_view text) override {
    if (stack_.empty()) {
      return Status::ParseError("text outside the root element");
    }
    XUPDATE_ASSIGN_OR_RETURN(NodeId id, TakeId());
    XUPDATE_RETURN_IF_ERROR(
        doc_->CreateWithId(id, NodeType::kText, "", text));
    return doc_->AppendChild(stack_.back(), id);
  }

 private:
  Result<NodeId> TakeId() {
    if (next_ >= entries_.size()) {
      return Status::ParseError(
          "sidecar has fewer entries than the document has nodes");
    }
    return entries_[next_++].id;
  }

  Document* doc_;
  const std::vector<Entry>& entries_;
  size_t next_ = 0;
  NodeId root_ = kInvalidNode;
  std::vector<NodeId> stack_;
};

}  // namespace

Result<std::string> SaveSidecar(const Document& doc,
                                const Labeling& labeling) {
  if (doc.root() == kInvalidNode) {
    return Status::InvalidArgument("document has no root");
  }
  std::vector<NodeId> order = doc.AllNodesInOrder();
  std::string out = kMagic;
  out += '\n';
  out += std::to_string(order.size());
  out += ' ';
  out += std::to_string(doc.max_assigned_id() + 1);
  out += '\n';
  for (NodeId id : order) {
    const NodeLabel* label = labeling.Find(id);
    if (label == nullptr) {
      return Status::InvalidArgument("node " + std::to_string(id) +
                                     " has no label");
    }
    out += std::to_string(id);
    out += ' ';
    label->Serialize(&out);
    out += '\n';
  }
  return out;
}

Result<SidecarDocument> LoadWithSidecar(std::string_view plain_xml,
                                        std::string_view sidecar) {
  // Parse the header and entry lines.
  std::vector<std::string_view> lines;
  size_t pos = 0;
  while (pos < sidecar.size()) {
    size_t eol = sidecar.find('\n', pos);
    if (eol == std::string_view::npos) eol = sidecar.size();
    if (eol > pos) lines.push_back(sidecar.substr(pos, eol - pos));
    pos = eol + 1;
  }
  if (lines.size() < 2 || lines[0] != kMagic) {
    return Status::ParseError("not a sidecar file");
  }
  size_t space = lines[1].find(' ');
  if (space == std::string_view::npos) {
    return Status::ParseError("bad sidecar header");
  }
  int64_t count = ParseNonNegativeInt(lines[1].substr(0, space));
  int64_t next_id = ParseNonNegativeInt(lines[1].substr(space + 1));
  if (count < 0 || next_id <= 0 ||
      lines.size() != static_cast<size_t>(count) + 2) {
    return Status::ParseError("sidecar entry count mismatch");
  }
  std::vector<Entry> entries;
  entries.reserve(static_cast<size_t>(count));
  for (size_t i = 2; i < lines.size(); ++i) {
    size_t sep = lines[i].find(' ');
    if (sep == std::string_view::npos) {
      return Status::ParseError("bad sidecar entry on line " +
                                std::to_string(i + 1));
    }
    int64_t id = ParseNonNegativeInt(lines[i].substr(0, sep));
    if (id <= 0) {
      return Status::ParseError("bad sidecar id on line " +
                                std::to_string(i + 1));
    }
    entries.push_back(
        {static_cast<NodeId>(id), std::string(lines[i].substr(sep + 1))});
  }

  SidecarDocument out;
  SidecarBuilder builder(&out.doc, entries);
  XUPDATE_RETURN_IF_ERROR(xml::ParseSax(plain_xml, &builder));
  if (builder.consumed() != entries.size()) {
    return Status::ParseError(
        "sidecar has more entries than the document has nodes");
  }
  XUPDATE_RETURN_IF_ERROR(out.doc.SetRoot(builder.root()));
  // Never hand out ids below the recorded watermark (deleted nodes must
  // not come back).
  out.doc.ReserveIdsBelow(static_cast<NodeId>(next_id));
  for (const Entry& entry : entries) {
    XUPDATE_ASSIGN_OR_RETURN(NodeLabel label,
                             NodeLabel::Parse(entry.label, entry.id));
    out.labeling.Set(label);
  }
  return out;
}

}  // namespace xupdate::label
