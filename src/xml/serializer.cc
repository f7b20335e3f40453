#include "xml/serializer.h"

#include <algorithm>
#include <charconv>
#include <span>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "xml/sax.h"

namespace xupdate::xml {

namespace {

// One serialization pass: the writer plus the scratch it reuses across
// elements, so emitting a tree allocates only as its output grows.
class SubtreeEmitter {
 public:
  SubtreeEmitter(const Document& doc, const SerializeOptions& options,
                 std::string* out)
      : doc_(doc), options_(options), writer_(out, options.pretty) {}

  Status Emit(NodeId node) {
    if (doc_.type(node) == NodeType::kText) {
      if (options_.with_ids) {
        char digits[20];
        const char* end = std::to_chars(digits, digits + 20, node).ptr;
        XUPDATE_RETURN_IF_ERROR(writer_.ProcessingInstruction(
            "xuid", std::string_view(digits, end - digits)));
      }
      return writer_.Text(doc_.value(node));
    }
    if (doc_.type(node) != NodeType::kElement) {
      return Status::InvalidArgument(
          "only element and text nodes serialize inline");
    }
    writer_.OpenTag(doc_.name(node));
    std::span<const NodeId> attrs = doc_.attributes(node);
    if (options_.canonical_attributes && attrs.size() > 1) {
      sorted_.assign(attrs.begin(), attrs.end());
      std::sort(sorted_.begin(), sorted_.end(), [&](NodeId a, NodeId b) {
        return doc_.name(a) < doc_.name(b);
      });
      attrs = sorted_;
    }
    for (NodeId a : attrs) writer_.Attribute(doc_.name(a), doc_.value(a));
    if (options_.with_ids) {
      // xu:ids is positional over the attributes in the order written.
      // Text-child ids are emitted separately as <?xuid N?> markers so
      // the format can be produced by a streaming writer.
      ids_.clear();
      AppendDecimal(&ids_, node);
      for (size_t i = 0; i < attrs.size(); ++i) {
        ids_ += i == 0 ? ';' : ',';
        AppendDecimal(&ids_, attrs[i]);
      }
      writer_.Attribute(kIdsAttributeName, ids_);
    }
    for (NodeId c : doc_.children(node)) {
      XUPDATE_RETURN_IF_ERROR(Emit(c));
    }
    return writer_.EndElement(doc_.name(node));
  }

 private:
  const Document& doc_;
  const SerializeOptions& options_;
  SaxWriter writer_;
  std::vector<NodeId> sorted_;  // canonical attribute order
  std::string ids_;             // one xu:ids annotation
};

}  // namespace

Status AppendSubtree(const Document& doc, NodeId root,
                     const SerializeOptions& options, std::string* out) {
  if (!doc.Exists(root)) return Status::NotFound("subtree root not found");
  if (doc.type(root) != NodeType::kElement) {
    return Status::InvalidArgument("subtree root must be an element");
  }
  return SubtreeEmitter(doc, options, out).Emit(root);
}

Result<std::string> SerializeSubtree(const Document& doc, NodeId root,
                                     const SerializeOptions& options) {
  std::string out;
  XUPDATE_RETURN_IF_ERROR(AppendSubtree(doc, root, options, &out));
  return out;
}

Result<std::string> SerializeDocument(const Document& doc,
                                      const SerializeOptions& options) {
  if (doc.root() == kInvalidNode) {
    return Status::InvalidArgument("document has no root");
  }
  return SerializeSubtree(doc, doc.root(), options);
}

}  // namespace xupdate::xml
