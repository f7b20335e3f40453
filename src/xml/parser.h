#ifndef XUPDATE_XML_PARSER_H_
#define XUPDATE_XML_PARSER_H_

#include <span>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "xml/document.h"
#include "xml/sax.h"

namespace xupdate::xml {

struct ParseOptions {
  SaxOptions sax;
  // Honor `xu:ids` annotations (see SerializeOptions::with_ids),
  // reconstructing the exact node-id assignment; the annotation
  // attribute itself is not materialized as a document node. Documents
  // must be either fully annotated or not annotated at all — a clash
  // between an explicit id and an auto-assigned one is a parse error.
  bool read_ids = true;
};

// Parses `input` into a Document (the root element becomes the document
// root).
Result<Document> ParseDocument(std::string_view input,
                               const ParseOptions& options = {});

// Parses `input` as a standalone fragment into `doc` without touching
// doc's root; returns the id of the fragment's (detached) root element.
Result<NodeId> ParseFragment(Document* doc, std::string_view input,
                             const ParseOptions& options = {});

// SAX handler that builds element trees straight into a Document: the
// one implementation of the `xu:ids` / `<?xuid?>` id annotations.
// ParseDocument and ParseFragment drive it over a whole input; a reader
// of a larger record forwards it the events of each embedded tree (the
// PUL reader does so for every <elem> parameter). Each StartElement
// while no element is open starts a new detached tree.
class DomBuilder : public SaxHandler {
 public:
  // Builds into `doc`. Nodes without an explicit id take fresh ids from
  // doc's counter, first raised to `fresh_id_floor` (if below it) so
  // they cannot collide with explicit ids beneath that floor; the floor
  // is only applied once such a node actually appears.
  DomBuilder(Document* doc, bool read_ids, NodeId fresh_id_floor = 0)
      : doc_(doc), read_ids_(read_ids), fresh_id_floor_(fresh_id_floor) {}

  // Root of the most recently started tree (kInvalidNode before any).
  NodeId root() const { return root_; }
  // True while an element of the current tree is open.
  bool building() const { return !stack_.empty(); }

  Status StartElement(std::string_view name,
                      std::span<const SaxAttribute> attributes) override;
  Status EndElement(std::string_view name) override;
  Status ProcessingInstruction(std::string_view target,
                               std::string_view data) override;
  Status Text(std::string_view text) override;

 private:
  Document* doc_;
  bool read_ids_;
  NodeId fresh_id_floor_;
  NodeId root_ = kInvalidNode;
  // Open elements. Their children gather in children_ (from
  // first_child on) and attach at the end tag, so each child list is
  // sized once.
  struct OpenElement {
    NodeId element;
    size_t first_child;
  };
  std::vector<OpenElement> stack_;
  std::vector<NodeId> children_;
  NodeId pending_text_id_ = kInvalidNode;
  // Reused: one element's attribute ids (its xu:ids annotation first).
  std::vector<NodeId> attribute_ids_;

  // Raises doc's id counter to the floor; fails when no fresh id is
  // left (the annotated ids reached kMaxNodeId).
  Status PrepareFreshId();
};

}  // namespace xupdate::xml

#endif  // XUPDATE_XML_PARSER_H_
