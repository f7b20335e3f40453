#ifndef XUPDATE_LABEL_LABELING_H_
#define XUPDATE_LABEL_LABELING_H_

#include <vector>

#include "common/result.h"
#include "label/node_label.h"
#include "xml/document.h"
#include "xml/id_table.h"

namespace xupdate::label {

// The label table the PUL executor maintains for the authoritative copy
// of a document (§4.1). Built once per document; *existing* labels are
// never changed by updates (the update-tolerance property of the CDBS
// containment scheme): insertions squeeze new codes between neighbors,
// deletions just drop entries. Only the O(1) sibling bookkeeping
// (left_sibling / is_last_child) of the immediate neighbors of an edit
// is touched.
class Labeling {
 public:
  Labeling() = default;

  // Labels every node of doc's rooted tree with evenly distributed
  // initial CDBS codes (document order).
  static Labeling Build(const xml::Document& doc);

  // Exactly Build(doc)'s labels for the requested ids, and no others:
  // ids outside doc's rooted tree come back absent. One counting walk
  // of the tree; only the requested nodes' codes are computed and
  // stored, so a handful of ids on a large document allocates nothing
  // per node.
  static Labeling BuildFor(const xml::Document& doc,
                           const std::vector<xml::NodeId>& ids);

  // nullptr when `id` has no label.
  const NodeLabel* Find(xml::NodeId id) const;
  Result<NodeLabel> Get(xml::NodeId id) const;
  void Set(const NodeLabel& label) {
    *labels_.TryEmplace(label.self).first = label;
  }
  void Erase(xml::NodeId id) { labels_.Erase(id); }
  size_t size() const { return labels_.size(); }

  // Assigns labels to the subtree rooted at `root`, which must already
  // be attached at its final position in `doc`, and updates the sibling
  // bookkeeping of its neighbors. Labels of all other nodes are
  // untouched.
  Status AssignForInsertedSubtree(const xml::Document& doc,
                                  xml::NodeId root);

  // Must be called while `root`'s subtree is still present in `doc`:
  // erases the subtree's labels and patches the neighbors' sibling
  // bookkeeping as if the subtree were already gone.
  Status OnWillDeleteSubtree(const xml::Document& doc, xml::NodeId root);

  // Checks every label against ground truth computed from `doc`
  // (order, containment, level, parent, siblings). Test helper.
  Status Validate(const xml::Document& doc) const;

 private:
  // Computes the open CDBS interval available at the current position of
  // `node` (already attached in doc).
  Status BoundaryFor(const xml::Document& doc, xml::NodeId node,
                     BitString* left, BitString* right) const;
  // The initial labeling walk shared by Build and BuildFor: labels every
  // node of doc's rooted tree when `all`, else only the nodes that
  // already hold a (placeholder) entry.
  void BuildInitial(const xml::Document& doc, bool all);
  // Recursively labels `node` within (left, right).
  Status AssignRange(const xml::Document& doc, xml::NodeId node,
                     const BitString& left, const BitString& right,
                     uint32_t level);

  xml::IdTable<NodeLabel> labels_;
};

}  // namespace xupdate::label

#endif  // XUPDATE_LABEL_LABELING_H_
