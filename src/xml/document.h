#ifndef XUPDATE_XML_DOCUMENT_H_
#define XUPDATE_XML_DOCUMENT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "xml/block_store.h"
#include "xml/id_table.h"
#include "xml/name_pool.h"
#include "xml/node.h"

namespace xupdate::xml {

// Mutable XML document / forest following the paper's tree model
// D = (V, γ, λ, ν) (§2.1):
//  * V       — the set of live nodes (elements, attributes, texts);
//  * γ       — children(), attributes();
//  * λ, ν    — name(), value().
//
// Identity rules (paper §4.1): every node has a unique id, ids are never
// reused, and deleting a node does not free its id. A Document may hold
// several detached trees at once (update-operation parameters are forests
// living in the producer's id space), but at most one node is designated
// as *the* root.
//
// The class is copyable: obtainable-set enumeration (Definition 2) and
// the aggregation rule D6 both need independent snapshots. Node records
// are flat (NodeRecord); child lists, attribute lists and values live in
// the document's BlockStore, so a copy copies the record chunks, the
// blocks and the name pool, and does no work per node.
//
// Lifetime of what the accessors return: the span of children(id) or
// attributes(id) and the view of value(id) stay valid across edits of
// other nodes. They stop being valid when that node's own list or value
// is edited, when the node is erased, and when the document is
// destroyed or assigned to. A loop that edits a list while walking it
// must walk a copy.
class Document {
 public:
  Document() = default;

  Document(const Document&) = default;
  Document& operator=(const Document&) = default;
  Document(Document&&) noexcept = default;
  Document& operator=(Document&&) noexcept = default;

  // --- Node creation -----------------------------------------------------

  // Creates a detached node with a fresh id. Fresh ids end at
  // kMaxNodeId: past it the program stops (fresh_ids_left() tells).
  NodeId NewElement(std::string_view name);
  NodeId NewText(std::string_view value);
  NodeId NewAttribute(std::string_view name, std::string_view value);

  // Creates a detached node with a caller-chosen id (used when
  // materializing PUL parameter trees whose ids were assigned by a
  // producer). Fails if the id is 0, above kMaxNodeId or already
  // present.
  Status CreateWithId(NodeId id, NodeType type, std::string_view name,
                      std::string_view value);

  // --- Root --------------------------------------------------------------

  Status SetRoot(NodeId id);
  NodeId root() const { return root_; }

  // --- Accessors ----------------------------------------------------------

  bool Exists(NodeId id) const { return nodes_.Contains(id); }
  NodeType type(NodeId id) const { return Get(id).type; }
  NodeId parent(NodeId id) const { return Get(id).parent; }
  std::string_view name(NodeId id) const {
    return names_.Get(Get(id).name);
  }
  std::string_view value(NodeId id) const { return Bytes(Get(id).value); }
  std::span<const NodeId> children(NodeId id) const {
    return Ids(Get(id).children);
  }
  std::span<const NodeId> attributes(NodeId id) const {
    return Ids(Get(id).attributes);
  }
  size_t node_count() const { return nodes_.size(); }

  // Bytes of the storage blocks held, and of the lists and values in
  // them (capacities included); the rest is free or untouched space.
  size_t reserved_storage_bytes() const { return store_.reserved_bytes(); }
  size_t live_storage_bytes() const { return store_.live_bytes(); }

  // --- Structural edits ---------------------------------------------------
  // All edits require `child`/`node` to exist; insertion requires the
  // inserted node to be detached (no parent).

  Status AppendChild(NodeId parent, NodeId child);
  // AppendChild of each of `children` in order, growing the child list
  // once.
  Status AppendChildren(NodeId parent, std::span<const NodeId> children);
  Status PrependChild(NodeId parent, NodeId child);
  // Inserts `node` as sibling immediately before/after `ref`.
  Status InsertBefore(NodeId ref, NodeId node);
  Status InsertAfter(NodeId ref, NodeId node);
  Status AddAttribute(NodeId element, NodeId attribute);
  // AddAttribute of each of `attributes` in order, growing the
  // attribute list once.
  Status AddAttributes(NodeId element, std::span<const NodeId> attributes);

  // Unlinks `id` from its parent; the subtree stays alive and detached.
  Status Detach(NodeId id);
  // Detaches and erases the whole subtree (ids are never reused).
  Status DeleteSubtree(NodeId id);

  Status Rename(NodeId id, std::string_view name);
  Status SetValue(NodeId id, std::string_view value);

  // Replaces `target` with the detached nodes in `replacements`
  // (possibly none), preserving position; the old subtree is erased.
  Status ReplaceNode(NodeId target, std::span<const NodeId> replacements);

  // Deletes all children (not attributes) of `element` and appends the
  // detached `replacements`. The spec's repC takes a single optional text
  // node; we accept a list (see DESIGN.md on the repC generalization).
  Status ReplaceChildren(NodeId element,
                         std::span<const NodeId> replacements);

  // --- Cross-document copies ----------------------------------------------

  // Deep-copies the subtree rooted at `src_root` of `src` into this
  // document. If `preserve_ids` is true the source ids are kept (fails on
  // clash); otherwise fresh ids are assigned. Returns the new root.
  Result<NodeId> AdoptSubtree(const Document& src, NodeId src_root,
                              bool preserve_ids);

  // --- Order and structure queries (ground truth for label predicates) ----

  // 0-based depth of `id`; 0 for a tree root.
  int Level(NodeId id) const;
  // True if `anc` is a proper ancestor of `desc`.
  bool IsAncestor(NodeId anc, NodeId desc) const;
  // Document order: -1 if a < b, 0 if a == b, +1 if a > b. An element
  // precedes its attributes, which precede its children. Nodes in
  // different detached trees are ordered by their tree roots' ids.
  int Compare(NodeId a, NodeId b) const;
  // Index of `id` within its parent's child list, or -1 if detached /
  // an attribute.
  int ChildIndex(NodeId id) const;

  // --- Traversal -----------------------------------------------------------

  // Preorder visit of the subtree at `start` (element, then its
  // attributes, then children). Visitor returns false to stop early.
  void Visit(NodeId start,
             const std::function<bool(NodeId)>& visitor) const;

  // All live node ids of the tree rooted at root() in document order.
  std::vector<NodeId> AllNodesInOrder() const;

  // --- Validation / equality -----------------------------------------------

  // Checks internal invariants (parent/child symmetry, no dangling link,
  // root); used by tests and debug assertions.
  Status Validate() const;

  // Structural equality of two subtrees, optionally also requiring node
  // ids to match. Attribute order is irrelevant (paper Fig. 1).
  static bool SubtreeEquals(const Document& a, NodeId ra,
                            const Document& b, NodeId rb,
                            bool compare_ids);

  // True exactly when the two documents serialize to the same bytes with
  // ids embedded (SerializeOptions::with_ids, the store's canonical
  // form), decided without writing them: one lockstep preorder walk over
  // what the serializer writes — node kinds and ids, element names,
  // attribute ids, names and values in list order (the id annotation is
  // positional), text values and child order. Fails exactly where either
  // serialization would: no root, a non-element root, an attribute in a
  // child list.
  static Result<bool> SameAnnotated(const Document& a, const Document& b);

  // Upper bound on ids handed out so far; fresh ids are > this.
  NodeId max_assigned_id() const { return next_id_ - 1; }
  // True while a fresh id at or below kMaxNodeId remains.
  bool fresh_ids_left() const { return next_id_ <= kMaxNodeId; }

  // Makes this document allocate ids starting at `floor` (if beyond the
  // current counter). Producers use disjoint id spaces (§4.1).
  void ReserveIdsBelow(NodeId floor);

 private:
  // Tests corrupt records through it to exercise Validate.
  friend struct DocumentTestAccess;
  // The binary image codec (xml/document_image.h) reads and fills the
  // records, blocks and name pool directly.
  friend Status EncodeImage(const Document& doc, std::string* out);
  friend Result<Document> DecodeImage(std::string_view image);

  // The record of `id`, which must exist: a miss stops the program.
  const NodeRecord& Get(NodeId id) const {
    const NodeRecord* rec = nodes_.Find(id);
    if (rec == nullptr) MissingNode(id);
    return *rec;
  }
  NodeRecord& Get(NodeId id) {
    NodeRecord* rec = nodes_.Find(id);
    if (rec == nullptr) MissingNode(id);
    return *rec;
  }
  [[noreturn]] static void MissingNode(NodeId id);

  // The ids or bytes a record's StorageRef holds.
  std::span<const NodeId> Ids(const StorageRef& ref) const {
    if (ref.size == 0) return {};
    return {store_.Words(ref.block, ref.offset), ref.size};
  }
  std::string_view Bytes(const StorageRef& ref) const {
    if (ref.size == 0) return {};
    return {store_.Chars(ref.block, ref.offset), ref.size};
  }
  // Moves `list` to an extent of `capacity` ids unless it holds that
  // many already.
  void ReserveIds(StorageRef* list, size_t capacity);
  // Inserts `ids` at `pos` of `list`, moving the list to a larger
  // extent (at least twice its capacity) when it outgrows its own.
  void InsertIds(StorageRef* list, size_t pos, std::span<const NodeId> ids);
  // Removes the id at `pos` of `list`; the list stays where it is.
  void EraseId(StorageRef* list, size_t pos);
  // Makes `ref` hold `value`, in place when it fits.
  void AssignValue(StorageRef* ref, std::string_view value);
  // Returns `ref`'s extent (of `unit`-byte elements) to the store.
  void FreeRef(StorageRef* ref, size_t unit);

  // SameAnnotated's walk below `id`, a node both sides hold in the
  // same position; sets `*error` when either side holds an attribute in
  // a child list.
  static bool SameAnnotatedAt(const Document& a, const Document& b,
                              NodeId id, Status* error);

  NodeId Allocate(NodeType type, std::string_view name,
                  std::string_view value);
  // Adds the record of a fresh `id` (absent from the table).
  void Insert(NodeId id, NodeType type, std::string_view name,
              std::string_view value);
  Status CheckInsertable(NodeId node) const;
  // Root-to-node path (inclusive).
  std::vector<NodeId> PathToRoot(NodeId id) const;

  IdTable<NodeRecord> nodes_;
  BlockStore store_;
  NamePool names_;
  NodeId root_ = kInvalidNode;
  NodeId next_id_ = 1;
};

}  // namespace xupdate::xml

#endif  // XUPDATE_XML_DOCUMENT_H_
