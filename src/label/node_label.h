#ifndef XUPDATE_LABEL_NODE_LABEL_H_
#define XUPDATE_LABEL_NODE_LABEL_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "label/bitstring.h"
#include "xml/node.h"

namespace xupdate::label {

// Update-tolerant structural label of one document node: a Zhang-style
// containment interval [start, end] whose endpoints are CDBS codes, as
// adopted in §4.1 of the paper, extended — exactly as the paper does —
// with the node type and the identifier of the left sibling (plus level,
// parent and a last-child flag) so that *all* the structural
// relationships of Table 1 can be decided in constant time from a pair
// of labels, without accessing the document.
struct NodeLabel {
  // The two codes first, then the 8-byte ids, then the narrow fields:
  // 64 bytes with no padding hole.
  BitString start;
  BitString end;
  xml::NodeId self = xml::kInvalidNode;
  xml::NodeId parent = xml::kInvalidNode;
  // Immediate left sibling in the child list, kInvalidNode if first (or
  // not a child).
  xml::NodeId left_sibling = xml::kInvalidNode;
  uint32_t level = 0;
  xml::NodeType type = xml::NodeType::kElement;
  bool is_last_child = false;

  bool valid() const { return self != xml::kInvalidNode; }

  // Order-preserving 64-bit key over the containment start code: unequal
  // keys decide document order outright; equal keys require the full
  // start.Compare fallback (see BitString::PrefixKey64). Recomputed on
  // use — one load of the code's first word — rather than cached in the
  // label; the sweep view (pul::SweepOp) caches it per op.
  uint64_t OrderKey() const { return start.PrefixKey64(); }

  // Three-way document-order comparison of start codes, key-first with
  // full-compare fallback on key equality.
  static int CompareByStart(uint64_t key_a, const NodeLabel& a,
                            uint64_t key_b, const NodeLabel& b) {
    return BitString::CompareKeyed(key_a, a.start, key_b, b.start);
  }

  // Appends the compact textual form "<type><level>:<start>:<end>:
  // <parent>:<leftsib>:<last>" to `out`; self id travels separately.
  // Round-trips through Parse.
  void Serialize(std::string* out) const;
  static Result<NodeLabel> Parse(std::string_view text,
                                 xml::NodeId self_id);
};

static_assert(sizeof(NodeLabel) <= 64, "NodeLabel fits one cache line");

// --- Table 1 predicates, all O(label length) -----------------------------

// v1 << v2 : v1 precedes v2 in document order (preorder).
bool Precedes(const NodeLabel& v1, const NodeLabel& v2);
// v1 s v2 : v1 is the (immediate) left sibling of v2.
bool IsLeftSiblingOf(const NodeLabel& v1, const NodeLabel& v2);
// v1 /c v2 : v1 is a child (element/text, not attribute) of v2.
bool IsChildOf(const NodeLabel& v1, const NodeLabel& v2);
// v1 /a v2 : v1 is an attribute of v2.
bool IsAttributeOf(const NodeLabel& v1, const NodeLabel& v2);
// v1 /<-c v2 : v1 is the first child of v2.
bool IsFirstChildOf(const NodeLabel& v1, const NodeLabel& v2);
// v1 /->c v2 : v1 is the last child of v2.
bool IsLastChildOf(const NodeLabel& v1, const NodeLabel& v2);
// v1 //d v2 : v1 is a (proper) descendant of v2.
bool IsDescendantOf(const NodeLabel& v1, const NodeLabel& v2);
// v1 //!a_d v2 : v1 is a descendant of v2 but not an attribute of v2.
bool IsNonAttributeDescendantOf(const NodeLabel& v1, const NodeLabel& v2);

}  // namespace xupdate::label

#endif  // XUPDATE_LABEL_NODE_LABEL_H_
