#ifndef XUPDATE_PUL_PUL_VIEW_H_
#define XUPDATE_PUL_PUL_VIEW_H_

#include <cstdint>
#include <vector>

#include "label/bitstring.h"
#include "pul/update_op.h"
#include "xml/node.h"

// Flat-index layer for the reasoning operators (reduce / integrate /
// aggregate / independence). The engines' hot loops are sorts, interval
// sweeps and shared-target hash joins over operations; what those loops
// actually touch is tiny — an order key, a kind, a target id — while the
// operations themselves carry labels, parameter trees and strings. This
// header provides contiguous POD views of exactly the hot fields, built
// once per operator invocation, so the loops scan cache-dense arrays and
// the param strings/labels stay in the owning Pul (no per-phase copies).

namespace xupdate::pul {

// One operation's hot fields. `order_key` is the order-preserving 64-bit
// prefix of the containment start code (label::BitString::PrefixKey64):
// unequal keys decide document order outright, equal keys fall back to
// the full code compare through `op->target_label`.
struct OpSlot {
  uint64_t order_key = 0;
  xml::NodeId target = xml::kInvalidNode;
  const UpdateOp* op = nullptr;
  int32_t op_index = 0;
  OpKind kind = OpKind::kDelete;
};

// Builds slots for a span of operations, with op_index numbering from
// `first_index`. Slots alias `ops` — the span must outlive the view.
std::vector<OpSlot> BuildOpSlots(const std::vector<UpdateOp>& ops,
                                 int32_t first_index = 0);

// Insertion-ordered shared-target join: target node id -> chain of op
// indices, in append order. Replaces unordered_map<NodeId, vector<int>>
// on the engines' hot paths: one flat `next` array plus an open-addressed
// power-of-two bucket table, no per-target heap vectors and no rehash
// churn. Chains preserve append order (head + tail per bucket), which the
// engines rely on for deterministic partner choice.
class TargetIndex {
 public:
  TargetIndex() = default;

  // Drops all chains and reserves room for ~expected_ops appends.
  void Reset(size_t expected_ops);

  // Appends op `index` to the chain of `target` (end of chain).
  void Append(xml::NodeId target, int32_t index);

  // First op index on the chain of `target`, -1 if none.
  int32_t Head(xml::NodeId target) const;

  // Next op on the same chain after `index`, -1 at the end.
  int32_t Next(int32_t index) const {
    return index < static_cast<int32_t>(next_.size())
               ? next_[static_cast<size_t>(index)]
               : -1;
  }

 private:
  struct Bucket {
    xml::NodeId key = xml::kInvalidNode;
    int32_t head = -1;
    int32_t tail = -1;
  };

  // splitmix64 finalizer; NodeIds are dense low integers, so the mixer
  // matters for the power-of-two mask.
  static uint64_t Hash(xml::NodeId id) {
    uint64_t x = id + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  Bucket* FindBucket(xml::NodeId target);
  const Bucket* FindBucketConst(xml::NodeId target) const;
  void Grow();

  std::vector<Bucket> buckets_;  // open addressing, power-of-two size
  std::vector<int32_t> next_;    // per op index: next on the same chain
  size_t used_buckets_ = 0;
  // kInvalidNode cannot live in the table (it is the empty-bucket
  // marker); ops should never target it, but degrade gracefully.
  Bucket invalid_chain_;
};

}  // namespace xupdate::pul

#endif  // XUPDATE_PUL_PUL_VIEW_H_
