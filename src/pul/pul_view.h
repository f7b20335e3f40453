#ifndef XUPDATE_PUL_PUL_VIEW_H_
#define XUPDATE_PUL_PUL_VIEW_H_

#include <cstdint>
#include <vector>

#include "xml/node.h"

// Flat shared-target join for the reasoning operators (reduce /
// integrate / aggregate / independence / invert). The interval sweeps
// have their own flat view of the hot fields, pul::SweepOp
// (pul/override.h).

namespace xupdate::pul {

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
