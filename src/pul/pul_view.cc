#include "pul/pul_view.h"

namespace xupdate::pul {

void TargetIndex::Reset(size_t expected_ops) {
  size_t want = 16;
  while (want < expected_ops * 2) want <<= 1;
  buckets_.assign(want, Bucket{});
  next_.clear();
  next_.reserve(expected_ops);
  used_buckets_ = 0;
  invalid_chain_ = Bucket{};
}

TargetIndex::Bucket* TargetIndex::FindBucket(xml::NodeId target) {
  if (target == xml::kInvalidNode) return &invalid_chain_;
  size_t mask = buckets_.size() - 1;
  size_t i = Hash(target) & mask;
  while (true) {
    Bucket& b = buckets_[i];
    if (b.key == target) return &b;
    if (b.key == xml::kInvalidNode) {
      b.key = target;
      ++used_buckets_;
      return &b;
    }
    i = (i + 1) & mask;
  }
}

const TargetIndex::Bucket* TargetIndex::FindBucketConst(
    xml::NodeId target) const {
  if (target == xml::kInvalidNode) {
    return invalid_chain_.head >= 0 ? &invalid_chain_ : nullptr;
  }
  if (buckets_.empty()) return nullptr;
  size_t mask = buckets_.size() - 1;
  size_t i = Hash(target) & mask;
  while (true) {
    const Bucket& b = buckets_[i];
    if (b.key == target) return &b;
    if (b.key == xml::kInvalidNode) return nullptr;
    i = (i + 1) & mask;
  }
}

void TargetIndex::Grow() {
  std::vector<Bucket> old = std::move(buckets_);
  buckets_.assign(old.size() * 2, Bucket{});
  used_buckets_ = 0;
  size_t mask = buckets_.size() - 1;
  for (const Bucket& b : old) {
    if (b.key == xml::kInvalidNode) continue;
    size_t i = Hash(b.key) & mask;
    while (buckets_[i].key != xml::kInvalidNode) i = (i + 1) & mask;
    buckets_[i] = b;
    ++used_buckets_;
  }
}

void TargetIndex::Append(xml::NodeId target, int32_t index) {
  if (buckets_.empty()) Reset(16);
  // Keep load factor under 1/2 so probes stay short.
  if (target != xml::kInvalidNode &&
      (used_buckets_ + 1) * 2 > buckets_.size()) {
    Grow();
  }
  if (static_cast<size_t>(index) >= next_.size()) {
    next_.resize(static_cast<size_t>(index) + 1, -1);
  }
  next_[static_cast<size_t>(index)] = -1;
  Bucket* b = FindBucket(target);
  if (b->head < 0) {
    b->head = index;
  } else {
    next_[static_cast<size_t>(b->tail)] = index;
  }
  b->tail = index;
}

int32_t TargetIndex::Head(xml::NodeId target) const {
  const Bucket* b = FindBucketConst(target);
  return b != nullptr ? b->head : -1;
}

}  // namespace xupdate::pul
