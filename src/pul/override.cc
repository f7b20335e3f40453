#include "pul/override.h"

#include <algorithm>

namespace xupdate::pul {

OpKind EffectiveKind(const UpdateOp& op) {
  if (op.kind == OpKind::kReplaceNode && op.param_trees.empty()) {
    return OpKind::kDelete;
  }
  return op.kind;
}

SweepOp LabeledSweepOp(const UpdateOp& op, int32_t index, int32_t pul,
                       OverrideRelation relation) {
  const label::NodeLabel& lab = op.target_label;
  SweepOp s;
  s.start_key = lab.start.PrefixKey64();
  s.end_key = lab.end.PrefixKey64();
  s.start = &lab.start;
  s.end = &lab.end;
  s.target = op.target;
  s.parent = lab.parent;
  s.index = index;
  s.pul = pul;
  s.kind = relation == OverrideRelation::kWithinPul ? op.kind
                                                    : EffectiveKind(op);
  s.attribute = lab.type == xml::NodeType::kAttribute;
  return s;
}

std::vector<SweepOp> LabeledInSweepOrder(
    std::initializer_list<const std::vector<UpdateOp>*> puls,
    OverrideRelation relation) {
  std::vector<SweepOp> out;
  int32_t pul = 0;
  for (const std::vector<UpdateOp>* ops : puls) {
    for (size_t i = 0; i < ops->size(); ++i) {
      if (!(*ops)[i].target_label.valid()) continue;
      out.push_back(LabeledSweepOp((*ops)[i], static_cast<int32_t>(i), pul,
                                   relation));
    }
    ++pul;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SweepOp& a, const SweepOp& b) {
                     return ComparePositions(a.start_key, a.start,
                                             b.start_key, b.start) < 0;
                   });
  return out;
}

bool OpenOverriders::Contains(const OpenOverrider& frame) const {
  // The frame opened at an earlier start, so only its end can fail.
  return ComparePositions(frame.op->end_key, frame.op->end, op_.end_key,
                          op_.end) > 0;
}

bool OpenOverriders::Covers(const OpenOverrider& frame) const {
  const SweepOp& over = *frame.op;
  if (over.target == op_.target || !Contains(frame)) return false;
  if (frame.rule->scope == OverrideScope::kStrictSubtreeButOwnAttributes &&
      op_.attribute && op_.parent == over.target) {
    return false;
  }
  if (relation_ == OverrideRelation::kAcrossPuls && over.pul == op_.pul) {
    return false;
  }
  return Overrides(*frame.rule, op_.kind, relation_);
}

const OpenOverrider* OpenOverriders::Outermost() const {
  for (const OpenOverrider& frame : frames_) {
    if (Covers(frame)) return &frame;
  }
  return nullptr;
}

const OpenOverrider* OpenOverriders::LowestIndexed() const {
  const OpenOverrider* best = nullptr;
  for (size_t f = frames_.size(); f-- > 0;) {
    const OpenOverrider& frame = frames_[f];
    if (!Covers(frame)) continue;
    // When every frame from here down contains the op and the lowest-
    // indexed of them passes the scope filter, it is the answer below.
    const OpenOverrider& lowest =
        frames_[static_cast<size_t>(frame.min_index_frame)];
    const bool all_contain =
        Contains(frames_[static_cast<size_t>(frame.min_end_frame)]);
    const OpenOverrider* candidate =
        all_contain && Covers(lowest) ? &lowest : &frame;
    if (best == nullptr || candidate->op->index < best->op->index) {
      best = candidate;
    }
    if (candidate == &lowest) break;
  }
  return best;
}

void PushOverrider(const SweepOp& op, const OverrideRule& rule,
                   std::vector<OpenOverrider>* open) {
  const int32_t self = static_cast<int32_t>(open->size());
  OpenOverrider frame{&op, &rule, self, self};
  if (!open->empty()) {
    const OpenOverrider& below = open->back();
    const SweepOp& lowest = *(*open)[static_cast<size_t>(
                                 below.min_index_frame)].op;
    if (lowest.index < op.index) frame.min_index_frame = below.min_index_frame;
    const SweepOp& earliest = *(*open)[static_cast<size_t>(
                                   below.min_end_frame)].op;
    if (ComparePositions(earliest.end_key, earliest.end, op.end_key,
                         op.end) < 0) {
      frame.min_end_frame = below.min_end_frame;
    }
  }
  open->push_back(frame);
}

}  // namespace xupdate::pul
