#ifndef XUPDATE_PUL_OVERRIDE_H_
#define XUPDATE_PUL_OVERRIDE_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "label/bitstring.h"
#include "pul/update_op.h"
#include "xml/node.h"

// "Op X makes op Y ineffective": the one override relation behind the
// O-rules of Figure 2 (one PUL), conflict types 4 and 5 of Figure 3
// (across PULs) and the static verdicts. One constant table, and one
// containment sweep for the rows whose scope is a subtree (DESIGN.md,
// "One override relation").

namespace xupdate::pul {

// A set of operation kinds, one bit per OpKind.
using KindMask = uint16_t;

constexpr KindMask KindBit(OpKind kind) {
  return static_cast<KindMask>(1u << static_cast<unsigned>(kind));
}
constexpr bool HasKind(KindMask mask, OpKind kind) {
  return (mask & KindBit(kind)) != 0;
}

inline constexpr KindMask kAllKinds =
    static_cast<KindMask>((1u << kNumOpKinds) - 1);
inline constexpr KindMask kChildInsertionKinds =
    KindBit(OpKind::kInsFirst) | KindBit(OpKind::kInsInto) |
    KindBit(OpKind::kInsLast);
// What a same-target repN/del makes ineffective: everything but the
// sibling insertions (their effect survives the target's removal) and
// repN itself.
inline constexpr KindMask kO1Kinds =
    kChildInsertionKinds | KindBit(OpKind::kInsAttributes) |
    KindBit(OpKind::kDelete) | KindBit(OpKind::kReplaceValue) |
    KindBit(OpKind::kReplaceChildren) | KindBit(OpKind::kRename);

// The same-kind conflicts of Figure 3 on one target: type 1 (repeated
// modification) and type 3 (insertion order), on effective kinds.
inline constexpr KindMask kRepeatedModificationKinds =
    KindBit(OpKind::kRename) | KindBit(OpKind::kReplaceNode) |
    KindBit(OpKind::kReplaceChildren) | KindBit(OpKind::kReplaceValue);
inline constexpr KindMask kInsertionOrderKinds =
    KindBit(OpKind::kInsBefore) | KindBit(OpKind::kInsAfter) |
    KindBit(OpKind::kInsFirst) | KindBit(OpKind::kInsLast);

// Where the overridden target lies, relative to the overrider's.
enum class OverrideScope : uint8_t {
  kSameTarget,
  kStrictSubtree,
  kStrictSubtreeButOwnAttributes,  // repC keeps the target's attributes
};

enum class OverrideRelation : uint8_t {
  kWithinPul,   // Figure 2 (O1-O4), on the operations' own kinds
  kAcrossPuls,  // Figure 3 (types 4, 5), on effective kinds, other PUL
};

struct OverrideRule {
  const char* name;  // the Figure 2 rule
  OpKind overrider;
  OverrideScope scope;
  KindMask within_pul;   // kinds it overrides in its own PUL
  KindMask across_puls;  // kinds it conflicts with in another PUL
};

// The relation, same-target rows first. The two columns differ in two
// places only: a same-target del/del pair is an O1 override but no
// type-4 conflict, and an inner del is killed by O3/O4 but exempt from
// type 5 (removing a node twice is no conflict).
inline constexpr OverrideRule kOverrideRules[] = {
    {"O1", OpKind::kReplaceNode, OverrideScope::kSameTarget, kO1Kinds,
     kO1Kinds},
    {"O1", OpKind::kDelete, OverrideScope::kSameTarget, kO1Kinds,
     kO1Kinds & ~KindBit(OpKind::kDelete)},
    {"O2", OpKind::kReplaceChildren, OverrideScope::kSameTarget,
     kChildInsertionKinds, kChildInsertionKinds},
    {"O3", OpKind::kReplaceNode, OverrideScope::kStrictSubtree, kAllKinds,
     kAllKinds & ~KindBit(OpKind::kDelete)},
    {"O3", OpKind::kDelete, OverrideScope::kStrictSubtree, kAllKinds,
     kAllKinds & ~KindBit(OpKind::kDelete)},
    {"O4", OpKind::kReplaceChildren,
     OverrideScope::kStrictSubtreeButOwnAttributes, kAllKinds,
     kAllKinds & ~KindBit(OpKind::kDelete)},
};

// Same-target rows in the order the reduce engine tries them; subtree
// rows.
inline constexpr std::span<const OverrideRule> kSameTargetRules(
    kOverrideRules, 3);
inline constexpr std::span<const OverrideRule> kSubtreeRules(
    kOverrideRules + 3, 3);

inline bool Overrides(const OverrideRule& rule, OpKind other,
                      OverrideRelation relation) {
  return HasKind(relation == OverrideRelation::kWithinPul ? rule.within_pul
                                                          : rule.across_puls,
                 other);
}

// The row of `overrider` with that scope class, nullptr if none.
inline const OverrideRule* SameTargetRule(OpKind overrider) {
  for (const OverrideRule& rule : kSameTargetRules) {
    if (rule.overrider == overrider) return &rule;
  }
  return nullptr;
}

inline const OverrideRule* SubtreeRule(OpKind overrider) {
  for (const OverrideRule& rule : kSubtreeRules) {
    if (rule.overrider == overrider) return &rule;
  }
  return nullptr;
}

// Footnote 3: a repN with no replacement trees acts as del. The
// cross-PUL reading uses this kind.
OpKind EffectiveKind(const UpdateOp& op);

// --- The containment sweep ---------------------------------------------

// One operation as the sweep sees it. The target's interval [start, end]
// compares key-first; the codes break key ties and are null where the
// keys are exact (positions numbered on the document itself).
struct SweepOp {
  uint64_t start_key = 0;
  uint64_t end_key = 0;
  const label::BitString* start = nullptr;
  const label::BitString* end = nullptr;
  xml::NodeId target = xml::kInvalidNode;
  xml::NodeId parent = xml::kInvalidNode;  // of the target
  int32_t index = 0;  // the caller's number; lower = listed first
  int32_t pul = 0;    // which PUL, for the cross-PUL reading
  OpKind kind = OpKind::kDelete;  // as the relation reads it
  bool attribute = false;         // the target is an attribute
};

// A labeled operation, with its own kind within a PUL and its effective
// kind across PULs.
SweepOp LabeledSweepOp(const UpdateOp& op, int32_t index, int32_t pul,
                       OverrideRelation relation);
// The labeled operations of the given PULs (numbered in list order) in
// sweep order: by start, ties by PUL, then by index.
std::vector<SweepOp> LabeledInSweepOrder(
    std::initializer_list<const std::vector<UpdateOp>*> puls,
    OverrideRelation relation);

inline int ComparePositions(uint64_t key_a, const label::BitString* a,
                            uint64_t key_b, const label::BitString* b) {
  if (key_a != key_b) return key_a < key_b ? -1 : 1;
  return a == b || a == nullptr || b == nullptr ? 0 : a->Compare(*b);
}

// An overrider whose interval is open, with the stack positions of the
// lowest-indexed frame and of the earliest-ending frame among it and
// the frames below it.
struct OpenOverrider {
  const SweepOp* op;
  const OverrideRule* rule;
  int32_t min_index_frame;
  int32_t min_end_frame;
};

// The overriders open at one op, outermost first. The pickers return
// nullptr when none covers the op.
class OpenOverriders {
 public:
  OpenOverriders(std::span<const OpenOverrider> frames, const SweepOp& op,
                 OverrideRelation relation)
      : frames_(frames), op_(op), relation_(relation) {}

  // The table's scope filter: the frame strictly contains the op's
  // target, is not on the same node, spares it if it is an attribute of
  // a repC target, and overrides its kind; across PULs it belongs to
  // another PUL. Intervals need not nest, so containment is checked.
  bool Covers(const OpenOverrider& frame) const;
  const OpenOverrider* Outermost() const;
  // Uses the running minima: on nested intervals it stops at the first
  // covering frame from the top, since the frames the scope skips
  // (same node, the attribute's repC parent) are the innermost.
  const OpenOverrider* LowestIndexed() const;
  template <typename Visit>
  void ForEach(Visit visit) const {  // outermost first
    for (const OpenOverrider& frame : frames_) {
      if (Covers(frame)) visit(frame);
    }
  }

 private:
  bool Contains(const OpenOverrider& frame) const;

  std::span<const OpenOverrider> frames_;
  const SweepOp& op_;
  OverrideRelation relation_;
};

void PushOverrider(const SweepOp& op, const OverrideRule& rule,
                   std::vector<OpenOverrider>* open);

// The one containment sweep. `ops` come in document order of their
// starts (one target's ops adjacent). It keeps a stack of the open
// subtree overriders and calls visit(op, open) for each op while any is
// open; a target's own overriders open after its ops are visited (same-
// target pairs belong to the same-target rows). On nested intervals it
// costs O(1) per op and per overrider, after the caller's sort.
template <typename Visit>
void SweepOverrides(std::span<const SweepOp> ops, OverrideRelation relation,
                    Visit visit) {
  std::vector<OpenOverrider> open;
  for (size_t g = 0, end = 0; g < ops.size(); g = end) {
    const SweepOp& first = ops[g];
    for (end = g + 1; end < ops.size() &&
                      ComparePositions(ops[end].start_key, ops[end].start,
                                       first.start_key, first.start) == 0;
         ++end) {
    }
    while (!open.empty() &&
           ComparePositions(open.back().op->end_key, open.back().op->end,
                            first.start_key, first.start) < 0) {
      open.pop_back();
    }
    for (size_t q = g; q < end && !open.empty(); ++q) {
      visit(ops[q], OpenOverriders(open, ops[q], relation));
    }
    for (size_t q = g; q < end; ++q) {
      if (const OverrideRule* rule = SubtreeRule(ops[q].kind)) {
        PushOverrider(ops[q], *rule, &open);
      }
    }
  }
}

}  // namespace xupdate::pul

#endif  // XUPDATE_PUL_OVERRIDE_H_
