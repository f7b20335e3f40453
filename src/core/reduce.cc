#include "core/reduce.h"

#include <algorithm>
#include <deque>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "label/bitstring.h"
#include "label/node_label.h"
#include "obs/trace.h"
#include "pul/pul_view.h"
#include "pul/update_op.h"
#include "xml/serializer.h"

namespace xupdate::core {

namespace {

using label::BitString;
using label::NodeLabel;
using pul::IsO1Overridable;
using pul::OpClass;
using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::kInvalidNode;
using xml::NodeId;
using xml::NodeType;

bool IsChildInsertion(OpKind kind) {
  return kind == OpKind::kInsFirst || kind == OpKind::kInsInto ||
         kind == OpKind::kInsLast;
}

// The sixteen merge rules of Figure 2 (I5-IR20) as one table, in the
// order each stage tries them. A rule relates two operations in the
// roles the figure names op1 (parameters L1) and op2 (L2). One of them,
// the anchor, locates the other through its target's label: the partner
// targets the anchor's own target, its parent or its left sibling. Both
// drivers read these rows: the worklist fixpoint (plain, deterministic)
// takes the first live partner, the canonical stepper the <p-minimal
// pair.
using enum OpKind;
enum Role : uint8_t { kOp1, kOp2 };
enum Relation : uint8_t { kSameTarget, kParent, kLeftSibling };
// Side condition on the anchor's target label.
enum Condition : uint8_t {
  kAnyLabel,
  kNotAttribute,
  kAttribute,
  kFirstChild,
  kLastChild,
};
// Parameter order of the merged operation.
enum Order : uint8_t { kL1L2, kL2L1 };
// I5's kind pattern: any insertion kind, shared by both roles and the
// result.
constexpr OpKind kAnyInsertion = static_cast<OpKind>(pul::kNumOpKinds);

struct MergeRule {
  const char* name;
  int stage;
  OpKind op1;
  OpKind op2;
  Role anchor;
  Relation relation;
  Condition condition;
  OpKind result;
  Role shape;  // gives the result its target and label
  Order params;
};

// I10/I11 take the child op's target (v', not the figure's v), and
// IR19/IR20 use the parameter orders reasoned out against IR8/IR9
// (DESIGN.md, "Known transcription fixes").
constexpr MergeRule kMergeRules[] = {
    // name  stage op1 op2 anchor relation condition result shape params
    {"I5", 1, kAnyInsertion, kAnyInsertion, kOp1, kSameTarget, kAnyLabel,
     kAnyInsertion, kOp1, kL1L2},
    {"I6", 2, kInsInto, kInsFirst, kOp1, kSameTarget, kAnyLabel, kInsFirst,
     kOp2, kL2L1},
    {"I7", 3, kInsInto, kInsLast, kOp1, kSameTarget, kAnyLabel, kInsLast,
     kOp2, kL1L2},
    {"IR8", 4, kReplaceNode, kInsBefore, kOp1, kSameTarget, kAnyLabel,
     kReplaceNode, kOp1, kL2L1},
    {"IR9", 4, kReplaceNode, kInsAfter, kOp1, kSameTarget, kAnyLabel,
     kReplaceNode, kOp1, kL1L2},
    {"I10", 5, kInsInto, kInsBefore, kOp2, kParent, kNotAttribute,
     kInsBefore, kOp2, kL1L2},
    {"I11", 6, kInsInto, kInsAfter, kOp2, kParent, kNotAttribute, kInsAfter,
     kOp2, kL2L1},
    {"IR12", 7, kReplaceNode, kInsInto, kOp1, kParent, kNotAttribute,
     kReplaceNode, kOp1, kL1L2},
    {"IR13", 8, kReplaceNode, kInsAttributes, kOp1, kParent, kAttribute,
     kReplaceNode, kOp1, kL1L2},
    {"I14", 8, kInsBefore, kInsFirst, kOp1, kParent, kFirstChild, kInsBefore,
     kOp1, kL2L1},
    {"I15", 8, kInsAfter, kInsLast, kOp1, kParent, kLastChild, kInsAfter,
     kOp1, kL1L2},
    {"IR16", 8, kReplaceNode, kInsFirst, kOp1, kParent, kFirstChild,
     kReplaceNode, kOp1, kL2L1},
    {"IR17", 8, kReplaceNode, kInsLast, kOp1, kParent, kLastChild,
     kReplaceNode, kOp1, kL1L2},
    {"I18", 9, kInsBefore, kInsAfter, kOp1, kLeftSibling, kNotAttribute,
     kInsBefore, kOp1, kL2L1},
    {"IR19", 9, kReplaceNode, kInsAfter, kOp1, kLeftSibling, kNotAttribute,
     kReplaceNode, kOp1, kL2L1},
    {"IR20", 9, kReplaceNode, kInsBefore, kOp2, kLeftSibling, kNotAttribute,
     kReplaceNode, kOp1, kL1L2},
};

// The rows of one stage (the table is sorted by stage).
std::span<const MergeRule> RulesOfStage(int stage) {
  auto in_stage = [stage](const MergeRule& r) { return r.stage == stage; };
  const MergeRule* begin =
      std::find_if(std::begin(kMergeRules), std::end(kMergeRules), in_stage);
  const MergeRule* end = std::find_if_not(begin, std::end(kMergeRules),
                                          in_stage);
  return {begin, end};
}

OpKind AnchorKind(const MergeRule& rule) {
  return rule.anchor == kOp1 ? rule.op1 : rule.op2;
}
OpKind PartnerKind(const MergeRule& rule) {
  return rule.anchor == kOp1 ? rule.op2 : rule.op1;
}

bool Fits(OpKind pattern, OpKind kind) {
  return pattern == kAnyInsertion
             ? pul::ClassOf(kind) == OpClass::kInsertion
             : kind == pattern;
}
// The concrete kind of a role pattern, given op1's kind.
OpKind Resolve(OpKind pattern, OpKind kind) {
  return pattern == kAnyInsertion ? kind : pattern;
}

bool Holds(Condition condition, const NodeLabel& lab) {
  const bool attribute = lab.type == NodeType::kAttribute;
  switch (condition) {
    case kAnyLabel:
      return true;
    case kNotAttribute:
      return !attribute;
    case kAttribute:
      return attribute;
    case kFirstChild:
      return !attribute && lab.left_sibling == kInvalidNode;
    case kLastChild:
      return !attribute && lab.is_last_child;
  }
  return false;
}

// The node the partner of `anchor` must target under `rule`, or
// kInvalidNode when the anchor's label fails the side condition or has
// no such neighbour.
NodeId PartnerTarget(const MergeRule& rule, const UpdateOp& anchor) {
  const NodeLabel& lab = anchor.target_label;
  if (rule.relation == kSameTarget) return anchor.target;
  if (!lab.valid() || !Holds(rule.condition, lab)) return kInvalidNode;
  return rule.relation == kParent ? lab.parent : lab.left_sibling;
}

// One work unit: whole components of the partition (see
// PartitionByTargetSubtree), solved by one Reducer.
struct Unit {
  // Global op indices, ascending (listing order).
  std::vector<int> ops;
  // The labeled ops as positions in `ops`, in document order of their
  // targets (ties by listing order).
  std::vector<int> doc_order;
};

// Reduction engine over a working copy of the input PUL's operations.
// Rules are found through O(1) hash lookups keyed on the structural
// information carried in the operation labels (same target, parent,
// left sibling); the A-D rules O3/O4 take one interval sweep over the
// ops in document order — matching the paper's optimized algorithm
// (§3.1).
//
// The engine works on one work unit: a subset of the operations (indices
// into input.ops(), ascending), reading the shared input forest but never
// touching it — several Reducers over disjoint units may run
// concurrently. Ranks are the global listing indices, so unit survivors
// merge into one listing order.
class Reducer {
 public:
  Reducer(const Pul& input, ReduceMode mode, const Unit* unit,
          obs::TraceLane* lane)
      : input_(input), mode_(mode), unit_(unit), lane_(lane) {}

  // Runs the rule fixpoint (the caller has already checked Definition 3
  // compatibility). Infallible by construction; returns Status to fit
  // the pool's exception-free task convention.
  Status RunRules();

  // Survivors of the fixpoint in working-set order. `key` and `op` point
  // into this Reducer and stay valid while it lives; `key` (the <o sort
  // key) is set only in canonical mode.
  struct Survivor {
    size_t rank;
    const std::string* key;
    const UpdateOp* op;
  };
  void CollectSurvivors(std::vector<Survivor>* out);

  size_t rule_applications() const { return applications_; }

 private:
  bool Alive(int i) const { return alive_[static_cast<size_t>(i)] != 0; }
  // The working set is a pointer view: base operations alias the input
  // PUL (never copied), merged and stage-10-rewritten operations live in
  // owned_ (a deque, so addresses stay stable as it grows).
  const UpdateOp& Op(int i) const { return *view_[static_cast<size_t>(i)]; }
  size_t NumOps() const { return view_.size(); }

  void Kill(int i) {
    alive_[static_cast<size_t>(i)] = 0;
    ++applications_;
  }

  // Stable id of a working-set op: its inherited listing rank. Merge
  // constituent sets are disjoint, so min-rank inheritance keeps the ids
  // unique across the whole run.
  std::string Id(int i) const {
    return "#" + std::to_string(rank_[static_cast<size_t>(i)]);
  }

  // rule-fired event with no result = pure kill: ops[0] overrides
  // ops[1].
  void EmitKill(const char* rule, int killer, int victim) {
    if (lane_ == nullptr || !lane_->enabled()) return;
    lane_->Emit(obs::EventKind::kRuleFired, rule, {Id(killer), Id(victim)},
                {},
                std::string(pul::OpKindName(Op(killer).kind)) +
                    " overrides " +
                    std::string(pul::OpKindName(Op(victim).kind)));
  }

  int AddMerged(UpdateOp op, size_t rank) {
    int index = static_cast<int>(view_.size());
    by_target_.Append(op.target, index);
    owned_.push_back(std::move(op));
    view_.push_back(&owned_.back());
    alive_.push_back(1);
    queued_.push_back(0);
    rank_.push_back(rank);
    return index;
  }

  // The first alive op with the given target and kind, excluding
  // `exclude`, in by_target_ chain (append) order.
  int FirstPartner(NodeId target, OpKind kind, int exclude) const {
    for (int32_t j = by_target_.Head(target); j >= 0;
         j = by_target_.Next(j)) {
      if (j != exclude && Alive(j) && Op(j).kind == kind) return j;
    }
    return -1;
  }

  // Calls visit(partner) for every alive partner of anchor op `a` under
  // `rule`, in chain order, until visit returns false.
  template <typename Visit>
  void ForEachPartner(const MergeRule& rule, int a, Visit visit) const {
    const UpdateOp& anchor = Op(a);
    if (!Fits(AnchorKind(rule), anchor.kind)) return;
    NodeId node = PartnerTarget(rule, anchor);
    if (node == kInvalidNode) return;
    OpKind kind = Resolve(PartnerKind(rule), anchor.kind);
    for (int32_t p = by_target_.Head(node); p >= 0; p = by_target_.Next(p)) {
      if (p != a && Alive(p) && Op(p).kind == kind && !visit(p)) return;
    }
  }

  // Replaces op1 and op2 (in the rule's roles) by their merge.
  void ApplyMerge(const MergeRule& rule, int op1, int op2) {
    const int first = rule.params == kL1L2 ? op1 : op2;
    const int second = rule.params == kL1L2 ? op2 : op1;
    const int shape_from = rule.shape == kOp1 ? op1 : op2;
    const OpKind result_kind = Resolve(rule.result, Op(op1).kind);
    UpdateOp merged;
    merged.kind = result_kind;
    merged.target = Op(shape_from).target;
    merged.target_label = Op(shape_from).target_label;
    merged.param_trees = Op(first).param_trees;
    merged.param_trees.insert(merged.param_trees.end(),
                              Op(second).param_trees.begin(),
                              Op(second).param_trees.end());
    size_t rank = std::min(rank_[static_cast<size_t>(first)],
                           rank_[static_cast<size_t>(second)]);
    Kill(first);
    alive_[static_cast<size_t>(second)] = 0;
    int index = AddMerged(std::move(merged), rank);
    if (lane_ != nullptr && lane_->enabled()) {
      lane_->Emit(obs::EventKind::kRuleFired, rule.name,
                  {Id(first), Id(second)}, Id(index),
                  std::string(pul::OpKindName(result_kind)));
    }
    Enqueue(index);
  }

  void Enqueue(int i) {
    if (queued_[static_cast<size_t>(i)] == 0) {
      queued_[static_cast<size_t>(i)] = 1;
      worklist_.push_back(i);
    }
  }
  void EnqueueBucket(NodeId target) {
    for (int32_t j = by_target_.Head(target); j >= 0;
         j = by_target_.Next(j)) {
      if (Alive(j)) Enqueue(j);
    }
  }

  // Worklist step of one rule on op `i`: fires on the first partner with
  // i as the anchor, then, for a same-target rule, with i as the
  // partner. Returns true if the rule fired (i is then dead).
  bool TryRule(const MergeRule& rule, int i);
  // Same-target drop rules O1/O2 centered on op `i`.
  bool TryDropRules(int i);
  // O3/O4: drops every op whose target lies strictly inside the interval
  // of a repN/del (or non-attribute-inside a repC) target.
  void SweepOverrides();

  // Worklist fixpoint of the rules of `stage` (plain/deterministic).
  bool StageFixpoint(int stage);
  // One canonical-order application for `stage`; true if something fired.
  bool CanonicalStageStep(int stage);

  // <o sort key (document order of targets, then parameter order).
  const std::string& OpKey(int i);

  const Pul& input_;
  ReduceMode mode_;
  const Unit* unit_;
  std::vector<const UpdateOp*> view_;  // op i; aliases input_ or owned_
  std::deque<UpdateOp> owned_;         // merged + stage-10-rewritten ops
  std::vector<char> alive_;
  std::vector<char> queued_;
  std::vector<size_t> rank_;  // PUL listing order, inherited by merges
  std::deque<int> worklist_;
  pul::TargetIndex by_target_;
  // <o keys are a function of the op's content, which never changes
  // after creation, so the cache is append-only across canonical steps.
  // Deque, not vector: OpKey hands out references that must survive the
  // cache growing when merges append ops mid-fixpoint.
  std::deque<std::string> key_cache_;
  std::vector<char> key_computed_;
  obs::TraceLane* lane_;
  size_t applications_ = 0;
};

bool Reducer::TryDropRules(int i) {
  const UpdateOp& op = Op(i);
  // O1, as the overridden side.
  if (IsO1Overridable(op.kind)) {
    int killer = FirstPartner(op.target, OpKind::kReplaceNode, i);
    if (killer < 0) killer = FirstPartner(op.target, OpKind::kDelete, i);
    if (killer >= 0) {
      EmitKill("O1", killer, i);
      Kill(i);
      return true;
    }
  }
  // O1, as the overriding side: drop overridable partners.
  if (op.kind == OpKind::kReplaceNode || op.kind == OpKind::kDelete) {
    for (int32_t j = by_target_.Head(op.target); j >= 0;
         j = by_target_.Next(j)) {
      if (j != i && Alive(j) && IsO1Overridable(Op(j).kind)) {
        EmitKill("O1", i, j);
        Kill(j);
        return true;
      }
    }
  }
  // O2: child insertions overridden by a same-target repC.
  if (IsChildInsertion(op.kind)) {
    int killer = FirstPartner(op.target, OpKind::kReplaceChildren, i);
    if (killer >= 0) {
      EmitKill("O2", killer, i);
      Kill(i);
      return true;
    }
  }
  if (op.kind == OpKind::kReplaceChildren) {
    for (int32_t j = by_target_.Head(op.target); j >= 0;
         j = by_target_.Next(j)) {
      if (j != i && Alive(j) && IsChildInsertion(Op(j).kind)) {
        EmitKill("O2", i, j);
        Kill(j);
        return true;
      }
    }
  }
  return false;
}

bool Reducer::TryRule(const MergeRule& rule, int i) {
  auto fire = [&](int anchor, int partner) {
    int op1 = rule.anchor == kOp1 ? anchor : partner;
    int op2 = rule.anchor == kOp1 ? partner : anchor;
    // I5's roles are interchangeable: the earlier-listed op gives L1, so
    // chained merges keep PUL listing order (rank survives merging, as
    // in the Table 3 worked example).
    if (rule.op1 == rule.op2 &&
        rank_[static_cast<size_t>(op2)] < rank_[static_cast<size_t>(op1)]) {
      std::swap(op1, op2);
    }
    ApplyMerge(rule, op1, op2);
    return true;
  };
  int j = -1;
  ForEachPartner(rule, i, [&j](int p) {
    j = p;
    return false;
  });
  if (j >= 0) return fire(i, j);
  // The partner side of a same-target rule (I5 is symmetric: its anchor
  // side has seen every partner). Parent and sibling rules are found
  // from the labeled side only: children are not indexed, and every op
  // passes through the worklist.
  if (rule.relation == kSameTarget && rule.op1 != rule.op2 &&
      Op(i).kind == PartnerKind(rule)) {
    j = FirstPartner(Op(i).target, AnchorKind(rule), i);
    if (j >= 0) return fire(j, i);
  }
  return false;
}

void Reducer::SweepOverrides() {
  // The unit's labeled ops in document order (ties by listing order),
  // all live: the order the partition sorted them in.
  const std::vector<int>& order = unit_->doc_order;
  auto start_key = [this](int i) {
    return Op(i).target_label.start.PrefixKey64();
  };
  // Stack of open killer intervals (op indices), innermost on top.
  struct OpenKiller {
    uint64_t end_key;
    const BitString* end;
    int op_index;
    bool children_only;  // repC: attributes of the target survive
  };
  std::vector<OpenKiller> open;
  // One step per node: pop the intervals that ended before it, kill the
  // node's ops that lie inside an open killer, then open the node's own
  // killers (a node's killer kills nothing at its own node: O1/O2 turf).
  for (size_t g = 0; g < order.size();) {
    const int first = order[g];
    const uint64_t key = start_key(first);
    const BitString& code = Op(first).target_label.start;
    size_t end = g + 1;
    while (end < order.size() &&
           BitString::CompareKeyed(start_key(order[end]),
                                   Op(order[end]).target_label.start, key,
                                   code) == 0) {
      ++end;
    }
    while (!open.empty() && BitString::CompareKeyed(open.back().end_key,
                                                    *open.back().end, key,
                                                    code) < 0) {
      open.pop_back();
    }
    for (size_t q = g; q < end && !open.empty(); ++q) {
      int victim = order[q];
      const UpdateOp& op = Op(victim);
      int killer_index = -1;
      for (const OpenKiller& k : open) {
        const UpdateOp& killer = Op(k.op_index);
        if (killer.target == op.target) continue;  // same node: O1/O2 turf
        if (k.children_only &&
            op.target_label.parent == killer.target &&
            op.target_label.type == NodeType::kAttribute) {
          continue;  // attribute of the repC target survives
        }
        killer_index = k.op_index;
        break;
      }
      if (killer_index >= 0) {
        const UpdateOp& killer = Op(killer_index);
        EmitKill(killer.kind == OpKind::kReplaceChildren ? "O4" : "O3",
                 killer_index, victim);
        Kill(victim);
      }
    }
    for (size_t k = g; k < end; ++k) {
      const UpdateOp& killer = Op(order[k]);
      if (killer.kind == OpKind::kReplaceNode ||
          killer.kind == OpKind::kDelete ||
          killer.kind == OpKind::kReplaceChildren) {
        const BitString& killer_end = killer.target_label.end;
        open.push_back({killer_end.PrefixKey64(), &killer_end, order[k],
                        killer.kind == OpKind::kReplaceChildren});
      }
    }
    g = end;
  }
}

bool Reducer::StageFixpoint(int stage) {
  const std::span<const MergeRule> rules = RulesOfStage(stage);
  bool any = false;
  queued_.assign(NumOps(), 0);
  worklist_.clear();
  for (size_t i = 0; i < NumOps(); ++i) {
    if (Alive(static_cast<int>(i))) Enqueue(static_cast<int>(i));
  }
  while (!worklist_.empty()) {
    int i = worklist_.front();
    worklist_.pop_front();
    queued_[static_cast<size_t>(i)] = 0;
    if (!Alive(i)) continue;
    bool fired = true;
    while (fired && Alive(i)) {
      fired = false;
      if (stage == 1 && TryDropRules(i)) {
        fired = true;
        any = true;
        // A drop may enable rules for the remaining bucket members.
        EnqueueBucket(Op(i).target);
        continue;
      }
      for (const MergeRule& rule : rules) {
        if (TryRule(rule, i)) {
          fired = true;
          any = true;
          break;
        }
      }
    }
  }
  return any;
}

const std::string& Reducer::OpKey(int i) {
  size_t idx = static_cast<size_t>(i);
  if (idx >= key_cache_.size()) {
    key_cache_.resize(NumOps());
    key_computed_.resize(NumOps(), 0);
  }
  if (key_computed_[idx] != 0) return key_cache_[idx];
  const UpdateOp& op = Op(i);
  std::string key;
  if (op.target_label.valid()) {
    key += '0';
    key += op.target_label.start.ToString();
  } else {
    key += '1';
    char buf[24];
    snprintf(buf, sizeof(buf), "%020llu",
             static_cast<unsigned long long>(op.target));
    key += buf;
  }
  key += '\x01';
  // Lexicographic order of the serialized parameters (<lex of <o).
  for (NodeId r : op.param_trees) {
    switch (input_.forest().type(r)) {
      case NodeType::kElement: {
        auto text = xml::SerializeSubtree(input_.forest(), r, {});
        if (text.ok()) key += *text;
        break;
      }
      case NodeType::kText:
        key += "t:";
        key += input_.forest().value(r);
        break;
      case NodeType::kAttribute:
        key += "a:";
        key += input_.forest().name(r);
        key += '=';
        key += input_.forest().value(r);
        break;
    }
    key += '\x02';
  }
  key += op.param_string;
  key_computed_[idx] = 1;
  key_cache_[idx] = std::move(key);
  return key_cache_[idx];
}

bool Reducer::CanonicalStageStep(int stage) {
  // Drops are order-insensitive: flush them first through the fast path.
  if (stage == 1) {
    bool dropped = false;
    for (size_t i = 0; i < NumOps(); ++i) {
      int idx = static_cast<int>(i);
      if (Alive(idx) && TryDropRules(idx)) dropped = true;
    }
    if (dropped) return true;
  }
  // Definition 9: per rule, fire the <p-minimal applicable ordered pair
  // (op1, op2). Among equal keys the first listed wins: anchors in index
  // order, partners in chain order.
  for (const MergeRule& rule : RulesOfStage(stage)) {
    int best1 = -1;
    int best2 = -1;
    for (size_t idx = 0; idx < NumOps(); ++idx) {
      const int a = static_cast<int>(idx);
      if (!Alive(a)) continue;
      ForEachPartner(rule, a, [&](int p) {
        const int op1 = rule.anchor == kOp1 ? a : p;
        const int op2 = rule.anchor == kOp1 ? p : a;
        if (best1 < 0 || OpKey(op1) < OpKey(best1) ||
            (OpKey(op1) == OpKey(best1) && OpKey(op2) < OpKey(best2))) {
          best1 = op1;
          best2 = op2;
        }
        return true;
      });
    }
    if (best1 >= 0) {
      ApplyMerge(rule, best1, best2);
      return true;
    }
  }
  return false;
}

void Reducer::CollectSurvivors(std::vector<Survivor>* out) {
  for (size_t i = 0; i < NumOps(); ++i) {
    int idx = static_cast<int>(i);
    if (!Alive(idx)) continue;
    out->push_back({rank_[i],
                    mode_ == ReduceMode::kCanonical ? &OpKey(idx) : nullptr,
                    view_[i]});
  }
}

Status Reducer::RunRules() {
  view_.reserve(unit_->ops.size());
  rank_.reserve(unit_->ops.size());
  for (int global : unit_->ops) {
    rank_.push_back(static_cast<size_t>(global));
    view_.push_back(&input_.ops()[static_cast<size_t>(global)]);
  }
  alive_.assign(view_.size(), 1);
  queued_.assign(view_.size(), 0);
  by_target_.Reset(view_.size());
  for (size_t i = 0; i < view_.size(); ++i) {
    by_target_.Append(view_[i]->target, static_cast<int32_t>(i));
  }
  // The override sweep runs once, before every other rule: afterwards no
  // live op lies inside a live killer's interval, and no rule breaks
  // that. Kills only remove ops; a merge's result takes the target and
  // label of a live constituent (inside no live killer), and when it is
  // a killer (always repN) that constituent was a live repN on the same
  // target, with no live op inside. So later sweeps would kill nothing.
  SweepOverrides();

  auto run_all_stages = [&]() {
    bool any = false;
    for (int stage = 1; stage <= 9; ++stage) {
      if (mode_ == ReduceMode::kCanonical) {
        // The key cache persists across steps: keys depend only on op
        // content, which is immutable once an op exists (merges create
        // new indices, stage 10 only flips the kind).
        while (CanonicalStageStep(stage)) {
          any = true;
        }
      } else {
        any |= StageFixpoint(stage);
      }
    }
    return any;
  };

  while (run_all_stages()) {
  }
  if (mode_ != ReduceMode::kPlain) {
    // Stage 10: determinize the surviving insInto operations. Base ops
    // alias the input, so the rewritten op is materialized in owned_.
    for (size_t i = 0; i < NumOps(); ++i) {
      if (Alive(static_cast<int>(i)) && Op(static_cast<int>(i)).kind == OpKind::kInsInto) {
        UpdateOp rewritten = Op(static_cast<int>(i));
        rewritten.kind = OpKind::kInsFirst;
        owned_.push_back(std::move(rewritten));
        view_[i] = &owned_.back();
        ++applications_;
        if (lane_ != nullptr && lane_->enabled()) {
          int idx = static_cast<int>(i);
          lane_->Emit(obs::EventKind::kRuleFired, "S10", {Id(idx)}, Id(idx),
                      "insInto -> insFirst");
        }
      }
    }
    while (run_all_stages()) {
    }
  }
  return Status::OK();
}

// Partitions the operation indices into the connected components of the
// "some Figure 2 rule or override sweep can relate these operations"
// relation, decided purely on containment labels:
//   * same target node;
//   * target's parent / immediate left sibling is another op's target
//     (the I10-I20 neighbor rules, in both lookup directions);
//   * the target interval nests inside another op's target interval
//     (the O3/O4 ancestor override sweep).
// The components are closed under rule application: a merged operation
// keeps the target (and label) of one of its constituents.
// Components are numbered in order of their first operation.
struct Partition {
  std::vector<int> component_of;  // op index -> component id
  std::vector<size_t> sizes;      // ops per component
  // The labeled ops in document order of their targets (ties by listing
  // order): the sweep's order, handed on to the units.
  std::vector<int> doc_order;
};

Partition PartitionByTargetSubtree(const Pul& input) {
  const std::vector<UpdateOp>& ops = input.ops();
  int n = static_cast<int>(ops.size());
  std::vector<int> uf(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) uf[static_cast<size_t>(i)] = i;
  auto find = [&uf](int x) {
    while (uf[static_cast<size_t>(x)] != x) {
      uf[static_cast<size_t>(x)] =
          uf[static_cast<size_t>(uf[static_cast<size_t>(x)])];
      x = uf[static_cast<size_t>(x)];
    }
    return x;
  };
  auto unite = [&](int a, int b) { uf[static_cast<size_t>(find(a))] = find(b); };

  // Flat target join: every op is united with the first op on its own
  // target, its parent and its left sibling. The same pass collects the
  // labeled start codes for the containment sweep below.
  pul::TargetIndex by_target;
  by_target.Reset(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    by_target.Append(ops[static_cast<size_t>(i)].target, i);
  }
  struct Start {
    uint64_t key;
    int op;
  };
  std::vector<Start> starts;
  starts.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const UpdateOp& op = ops[static_cast<size_t>(i)];
    int head = by_target.Head(op.target);
    if (head != i) unite(i, head);
    const NodeLabel& lab = op.target_label;
    if (!lab.valid()) continue;
    if (lab.parent != kInvalidNode) {
      head = by_target.Head(lab.parent);
      if (head >= 0) unite(i, head);
    }
    if (lab.left_sibling != kInvalidNode) {
      head = by_target.Head(lab.left_sibling);
      if (head >= 0) unite(i, head);
    }
    starts.push_back({lab.start.PrefixKey64(), i});
  }

  // Ancestor containment: sweep the labeled intervals in document order
  // and union every operation with the closest enclosing target, which
  // transitively covers the whole nesting chain. Order keys decide the
  // sort and the nesting pops; the full code compare only breaks ties.
  auto label_of = [&ops](int i) -> const NodeLabel& {
    return ops[static_cast<size_t>(i)].target_label;
  };
  std::sort(starts.begin(), starts.end(),
            [&label_of](const Start& a, const Start& b) {
              int c = BitString::CompareKeyed(a.key, label_of(a.op).start,
                                              b.key, label_of(b.op).start);
              if (c != 0) return c < 0;
              return a.op < b.op;
            });
  struct Open {
    uint64_t end_key;
    int op;
  };
  std::vector<Open> open;
  for (const Start& s : starts) {
    while (!open.empty() &&
           BitString::CompareKeyed(open.back().end_key,
                                   label_of(open.back().op).end, s.key,
                                   label_of(s.op).start) < 0) {
      open.pop_back();
    }
    if (!open.empty()) unite(s.op, open.back().op);
    open.push_back({label_of(s.op).end.PrefixKey64(), s.op});
  }

  Partition partition;
  partition.doc_order.reserve(starts.size());
  for (const Start& s : starts) partition.doc_order.push_back(s.op);
  partition.component_of.resize(static_cast<size_t>(n));
  std::vector<int> component_of_root(static_cast<size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    int& component = component_of_root[static_cast<size_t>(find(i))];
    if (component < 0) {
      component = static_cast<int>(partition.sizes.size());
      partition.sizes.push_back(0);
    }
    partition.component_of[static_cast<size_t>(i)] = component;
    ++partition.sizes[static_cast<size_t>(component)];
  }
  return partition;
}

// A work unit closes once it holds at least this many operations. Chosen
// from a sweep of 128-2048 (DESIGN.md §5): small enough that 10k
// operations still spread over every worker and canonical mode's pair
// scans stay short, large enough that the per-unit cost does not show
// at parallelism 1.
constexpr size_t kUnitOps = 1024;

// Packs the components, in first-op order, into contiguous work units of
// at least kUnitOps operations (the last may hold fewer). The packing is
// a function of the input alone and never splits a component. One
// ascending pass over the op indices fills every unit, so each unit's
// list is already in listing order; one pass over the partition's
// document order gives each unit its own.
std::vector<Unit> PackUnits(const Partition& partition) {
  std::vector<int> unit_of(partition.sizes.size());
  std::vector<size_t> unit_sizes;
  for (size_t c = 0; c < partition.sizes.size(); ++c) {
    if (unit_sizes.empty() || unit_sizes.back() >= kUnitOps) {
      unit_sizes.push_back(0);
    }
    unit_of[c] = static_cast<int>(unit_sizes.size() - 1);
    unit_sizes.back() += partition.sizes[c];
  }
  std::vector<Unit> units(unit_sizes.size());
  for (size_t u = 0; u < units.size(); ++u) {
    units[u].ops.reserve(unit_sizes[u]);
    units[u].doc_order.reserve(unit_sizes[u]);
  }
  auto unit_of_op = [&](int i) -> Unit& {
    return units[static_cast<size_t>(unit_of[static_cast<size_t>(
        partition.component_of[static_cast<size_t>(i)])])];
  };
  // position[i]: op i's index in its unit's `ops`.
  std::vector<int> position(partition.component_of.size());
  for (size_t i = 0; i < position.size(); ++i) {
    Unit& unit = unit_of_op(static_cast<int>(i));
    position[i] = static_cast<int>(unit.ops.size());
    unit.ops.push_back(static_cast<int>(i));
  }
  for (int i : partition.doc_order) {
    unit_of_op(i).doc_order.push_back(position[static_cast<size_t>(i)]);
  }
  return units;
}

}  // namespace

Result<pul::Pul> Reduce(const pul::Pul& input, const ReduceOptions& options,
                        ReduceStats* stats) {
  XUPDATE_RETURN_IF_ERROR(input.CheckCompatible());
  if (stats != nullptr) *stats = ReduceStats{};
  obs::Tracer* tracer = options.tracer;
  const bool tracing = tracer != nullptr;
  Metrics* metrics = options.metrics;
  if (metrics != nullptr) {
    metrics->AddCounter("reduce.calls");
    metrics->AddCounter("reduce.input_ops", input.size());
  }

  // The units are a function of the input alone, so the output and the
  // journal are byte-identical at every parallelism.
  obs::TraceLane partition_lane;
  if (tracing) partition_lane = tracer->Lane(tracer->NextPhase(), 0, "reduce");
  size_t num_components = 0;
  std::vector<Unit> units;
  {
    obs::TraceSpan span(&partition_lane, "partition");
    ScopedTimer timer(metrics, "reduce.partition_seconds");
    Partition partition = PartitionByTargetSubtree(input);
    num_components = partition.sizes.size();
    units = PackUnits(partition);
  }

  // One rules-phase lane per unit. The lanes are created (and the
  // unit's inventory emitted) on the coordinating thread, then each lane
  // is handed to exactly one pool task — the task queue supplies the
  // happens-before edge for the lane's seq counter.
  std::vector<obs::TraceLane> unit_lanes;
  if (tracing) {
    uint32_t rules_phase = tracer->NextPhase();
    unit_lanes.reserve(units.size());
    for (size_t u = 0; u < units.size(); ++u) {
      unit_lanes.push_back(
          tracer->Lane(rules_phase, static_cast<uint32_t>(u) + 1, "reduce"));
      std::vector<std::string> ids;
      ids.reserve(units[u].ops.size());
      for (int g : units[u].ops) ids.push_back("#" + std::to_string(g));
      unit_lanes[u].Emit(obs::EventKind::kShardAssigned, "unit",
                         std::move(ids));
    }
  }

  std::vector<std::unique_ptr<Reducer>> reducers;
  reducers.reserve(units.size());
  for (size_t u = 0; u < units.size(); ++u) {
    reducers.push_back(std::make_unique<Reducer>(
        input, options.mode, &units[u], tracing ? &unit_lanes[u] : nullptr));
  }
  {
    ScopedTimer timer(metrics, "reduce.rules_seconds");
    XUPDATE_RETURN_IF_ERROR(ParallelFor(
        options.pool, static_cast<size_t>(std::max(1, options.parallelism)),
        reducers.size(),
        [&reducers, &unit_lanes, tracing, metrics](size_t u) {
          obs::TraceSpan span(tracing ? &unit_lanes[u] : nullptr,
                              "unit-solve");
          ScopedTimer unit_timer(metrics, "reduce.unit_solve_seconds");
          return reducers[u]->RunRules();
        }));
  }

  // Survivors are emitted in the <o order for canonical mode and in rank
  // order (the listing position of the earliest operation folded into
  // each survivor — unique, since merge constituent sets are disjoint)
  // for the other modes. Both orders depend only on the final operation
  // set, never on the unit packing or the rule-application interleaving,
  // which keeps the output byte-deterministic.
  obs::TraceLane merge_lane;
  if (tracing) {
    merge_lane = tracer->Lane(tracer->NextPhase(), 0, "reduce");
  }
  ScopedTimer timer(metrics, "reduce.merge_seconds");
  obs::TraceSpan merge_span(&merge_lane, "merge");
  std::vector<Reducer::Survivor> survivors;
  survivors.reserve(input.size());  // a merge kills both constituents
  size_t applications = 0;
  for (std::unique_ptr<Reducer>& r : reducers) {
    r->CollectSurvivors(&survivors);
    applications += r->rule_applications();
  }
  if (options.mode == ReduceMode::kCanonical) {
    std::sort(survivors.begin(), survivors.end(),
              [](const Reducer::Survivor& a, const Reducer::Survivor& b) {
                if (*a.key != *b.key) return *a.key < *b.key;
                return a.rank < b.rank;
              });
  } else {
    std::sort(survivors.begin(), survivors.end(),
              [](const Reducer::Survivor& a, const Reducer::Survivor& b) {
                return a.rank < b.rank;
              });
  }
  pul::Pul out;
  out.set_policies(input.policies());
  out.BindIdSpace(1);  // ids preserved on adoption; floor irrelevant
  out.ReserveOps(survivors.size());
  for (const Reducer::Survivor& s : survivors) {
    XUPDATE_RETURN_IF_ERROR(out.AdoptOp(input.forest(), *s.op));
  }
  if (tracing) {
    for (size_t j = 0; j < survivors.size(); ++j) {
      merge_lane.Emit(obs::EventKind::kOpSurvived,
                      pul::OpKindName(survivors[j].op->kind),
                      {"#" + std::to_string(survivors[j].rank)},
                      "out#" + std::to_string(j));
    }
  }
  if (stats != nullptr) {
    stats->input_ops = input.size();
    stats->output_ops = out.size();
    stats->rule_applications = applications;
    stats->shards = num_components;
    stats->units = units.size();
  }
  if (metrics != nullptr) {
    metrics->AddCounter("reduce.shards", num_components);
    metrics->AddCounter("reduce.units", units.size());
    metrics->AddCounter("reduce.output_ops", out.size());
    metrics->AddCounter("reduce.rule_applications", applications);
  }
  return out;
}

}  // namespace xupdate::core
