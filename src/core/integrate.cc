#include "core/integrate.h"

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "label/bitstring.h"
#include "label/node_label.h"
#include "obs/trace.h"
#include "pul/pul_view.h"
#include "pul/update_op.h"

namespace xupdate::core {

namespace {

using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::NodeId;
using xml::NodeType;

// repN with an empty replacement list behaves exactly like del
// (footnote 3 of the paper); the conflict rules treat it as del.
OpKind EffectiveKind(const UpdateOp& op) {
  if (op.kind == OpKind::kReplaceNode && op.param_trees.empty()) {
    return OpKind::kDelete;
  }
  return op.kind;
}

bool IsType1Kind(OpKind kind) {
  return kind == OpKind::kRename || kind == OpKind::kReplaceNode ||
         kind == OpKind::kReplaceChildren || kind == OpKind::kReplaceValue;
}

bool IsType3Kind(OpKind kind) {
  return kind == OpKind::kInsBefore || kind == OpKind::kInsAfter ||
         kind == OpKind::kInsFirst || kind == OpKind::kInsLast;
}

// Operations a same-target repN/del overrides (local override, rule 4).
bool IsLocallyOverridable(OpKind effective) {
  switch (effective) {
    case OpKind::kRename:
    case OpKind::kReplaceValue:
    case OpKind::kReplaceChildren:
    case OpKind::kInsFirst:
    case OpKind::kInsLast:
    case OpKind::kInsAttributes:
    case OpKind::kInsInto:
    case OpKind::kDelete:
      return true;
    default:
      return false;
  }
}

// Stable trace id of an input operation: PUL index + listing index.
std::string RefId(const OpRef& ref) {
  return "P" + std::to_string(ref.pul) + "#" + std::to_string(ref.op);
}

struct TaggedOp {
  OpRef ref;
  const UpdateOp* op = nullptr;
  const Pul* owner = nullptr;
  OpKind effective = OpKind::kDelete;
  bool conflicted = false;
};

// One target node with all the operations aimed at it. The order keys
// are the 64-bit start/end code prefixes (label::BitString::PrefixKey64)
// cached at group creation: the document-order sort and the containment
// sweep compare them first and touch the codes only on key ties.
struct Group {
  NodeId target = xml::kInvalidNode;
  const label::NodeLabel* label = nullptr;
  uint64_t start_key = 0;
  uint64_t end_key = 0;
  std::vector<TaggedOp*> ops;
  std::vector<int> children;  // indices into the group vector (type-5 tree)
};

// Per-shard scratch for DetectLocalConflicts: one bucket per op kind,
// reused across the shard's groups so the 11-kind filter is a single
// pass over each group instead of kNumOpKinds passes.
struct LocalScratch {
  std::vector<TaggedOp*> by_kind[pul::kNumOpKinds];
};

// Attribute names inserted by an insA operation.
std::vector<std::string_view> InsertedAttributeNames(const TaggedOp& op) {
  std::vector<std::string_view> names;
  for (NodeId r : op.op->param_trees) {
    names.push_back(op.owner->forest().name(r));
  }
  return names;
}

class Integrator {
 public:
  Integrator(const std::vector<const Pul*>& puls,
             const IntegrateOptions& options)
      : puls_(puls), options_(options) {}

  Result<IntegrationResult> Run();

 private:
  // Appends the type 1-4 conflicts of one target group to `out`.
  // `scratch` is the calling shard's kind-bucket scratch (reused across
  // its groups; shards never share one).
  void DetectLocalConflicts(Group& group, LocalScratch* scratch,
                            std::vector<Conflict>* out);
  // Appends the type-5 conflicts of the self-contained group forest
  // groups_[begin, end) to `out`, innermost targets first (reverse
  // document order of the overriding group).
  void DetectNonLocalConflicts(size_t begin, size_t end,
                               std::vector<Conflict>* out);

  const std::vector<const Pul*>& puls_;
  const IntegrateOptions& options_;
  std::vector<TaggedOp> tagged_;
  std::vector<Group> groups_;
  std::vector<Conflict> conflicts_;
};

void Integrator::DetectLocalConflicts(Group& group, LocalScratch* scratch,
                                      std::vector<Conflict>* out) {
  // Spans of operations from at least two distinct PULs are required for
  // any conflict.
  auto distinct_puls = [](const std::vector<TaggedOp*>& ops) {
    int first = -1;
    for (const TaggedOp* t : ops) {
      if (first == -1) {
        first = t->ref.pul;
      } else if (t->ref.pul != first) {
        return true;
      }
    }
    return false;
  };

  // One bucketing pass replaces the per-kind scans; bucket order is the
  // group's op order, so the emitted conflicts are unchanged.
  for (auto& bucket : scratch->by_kind) bucket.clear();
  for (TaggedOp* t : group.ops) {
    scratch->by_kind[static_cast<int>(t->effective)].push_back(t);
  }

  // Types 1 and 3: same effective kind, same target.
  for (int k = 0; k < pul::kNumOpKinds; ++k) {
    OpKind kind = static_cast<OpKind>(k);
    if (!IsType1Kind(kind) && !IsType3Kind(kind)) continue;
    const std::vector<TaggedOp*>& same_kind = scratch->by_kind[k];
    if (same_kind.size() < 2 || !distinct_puls(same_kind)) continue;
    Conflict c;
    c.type = IsType1Kind(kind) ? ConflictType::kRepeatedModification
                               : ConflictType::kInsertionOrder;
    for (TaggedOp* t : same_kind) {
      c.ops.push_back(t->ref);
      t->conflicted = true;
    }
    out->push_back(std::move(c));
  }

  // Type 2: insA operations from different PULs inserting at least one
  // common attribute name; conflicts are the connected components of the
  // shared-name relation.
  const std::vector<TaggedOp*>& ins_attr =
      scratch->by_kind[static_cast<int>(OpKind::kInsAttributes)];
  if (ins_attr.size() >= 2) {
    std::vector<std::vector<std::string_view>> names;
    names.reserve(ins_attr.size());
    for (TaggedOp* t : ins_attr) names.push_back(InsertedAttributeNames(*t));
    std::vector<int> component(ins_attr.size());
    for (size_t i = 0; i < ins_attr.size(); ++i) {
      component[i] = static_cast<int>(i);
    }
    std::function<int(int)> find = [&](int x) {
      while (component[static_cast<size_t>(x)] != x) {
        x = component[static_cast<size_t>(x)];
      }
      return x;
    };
    bool any_edge = false;
    for (size_t i = 0; i < ins_attr.size(); ++i) {
      for (size_t j = i + 1; j < ins_attr.size(); ++j) {
        if (ins_attr[i]->ref.pul == ins_attr[j]->ref.pul) continue;
        bool share = false;
        for (std::string_view a : names[i]) {
          for (std::string_view b : names[j]) {
            if (a == b) {
              share = true;
              break;
            }
          }
          if (share) break;
        }
        if (share) {
          component[static_cast<size_t>(find(static_cast<int>(i)))] =
              find(static_cast<int>(j));
          any_edge = true;
        }
      }
    }
    if (any_edge) {
      // Keyed on the component's first member so conflicts come out in
      // the order the operations were listed, not in hash order.
      std::map<int, Conflict> by_component;
      for (size_t i = 0; i < ins_attr.size(); ++i) {
        by_component[find(static_cast<int>(i))].ops.push_back(
            ins_attr[i]->ref);
      }
      for (auto& [root, c] : by_component) {
        if (c.ops.size() < 2) continue;
        c.type = ConflictType::kRepeatedAttributeInsertion;
        for (const OpRef& ref : c.ops) {
          for (TaggedOp* t : ins_attr) {
            if (t->ref == ref) {
              t->conflicted = true;
              break;
            }
          }
        }
        out->push_back(std::move(c));
      }
    }
  }

  // Type 4: local overrides.
  for (TaggedOp* overrider : group.ops) {
    OpKind ok = overrider->effective;
    bool full = ok == OpKind::kReplaceNode || ok == OpKind::kDelete;
    bool children_only = ok == OpKind::kReplaceChildren;
    if (!full && !children_only) continue;
    Conflict c;
    c.type = ConflictType::kLocalOverride;
    c.overrider = overrider->ref;
    for (TaggedOp* other : group.ops) {
      if (other == overrider || other->ref.pul == overrider->ref.pul) {
        continue;
      }
      OpKind o2 = other->effective;
      bool hit = false;
      if (full) {
        hit = IsLocallyOverridable(o2) &&
              !(ok == OpKind::kDelete && o2 == OpKind::kDelete);
      } else {
        hit = o2 == OpKind::kInsFirst || o2 == OpKind::kInsInto ||
              o2 == OpKind::kInsLast;
      }
      if (hit) {
        c.ops.push_back(other->ref);
        other->conflicted = true;
      }
    }
    if (!c.ops.empty()) {
      overrider->conflicted = true;
      out->push_back(std::move(c));
    }
  }
}

void Integrator::DetectNonLocalConflicts(size_t begin, size_t end,
                                         std::vector<Conflict>* out) {
  // Postorder over the target tree built in Run(); every node passes the
  // list of operations in its subtree up to its parent, where the
  // ancestor's repN/del/repC operations are matched against them.
  std::vector<std::vector<TaggedOp*>> subtree(end - begin);
  // groups_ is in document order, so children always follow parents;
  // iterate in reverse for a valid postorder.
  for (size_t gi = end; gi-- > begin;) {
    Group& g = groups_[gi];
    std::vector<TaggedOp*> below;
    for (int child : g.children) {
      auto& sub = subtree[static_cast<size_t>(child) - begin];
      below.insert(below.end(), sub.begin(), sub.end());
      sub.clear();
      sub.shrink_to_fit();
    }
    for (TaggedOp* overrider : g.ops) {
      OpKind ok = overrider->effective;
      bool full = ok == OpKind::kReplaceNode || ok == OpKind::kDelete;
      bool children_only = ok == OpKind::kReplaceChildren;
      if (!full && !children_only) continue;
      Conflict c;
      c.type = ConflictType::kNonLocalOverride;
      c.overrider = overrider->ref;
      for (TaggedOp* other : below) {
        if (other->ref.pul == overrider->ref.pul) continue;
        if (other->effective == OpKind::kDelete) continue;
        if (children_only &&
            other->op->target_label.parent == g.target &&
            other->op->target_label.type == NodeType::kAttribute) {
          continue;  // attributes of the repC target survive
        }
        c.ops.push_back(other->ref);
        other->conflicted = true;
      }
      if (!c.ops.empty()) {
        overrider->conflicted = true;
        out->push_back(std::move(c));
      }
    }
    below.insert(below.end(), g.ops.begin(), g.ops.end());
    subtree[gi - begin] = std::move(below);
  }
}

Result<IntegrationResult> Integrator::Run() {
  Metrics* metrics = options_.metrics;
  if (metrics) metrics->AddCounter("integrate.calls");

  // Tag and validate.
  for (size_t p = 0; p < puls_.size(); ++p) {
    XUPDATE_RETURN_IF_ERROR(puls_[p]->CheckCompatible());
    const auto& ops = puls_[p]->ops();
    for (size_t o = 0; o < ops.size(); ++o) {
      if (!ops[o].target_label.valid()) {
        return Status::InvalidArgument(
            "integration requires target labels on every operation");
      }
      TaggedOp t;
      t.ref = {static_cast<int>(p), static_cast<int>(o)};
      t.op = &ops[o];
      t.owner = puls_[p];
      t.effective = EffectiveKind(ops[o]);
      tagged_.push_back(t);
    }
  }
  if (metrics) metrics->AddCounter("integrate.input_ops", tagged_.size());

  obs::Tracer* tracer = options_.tracer;
  const bool tracing = tracer != nullptr;
  if (tracing) {
    obs::TraceLane input_lane =
        tracer->Lane(tracer->NextPhase(), 0, "integrate");
    size_t cursor = 0;
    for (size_t p = 0; p < puls_.size(); ++p) {
      std::vector<std::string> ids;
      ids.reserve(puls_[p]->size());
      for (size_t o = 0; o < puls_[p]->size(); ++o) {
        ids.push_back(RefId(tagged_[cursor + o].ref));
      }
      cursor += puls_[p]->size();
      input_lane.Emit(obs::EventKind::kNote, "input", std::move(ids), {},
                      "P" + std::to_string(p));
    }
  }

  // Roots of the containment forest; each root starts a contiguous run
  // of groups (a shard) that no conflict rule reaches across.
  std::vector<size_t> roots;
  obs::TraceLane group_lane;
  if (tracing) {
    group_lane = tracer->Lane(tracer->NextPhase(), 0, "integrate");
  }
  {
    obs::TraceSpan span(&group_lane, "group");
    ScopedTimer timer(metrics, "integrate.group_seconds");

    // Partition by target in document order of the targets. The flat
    // target index replaces the hash map: Head() is the group of a
    // target, -1 if unseen.
    pul::TargetIndex group_of;
    group_of.Reset(tagged_.size());
    for (TaggedOp& t : tagged_) {
      int32_t gi = group_of.Head(t.op->target);
      if (gi < 0) {
        gi = static_cast<int32_t>(groups_.size());
        group_of.Append(t.op->target, gi);
        Group g;
        g.target = t.op->target;
        g.label = &t.op->target_label;
        g.start_key = t.op->target_label.start.PrefixKey64();
        g.end_key = t.op->target_label.end.PrefixKey64();
        groups_.push_back(std::move(g));
      }
      groups_[static_cast<size_t>(gi)].ops.push_back(&t);
    }
    std::sort(groups_.begin(), groups_.end(),
              [](const Group& a, const Group& b) {
                return label::BitString::CompareKeyed(
                           a.start_key, a.label->start, b.start_key,
                           b.label->start) < 0;
              });

    // Containment tree over the sorted targets: the parent of a group is
    // the closest enclosing target (paper's tree T; a virtual root covers
    // forests). Stack sweep over document order, on the cached keys.
    std::vector<int> stack;
    for (size_t gi = 0; gi < groups_.size(); ++gi) {
      const Group& g = groups_[gi];
      while (!stack.empty()) {
        const Group& top = groups_[static_cast<size_t>(stack.back())];
        if (label::BitString::CompareKeyed(top.end_key, top.label->end,
                                           g.start_key,
                                           g.label->start) < 0) {
          stack.pop_back();
        } else {
          break;
        }
      }
      if (stack.empty()) {
        roots.push_back(gi);
      } else {
        groups_[static_cast<size_t>(stack.back())].children.push_back(
            static_cast<int>(gi));
      }
      stack.push_back(static_cast<int>(gi));
    }
  }

  const size_t num_shards = roots.size();
  if (metrics) metrics->AddCounter("integrate.shards", num_shards);

  // One detect-phase lane per shard, created on the coordinating thread
  // (the pool's task queue supplies the happens-before edge for the seq
  // counters). The shard structure does not depend on the thread count,
  // so neither does the journal.
  std::vector<obs::TraceLane> shard_lanes;
  if (tracing) {
    uint32_t detect_phase = tracer->NextPhase();
    shard_lanes.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      shard_lanes.push_back(tracer->Lane(
          detect_phase, static_cast<uint32_t>(s) + 1, "integrate"));
      size_t begin = roots[s];
      size_t end = s + 1 < num_shards ? roots[s + 1] : groups_.size();
      std::vector<std::string> ids;
      for (size_t gi = begin; gi < end; ++gi) {
        for (const TaggedOp* t : groups_[gi].ops) {
          ids.push_back(RefId(t->ref));
        }
      }
      shard_lanes[s].Emit(obs::EventKind::kShardAssigned, "shard",
                          std::move(ids));
    }
  }

  // Conflict detection, one task per root subtree. Shards own disjoint
  // groups (and therefore disjoint TaggedOps), so they only ever write
  // disjoint state.
  std::vector<std::vector<Conflict>> locals(num_shards);
  std::vector<std::vector<Conflict>> nonlocals(num_shards);
  auto scan_shard = [&](size_t s) -> Status {
    obs::TraceSpan span(tracing ? &shard_lanes[s] : nullptr, "shard-detect");
    ScopedTimer shard_timer(metrics, "integrate.shard_detect_seconds");
    size_t begin = roots[s];
    size_t end = s + 1 < num_shards ? roots[s + 1] : groups_.size();
    LocalScratch scratch;
    for (size_t gi = begin; gi < end; ++gi) {
      DetectLocalConflicts(groups_[gi], &scratch, &locals[s]);
    }
    DetectNonLocalConflicts(begin, end, &nonlocals[s]);
    if (tracing) {
      auto emit_conflict = [&](const Conflict& c) {
        std::vector<std::string> ids;
        ids.reserve(c.ops.size());
        for (const OpRef& r : c.ops) ids.push_back(RefId(r));
        shard_lanes[s].Emit(
            obs::EventKind::kConflictDetected, ConflictTypeName(c.type),
            std::move(ids),
            c.symmetric() ? std::string() : RefId(c.overrider));
      };
      for (const Conflict& c : locals[s]) emit_conflict(c);
      for (const Conflict& c : nonlocals[s]) emit_conflict(c);
    }
    return Status();
  };
  {
    ScopedTimer timer(metrics, "integrate.detect_seconds");
    XUPDATE_RETURN_IF_ERROR(ParallelFor(
        options_.pool, static_cast<size_t>(std::max(1, options_.parallelism)),
        num_shards, scan_shard));
  }

  // The sequential engine lists every local conflict in document order
  // of the target, then every non-local conflict in reverse document
  // order of the overriding target; concatenating the shard lists
  // forward resp. backward reproduces that exactly.
  for (size_t s = 0; s < num_shards; ++s) {
    for (Conflict& c : locals[s]) conflicts_.push_back(std::move(c));
  }
  for (size_t s = num_shards; s-- > 0;) {
    for (Conflict& c : nonlocals[s]) conflicts_.push_back(std::move(c));
  }
  if (metrics) {
    metrics->AddCounter("integrate.conflicts", conflicts_.size());
    for (const Conflict& c : conflicts_) {
      metrics->AddCounter("integrate.conflicts.type" +
                          std::to_string(static_cast<int>(c.type)));
    }
  }

  // Delta: all unconflicted operations, merged into a single PUL.
  obs::TraceLane merge_lane;
  if (tracing) {
    merge_lane = tracer->Lane(tracer->NextPhase(), 0, "integrate");
  }
  ScopedTimer timer(metrics, "integrate.merge_seconds");
  obs::TraceSpan merge_span(&merge_lane, "merge");
  IntegrationResult result;
  size_t j = 0;
  for (const TaggedOp& t : tagged_) {
    if (t.conflicted) continue;
    XUPDATE_RETURN_IF_ERROR(
        result.merged.AdoptOp(t.owner->forest(), *t.op));
    if (tracing) {
      merge_lane.Emit(obs::EventKind::kOpSurvived,
                      pul::OpKindName(t.op->kind), {RefId(t.ref)},
                      "merged#" + std::to_string(j));
    }
    ++j;
  }
  result.conflicts = std::move(conflicts_);
  return result;
}

}  // namespace

std::string_view ConflictTypeName(ConflictType type) {
  switch (type) {
    case ConflictType::kRepeatedModification:
      return "repeated-modification";
    case ConflictType::kRepeatedAttributeInsertion:
      return "repeated-attribute-insertion";
    case ConflictType::kInsertionOrder:
      return "insertion-order";
    case ConflictType::kLocalOverride:
      return "local-override";
    case ConflictType::kNonLocalOverride:
      return "non-local-override";
  }
  return "unknown";
}

Result<IntegrationResult> Integrate(const std::vector<const pul::Pul*>& puls,
                                    const IntegrateOptions& options) {
  Integrator integrator(puls, options);
  return integrator.Run();
}

}  // namespace xupdate::core
