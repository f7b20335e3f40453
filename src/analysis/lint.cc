#include "analysis/lint.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "label/bitstring.h"
#include "label/node_label.h"
#include "pul/update_op.h"

namespace xupdate::analysis {

namespace {

using label::BitString;
using label::NodeLabel;
using pul::OpClass;
using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using xml::kInvalidNode;
using xml::NodeId;
using xml::NodeType;

void Emit(DiagnosticReport* report, Severity severity, const char* code,
          int op_index, int related_op, std::string message) {
  Diagnostic d;
  d.severity = severity;
  d.code = code;
  d.op_index = op_index;
  d.related_op = related_op;
  d.message = std::move(message);
  report->push_back(std::move(d));
}

std::string OpDescription(const UpdateOp& op, int index) {
  std::string s = "op ";
  s += std::to_string(index);
  s += " (";
  s += pul::OpKindName(op.kind);
  s += " on node ";
  s += std::to_string(op.target);
  s += ")";
  return s;
}

// XU001: a second replacement-class op of the same kind on one target
// makes the PUL incompatible (Definition 3) — Reduce and Integrate both
// refuse it.
void LintDuplicateReplacements(const Pul& pul, DiagnosticReport* report) {
  std::map<std::pair<NodeId, int>, int> first_seen;
  const auto& ops = pul.ops();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (pul::ClassOf(ops[i].kind) != OpClass::kReplacement) continue;
    auto key = std::make_pair(ops[i].target, static_cast<int>(ops[i].kind));
    auto [it, inserted] = first_seen.emplace(key, static_cast<int>(i));
    if (inserted) continue;
    Emit(report, Severity::kError, kCodeDuplicateReplacement,
         static_cast<int>(i), it->second,
         OpDescription(ops[i], static_cast<int>(i)) +
             " repeats the replacement of op " + std::to_string(it->second) +
             "; the PUL violates Definition 3");
  }
}

// A killer's exclusion class: an op never reports a killer on its own
// target, and an attribute never reports a repC on its parent element.
struct KillerKey {
  NodeId target;
  bool repc;
  bool operator==(const KillerKey&) const = default;
};

// The lowest-indexed killer of each of up to four distinct keys, the
// four keys whose killers come first. An op excludes at most three keys
// — its target with either kind, and its parent with repC — so its
// witness is always among them.
class WitnessCandidates {
 public:
  void Add(const UpdateOp* op, int index) {
    const KillerKey key = KeyOf(*op);
    int latest = 0;
    for (int j = 0; j < size_; ++j) {
      if (KeyOf(*op_[j]) == key) {
        if (index < index_[j]) Set(j, op, index);
        return;
      }
      if (index_[j] > index_[latest]) latest = j;
    }
    if (size_ < kSize) {
      Set(size_++, op, index);
    } else if (index < index_[latest]) {
      Set(latest, op, index);
    }
  }

  void Merge(const WitnessCandidates& other) {
    for (int j = 0; j < other.size_; ++j) Add(other.op_[j], other.index_[j]);
  }

  // Index of the lowest-indexed candidate `op` may report, or -1.
  int WitnessFor(const UpdateOp& op) const {
    int witness = -1;
    for (int j = 0; j < size_; ++j) {
      const UpdateOp& k = *op_[j];
      if (k.target == op.target) continue;
      if (k.kind == OpKind::kReplaceChildren &&
          op.target_label.parent == k.target &&
          op.target_label.type == NodeType::kAttribute) {
        continue;  // attributes of the repC target survive
      }
      if (witness < 0 || index_[j] < witness) witness = index_[j];
    }
    return witness;
  }

 private:
  static constexpr int kSize = 4;

  static KillerKey KeyOf(const UpdateOp& op) {
    return {op.target, op.kind == OpKind::kReplaceChildren};
  }
  void Set(int j, const UpdateOp* op, int index) {
    op_[j] = op;
    index_[j] = index;
  }

  int size_ = 0;
  const UpdateOp* op_[kSize] = {};
  int index_[kSize] = {};
};

// XU002: the op's target sits strictly inside a subtree this same PUL
// removes with del / repN (or replaces the children of, for non-attribute
// descendants, with repC) — the override sweep O3/O4 erases it, so it is
// dead weight the producer can drop at the source. The overriding ops
// themselves and same-target pairs are O1/O2 turf, not reported here.
// The witness is the lowest-indexed such killer.
//
// O((ops + killers) log killers): a sweep over start codes inserts each
// killer once every op it could contain (start strictly after the
// killer's) is ahead, into a Fenwick tree over end codes in descending
// order, so a prefix query yields the candidates among killers whose
// end lies strictly after the op's.
void LintOverriddenBySubtree(const Pul& pul, DiagnosticReport* report) {
  const auto& ops = pul.ops();
  std::vector<int> killers;
  std::vector<int> labelled;
  for (size_t i = 0; i < ops.size(); ++i) {
    const UpdateOp& op = ops[i];
    if (!op.target_label.valid()) continue;
    labelled.push_back(static_cast<int>(i));
    if (op.kind == OpKind::kDelete || op.kind == OpKind::kReplaceNode ||
        op.kind == OpKind::kReplaceChildren) {
      killers.push_back(static_cast<int>(i));
    }
  }
  if (killers.empty()) return;
  auto start_of = [&](int i) -> const BitString& {
    return ops[i].target_label.start;
  };
  auto by_start = [&](int a, int b) { return start_of(a) < start_of(b); };
  std::sort(killers.begin(), killers.end(), by_start);
  std::sort(labelled.begin(), labelled.end(), by_start);

  // Distinct killer end codes, descending: rank r (1-based) holds the
  // r-th latest end.
  std::vector<const BitString*> ends;
  ends.reserve(killers.size());
  for (int k : killers) ends.push_back(&ops[k].target_label.end);
  auto later = [](const BitString* a, const BitString* b) { return *b < *a; };
  std::sort(ends.begin(), ends.end(), later);
  ends.erase(std::unique(ends.begin(), ends.end(),
                         [](const BitString* a, const BitString* b) {
                           return *a == *b;
                         }),
             ends.end());
  // Number of distinct killer ends strictly after `end`.
  auto ends_after = [&](const BitString& end) {
    return static_cast<size_t>(
        std::partition_point(ends.begin(), ends.end(),
                             [&](const BitString* e) { return end < *e; }) -
        ends.begin());
  };

  std::vector<WitnessCandidates> fenwick(ends.size() + 1);
  std::vector<int> witness(ops.size(), -1);
  size_t next_killer = 0;
  for (int i : labelled) {
    const UpdateOp& op = ops[i];
    for (; next_killer < killers.size() &&
           start_of(killers[next_killer]) < op.target_label.start;
         ++next_killer) {
      const int k = killers[next_killer];
      // Rank of the killer's own end: ends after it, plus one.
      for (size_t r = ends_after(ops[k].target_label.end) + 1;
           r < fenwick.size(); r += r & (~r + 1)) {
        fenwick[r].Add(&ops[k], k);
      }
    }
    WitnessCandidates candidates;
    for (size_t r = ends_after(op.target_label.end); r > 0; r -= r & (~r + 1)) {
      candidates.Merge(fenwick[r]);
    }
    witness[i] = candidates.WitnessFor(op);
  }

  for (size_t i = 0; i < ops.size(); ++i) {
    const int k = witness[i];
    if (k < 0) continue;
    Emit(report, Severity::kWarning, kCodeOverriddenBySubtreeOp,
         static_cast<int>(i), k,
         OpDescription(ops[i], static_cast<int>(i)) +
             " targets a node inside the subtree that op " +
             std::to_string(k) + " (" +
             std::string(pul::OpKindName(ops[k].kind)) +
             ") removes; reduction erases it");
  }
}

// XU003: insBefore / insAfter need a sibling position, which attributes
// and unparented (root or detached) nodes do not have.
void LintDanglingSiblingRefs(const Pul& pul, DiagnosticReport* report) {
  const auto& ops = pul.ops();
  for (size_t i = 0; i < ops.size(); ++i) {
    const UpdateOp& op = ops[i];
    if (op.kind != OpKind::kInsBefore && op.kind != OpKind::kInsAfter) {
      continue;
    }
    if (!op.target_label.valid()) continue;  // XU006 covers this
    if (op.target_label.type == NodeType::kAttribute) {
      Emit(report, Severity::kWarning, kCodeDanglingSiblingRef,
           static_cast<int>(i), -1,
           OpDescription(op, static_cast<int>(i)) +
               " inserts a sibling of an attribute node");
    } else if (op.target_label.parent == kInvalidNode) {
      Emit(report, Severity::kWarning, kCodeDanglingSiblingRef,
           static_cast<int>(i), -1,
           OpDescription(op, static_cast<int>(i)) +
               " inserts a sibling of an unparented node");
    }
  }
}

// XU004: §3.1 lists PULs in document order of their targets; canonical
// reduction and the golden outputs assume it. Report the first inversion
// only — one note per PUL, not one per unsorted pair.
void LintNonCanonicalOrder(const Pul& pul, DiagnosticReport* report) {
  const auto& ops = pul.ops();
  const BitString* prev = nullptr;
  int prev_index = -1;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].target_label.valid()) continue;
    const BitString& start = ops[i].target_label.start;
    if (prev != nullptr && start < *prev) {
      Emit(report, Severity::kInfo, kCodeNonCanonicalOrder,
           static_cast<int>(i), prev_index,
           OpDescription(ops[i], static_cast<int>(i)) +
               " precedes the target of op " + std::to_string(prev_index) +
               " in document order; listing is not canonical");
      return;
    }
    prev = &start;
    prev_index = static_cast<int>(i);
  }
}

// XU005: the same attribute name inserted twice on one target — within a
// single insA parameter list or across two insA ops — yields a document
// with duplicate attributes on application.
void LintDuplicateAttributes(const Pul& pul, DiagnosticReport* report) {
  // (target, name) -> first inserting op.
  std::map<std::pair<NodeId, std::string>, int> first_seen;
  const auto& ops = pul.ops();
  for (size_t i = 0; i < ops.size(); ++i) {
    const UpdateOp& op = ops[i];
    if (op.kind != OpKind::kInsAttributes) continue;
    std::set<std::string> in_this_op;
    for (NodeId r : op.param_trees) {
      std::string name(pul.forest().name(r));
      if (!in_this_op.insert(name).second) {
        Emit(report, Severity::kWarning, kCodeDuplicateAttribute,
             static_cast<int>(i), static_cast<int>(i),
             OpDescription(op, static_cast<int>(i)) +
                 " inserts attribute \"" + name + "\" twice");
        continue;
      }
      auto key = std::make_pair(op.target, name);
      auto [it, inserted] = first_seen.emplace(key, static_cast<int>(i));
      if (!inserted && it->second != static_cast<int>(i)) {
        Emit(report, Severity::kWarning, kCodeDuplicateAttribute,
             static_cast<int>(i), it->second,
             OpDescription(op, static_cast<int>(i)) +
                 " inserts attribute \"" + name +
                 "\" already inserted by op " + std::to_string(it->second));
      }
    }
  }
}

// XU006 / XU007: per-op structural notes.
void LintPerOpNotes(const Pul& pul, DiagnosticReport* report) {
  const auto& ops = pul.ops();
  for (size_t i = 0; i < ops.size(); ++i) {
    const UpdateOp& op = ops[i];
    if (!op.target_label.valid()) {
      Emit(report, Severity::kInfo, kCodeMissingTargetLabel,
           static_cast<int>(i), -1,
           OpDescription(op, static_cast<int>(i)) +
               " carries no target label; static reasoning degrades to "
               "may-conflict and Integrate rejects the PUL");
    }
    if (op.kind == OpKind::kReplaceNode && op.param_trees.empty()) {
      Emit(report, Severity::kInfo, kCodeEmptyReplaceNode,
           static_cast<int>(i), -1,
           OpDescription(op, static_cast<int>(i)) +
               " has no replacement trees and behaves like del");
    }
  }
}

}  // namespace

DiagnosticReport LintPul(const Pul& pul) {
  DiagnosticReport report;
  LintDuplicateReplacements(pul, &report);
  LintOverriddenBySubtree(pul, &report);
  LintDanglingSiblingRefs(pul, &report);
  LintNonCanonicalOrder(pul, &report);
  LintDuplicateAttributes(pul, &report);
  LintPerOpNotes(pul, &report);
  std::sort(report.begin(), report.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.op_index != b.op_index) return a.op_index < b.op_index;
              return a.code < b.code;
            });
  return report;
}

bool HasSeverity(const DiagnosticReport& report, Severity severity) {
  for (const Diagnostic& d : report) {
    if (static_cast<int>(d.severity) >= static_cast<int>(severity)) {
      return true;
    }
  }
  return false;
}

}  // namespace xupdate::analysis
