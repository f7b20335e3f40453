#include "analysis/lint.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "label/bitstring.h"
#include "pul/override.h"
#include "pul/update_op.h"

namespace xupdate::analysis {

namespace {

using label::BitString;
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

// XU002: the op's target sits strictly inside a subtree this same PUL
// removes with del / repN (or replaces the children of, for non-attribute
// descendants, with repC) — the override sweep O3/O4 erases it, so it is
// dead weight the producer can drop at the source. The overriding ops
// themselves and same-target pairs are O1/O2 turf, not reported here.
// The witness is the lowest-indexed such overrider, which the shared
// containment sweep keeps as a running minimum per open overrider.
void LintOverriddenBySubtree(const Pul& pul, DiagnosticReport* report) {
  const auto& ops = pul.ops();
  const std::vector<pul::SweepOp> labeled = pul::LabeledInSweepOrder(
      {&ops}, pul::OverrideRelation::kWithinPul);
  std::vector<int> witness(ops.size(), -1);
  pul::SweepOverrides(labeled, pul::OverrideRelation::kWithinPul,
                      [&witness](const pul::SweepOp& op,
                                 const pul::OpenOverriders& open) {
                        if (const pul::OpenOverrider* k =
                                open.LowestIndexed()) {
                          witness[op.index] = k->op->index;
                        }
                      });

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
