#include "analysis/schema_lint.h"

#include <algorithm>
#include <string>

#include "label/node_label.h"
#include "pul/update_op.h"

namespace xupdate::analysis {

namespace {

using label::NodeLabel;
using pul::OpKind;
using pul::Pul;
using pul::UpdateOp;
using schema::Schema;
using schema::TypeSet;
using xml::NodeType;

void Emit(DiagnosticReport* report, const char* code, int op_index,
          std::string message) {
  Diagnostic d;
  d.severity = Severity::kWarning;
  d.code = code;
  d.op_index = op_index;
  d.related_op = -1;
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

// Candidate element types of the node that will *contain* the op's
// inserted trees: the target itself for child/into insertions and repC,
// the target's parent for sibling insertions and repN. Returns false
// when no candidate level exists (unlabeled target, sibling insert at
// the root) — the schema lint then abstains for this op.
bool ParentCandidates(const Schema& schema, const UpdateOp& op,
                      const TypeSet** candidates) {
  const NodeLabel& target = op.target_label;
  if (!target.valid() || target.type != NodeType::kElement) return false;
  uint32_t level = target.level;
  switch (op.kind) {
    case OpKind::kInsFirst:
    case OpKind::kInsLast:
    case OpKind::kInsInto:
    case OpKind::kReplaceChildren:
      break;
    case OpKind::kInsBefore:
    case OpKind::kInsAfter:
    case OpKind::kReplaceNode:
      if (level == 0) return false;
      level -= 1;
      break;
    default:
      return false;
  }
  *candidates = &schema.ElementTypesAtLevel(level);
  return !(*candidates)->Empty();
}

bool AnyCandidateAllowsAny(const Schema& schema, const TypeSet& candidates) {
  for (int t = 0; t < schema.num_types(); ++t) {
    if (candidates.Test(static_cast<size_t>(t)) && schema.AllowsAny(t)) {
      return true;
    }
  }
  return false;
}

// XU008: an inserted element (or text) no candidate parent type admits.
void LintInvalidInsertions(const Schema& schema, const Pul& pul,
                           DiagnosticReport* report) {
  const auto& ops = pul.ops();
  for (size_t i = 0; i < ops.size(); ++i) {
    const UpdateOp& op = ops[i];
    if (!op.HasTreeParams() || op.kind == OpKind::kInsAttributes) continue;
    const TypeSet* candidates = nullptr;
    if (!ParentCandidates(schema, op, &candidates)) continue;
    for (xml::NodeId tree : op.param_trees) {
      if (!pul.forest().Exists(tree)) continue;
      NodeType kind = pul.forest().type(tree);
      if (kind == NodeType::kElement) {
        std::string_view name = pul.forest().name(tree);
        bool admitted = false;
        for (int t = 0; t < schema.num_types() && !admitted; ++t) {
          admitted = candidates->Test(static_cast<size_t>(t)) &&
                     schema.AllowsChildName(t, name);
        }
        if (!admitted) {
          Emit(report, kCodeSchemaInvalidInsertion, static_cast<int>(i),
               OpDescription(op, static_cast<int>(i)) + " inserts <" +
                   std::string(name) +
                   ">, admitted by no candidate parent type's content "
                   "model");
        }
      } else if (kind == NodeType::kText) {
        bool admitted = AnyCandidateAllowsAny(schema, *candidates);
        for (int t = 0; t < schema.num_types() && !admitted; ++t) {
          admitted = candidates->Test(static_cast<size_t>(t)) &&
                     schema.AllowsText(t);
        }
        if (!admitted) {
          Emit(report, kCodeSchemaInvalidInsertion, static_cast<int>(i),
               OpDescription(op, static_cast<int>(i)) +
                   " inserts a text node, but no candidate parent type "
                   "has mixed content");
        }
      }
    }
  }
}

// XU009: del (or repN with no replacement, which behaves like del) of
// an element every candidate typing makes a required child.
void LintRequiredChildDeletion(const Schema& schema, const Pul& pul,
                               DiagnosticReport* report) {
  const auto& ops = pul.ops();
  for (size_t i = 0; i < ops.size(); ++i) {
    const UpdateOp& op = ops[i];
    bool effective_delete =
        op.kind == OpKind::kDelete ||
        (op.kind == OpKind::kReplaceNode && op.param_trees.empty());
    if (!effective_delete) continue;
    const NodeLabel& target = op.target_label;
    if (!target.valid() || target.type != NodeType::kElement ||
        target.level == 0) {
      continue;
    }
    const TypeSet& child_cands = schema.ElementTypesAtLevel(target.level);
    const TypeSet& parent_cands =
        schema.ElementTypesAtLevel(target.level - 1);
    if (AnyCandidateAllowsAny(schema, parent_cands)) continue;
    bool any_typing = false;
    bool all_required = true;
    for (int p = 0; p < schema.num_types() && all_required; ++p) {
      if (!parent_cands.Test(static_cast<size_t>(p))) continue;
      for (int c = 0; c < schema.num_types(); ++c) {
        if (!child_cands.Test(static_cast<size_t>(c))) continue;
        if (!schema.AllowsChild(p, c)) continue;
        any_typing = true;
        if (!schema.IsRequiredChild(p, c)) {
          all_required = false;
          break;
        }
      }
    }
    if (any_typing && all_required) {
      Emit(report, kCodeDeletesRequiredChild, static_cast<int>(i),
           OpDescription(op, static_cast<int>(i)) +
               " removes an element that is a required child under every "
               "candidate typing");
    }
  }
}

// XU010: insAttributes with a parameter name no candidate target type
// declares.
void LintUndeclaredAttributes(const Schema& schema, const Pul& pul,
                              DiagnosticReport* report) {
  const auto& ops = pul.ops();
  for (size_t i = 0; i < ops.size(); ++i) {
    const UpdateOp& op = ops[i];
    if (op.kind != OpKind::kInsAttributes) continue;
    const NodeLabel& target = op.target_label;
    if (!target.valid() || target.type != NodeType::kElement) continue;
    const TypeSet& candidates = schema.ElementTypesAtLevel(target.level);
    if (candidates.Empty() || AnyCandidateAllowsAny(schema, candidates)) {
      continue;
    }
    for (xml::NodeId attr : op.param_trees) {
      if (!pul.forest().Exists(attr) ||
          pul.forest().type(attr) != NodeType::kAttribute) {
        continue;
      }
      std::string_view name = pul.forest().name(attr);
      bool declared = false;
      for (int t = 0; t < schema.num_types() && !declared; ++t) {
        declared = candidates.Test(static_cast<size_t>(t)) &&
                   schema.HasAttribute(t, name);
      }
      if (!declared) {
        Emit(report, kCodeUndeclaredAttribute, static_cast<int>(i),
             OpDescription(op, static_cast<int>(i)) + " inserts @" +
                 std::string(name) +
                 ", declared on no candidate target type");
      }
    }
  }
}

}  // namespace

DiagnosticReport LintPulWithSchema(const Schema& schema, const Pul& pul) {
  DiagnosticReport report;
  LintInvalidInsertions(schema, pul, &report);
  LintRequiredChildDeletion(schema, pul, &report);
  LintUndeclaredAttributes(schema, pul, &report);
  std::sort(report.begin(), report.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.op_index != b.op_index) return a.op_index < b.op_index;
              return a.code < b.code;
            });
  return report;
}

}  // namespace xupdate::analysis
