#include "schema/summary.h"

#include "pul/override.h"

namespace xupdate::schema {

std::string_view SchemaVerdictName(SchemaVerdict verdict) {
  switch (verdict) {
    case SchemaVerdict::kProvenIndependent:
      return "proven-independent";
    case SchemaVerdict::kUnknown:
      return "unknown";
  }
  return "unknown";
}

namespace {

// Attribute/text atoms are filtered against the schema: a conforming
// document holds a text child of type t only when t's content model
// admits character data, and an attribute only when t declares one
// (ANY / undeclared types stay conservatively included on both counts).
void AddAtoms(const Schema& schema, const TypeSet& types, bool elem,
              bool attr, bool text, TypeSet* atoms) {
  for (int t = 0; t < schema.num_types(); ++t) {
    if (!types.Test(static_cast<size_t>(t))) continue;
    if (elem) atoms->Set(ElemAtom(t));
    if (attr && schema.MayHaveAttributes(t)) atoms->Set(AttrAtom(t));
    if (text && schema.MayHaveText(t)) atoms->Set(TextAtom(t));
  }
}

// Whether at least one candidate type can hold a node of `node_type`
// (element: always — candidates are element types; attr/text: after the
// MayHave* filter).
bool AnyCandidateAdmits(const Schema& schema, const TypeSet& candidates,
                        xml::NodeType node_type) {
  if (node_type == xml::NodeType::kElement) return true;
  for (int t = 0; t < schema.num_types(); ++t) {
    if (!candidates.Test(static_cast<size_t>(t))) continue;
    if (node_type == xml::NodeType::kAttribute
            ? schema.MayHaveAttributes(t)
            : schema.MayHaveText(t)) {
      return true;
    }
  }
  return false;
}

}  // namespace

TypeSummary InferTouchedTypes(const Schema& schema, const pul::Pul& pul) {
  size_t atom_capacity =
      static_cast<size_t>(schema.num_types()) * kAtomsPerType;
  TypeSummary summary;
  summary.targets = TypeSet(atom_capacity);
  summary.killed = TypeSet(atom_capacity);

  for (const pul::UpdateOp& op : pul.ops()) {
    const label::NodeLabel& target = op.target_label;
    if (!target.valid()) {
      // Target created by an earlier PUL of an aggregation sequence:
      // its position in the document — and hence its type — is unknown.
      summary.unknown = true;
      return summary;
    }
    // Candidate element types: the target itself for element targets,
    // the owning element for attribute/text targets (one level up).
    bool is_element = target.type == xml::NodeType::kElement;
    if (!is_element && target.level == 0) {
      summary.unknown = true;
      return summary;
    }
    uint32_t element_level = is_element ? target.level : target.level - 1;
    const TypeSet& candidates = schema.ElementTypesAtLevel(element_level);
    if (candidates.Empty()) {
      // The schema admits no element at this depth; a conforming
      // document cannot hold this target, so the summary abstains.
      summary.unknown = true;
      return summary;
    }
    if (!AnyCandidateAdmits(schema, candidates, target.type)) {
      // Every candidate was filtered out (e.g. a text target at a depth
      // where no type admits character data): the document does not
      // conform to the schema, so the summary abstains rather than
      // claim the op touches nothing.
      summary.unknown = true;
      return summary;
    }
    switch (target.type) {
      case xml::NodeType::kElement:
        AddAtoms(schema, candidates, true, false, false, &summary.targets);
        break;
      case xml::NodeType::kAttribute:
        AddAtoms(schema, candidates, false, true, false, &summary.targets);
        break;
      case xml::NodeType::kText:
        AddAtoms(schema, candidates, false, false, true, &summary.targets);
        break;
    }

    // Deletion/replacement effect closure: everything strictly inside
    // the overridden subtree may be a type-5 victim. Only element
    // targets have strict descendants.
    const pul::OverrideRule* rule = pul::SubtreeRule(op.kind);
    if (rule != nullptr && is_element) {
      TypeSet below = schema.ProperDescendantTypes(candidates);
      AddAtoms(schema, below, true, true, true, &summary.killed);
      // The target's own attributes and text children are strict
      // descendants too — except where the row's scope leaves the
      // attributes in place (repC; type 5 exempts them).
      bool keeps_attributes =
          rule->scope == pul::OverrideScope::kStrictSubtreeButOwnAttributes;
      AddAtoms(schema, candidates, false, !keeps_attributes, true,
               &summary.killed);
    }
  }
  return summary;
}

SchemaVerdict DecideIndependence(const TypeSummary& a,
                                 const TypeSummary& b) {
  if (a.unknown || b.unknown) return SchemaVerdict::kUnknown;
  if (a.targets.Intersects(b.targets)) return SchemaVerdict::kUnknown;
  if (a.killed.Intersects(b.targets)) return SchemaVerdict::kUnknown;
  if (b.killed.Intersects(a.targets)) return SchemaVerdict::kUnknown;
  return SchemaVerdict::kProvenIndependent;
}

}  // namespace xupdate::schema
