// Collaborative editing (paper §1): a node holds the authoritative
// version of a document and shares it with collaborators. Each
// collaborator produces a PUL against the same snapshot; the executor
// integrates the PULs, detects the clashes, reconciles them under the
// producers' policies and installs a new authoritative version.

#include <cstdlib>
#include <iostream>

#include "core/integrate.h"
#include "core/reconcile.h"
#include "exec/streaming.h"
#include "label/labeling.h"
#include "pul/pul_io.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/eval.h"

namespace {

template <typename T>
T Check(xupdate::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::cerr << what << " failed: " << result.status() << "\n";
    std::exit(1);
  }
  return std::move(result).value();
}

const char* ConflictName(xupdate::core::ConflictType type) {
  switch (type) {
    case xupdate::core::ConflictType::kRepeatedModification:
      return "repeated modification";
    case xupdate::core::ConflictType::kRepeatedAttributeInsertion:
      return "repeated attribute insertion";
    case xupdate::core::ConflictType::kInsertionOrder:
      return "element insertion order";
    case xupdate::core::ConflictType::kLocalOverride:
      return "local override";
    case xupdate::core::ConflictType::kNonLocalOverride:
      return "non-local override";
  }
  return "?";
}

}  // namespace

int main() {
  using namespace xupdate;

  // The authoritative version at the executor.
  const char* source =
      "<paper>"
      "<title>Dynamic Reasoning on XML Updates</title>"
      "<authors>"
      "<author>F.Cavalieri</author>"
      "<author>G.Guerrini</author>"
      "</authors>"
      "<abstract><p>PULs can be exchanged among nodes.</p></abstract>"
      "<keywords><kw>XML</kw></keywords>"
      "</paper>";
  xml::Document master = Check(xml::ParseDocument(source), "parse");
  label::Labeling labeling = label::Labeling::Build(master);

  // Three collaborators check out the same snapshot. Each gets its own
  // id space and states its desiderata.
  auto producer = [&](xml::NodeId id_base,
                      pul::Policies policies) {
    xquery::ProducerContext ctx;
    ctx.doc = &master;
    ctx.labeling = &labeling;
    ctx.id_base = master.max_assigned_id() + id_base;
    ctx.policies = policies;
    return ctx;
  };

  // Alice appends an author and must see her data in the final document.
  pul::Policies alice_policies;
  alice_policies.preserve_inserted_data = true;
  alice_policies.preserve_insertion_order = true;
  pul::Pul alice = Check(
      xquery::ProducePul(
          "insert nodes <author>M.Mesiti</author> as last into //authors, "
          "insert attributes venue=\"EDBT\" into /paper",
          producer(1000, alice_policies)),
      "alice's update");

  // Bob also appends an author and tweaks the abstract.
  pul::Pul bob = Check(
      xquery::ProducePul(
          "insert nodes <author>B.Catania</author> as last into //authors, "
          "replace value of node //abstract/p/text() with "
          "\"PULs travel between nodes.\", "
          "insert attributes venue=\"VLDB\" into /paper",
          producer(2000, pul::Policies{})),
      "bob's update");

  // Carol prunes the keywords and replaces the abstract wholesale;
  // her removals must stick.
  pul::Policies carol_policies;
  carol_policies.preserve_removed_data = true;
  pul::Pul carol = Check(
      xquery::ProducePul(
          "delete nodes //keywords/kw, "
          "replace node //abstract/p with <p>Rewritten abstract.</p>",
          producer(3000, carol_policies)),
      "carol's update");

  // The executor integrates the three parallel update requests.
  core::IntegrationResult integration =
      Check(core::Integrate({&alice, &bob, &carol}), "integration");
  std::cout << "integration found " << integration.conflicts.size()
            << " conflicts:\n";
  for (const core::Conflict& c : integration.conflicts) {
    std::cout << "  - " << ConflictName(c.type) << " involving "
              << (c.ops.size() + (c.symmetric() ? 0 : 1))
              << " operations\n";
  }

  // Reconciliation honors the policies: Alice's author comes first in
  // the order conflict, Bob's venue attribute loses to Alice's, and
  // Bob's abstract tweak yields to Carol's replacement.
  core::ReconcileStats stats;
  pul::Pul merged =
      Check(core::Reconcile({&alice, &bob, &carol}, {}, &stats),
            "reconciliation");
  std::cout << "reconciled: " << stats.conflicts_total << " conflicts, "
            << stats.operations_excluded << " operations excluded, "
            << stats.operations_generated
            << " generated, final PUL has " << merged.size()
            << " operations\n";

  // Install the new authoritative version with one streaming pass.
  xml::SerializeOptions annotated;
  annotated.with_ids = true;
  std::string master_text =
      Check(xml::SerializeDocument(master, annotated), "serialize");
  exec::StreamingEvaluator executor;
  std::string updated =
      Check(executor.Evaluate(master_text, merged), "execution");
  xml::Document result = Check(xml::ParseDocument(updated), "reparse");
  xml::SerializeOptions pretty;
  pretty.pretty = true;
  std::cout << "\nnew authoritative version:\n"
            << Check(xml::SerializeDocument(result, pretty), "print")
            << "\n";
  return 0;
}
