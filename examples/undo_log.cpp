// Undo log via PUL inversion (the paper's §6 future-work item): an
// editor applies a series of updates, keeping for each the inverse PUL
// computed against the pre-state. Undo = apply the inverses in reverse
// order. Node identities are restored exactly, so redo and further
// reasoning keep working after an undo.

#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/invert.h"
#include "core/reduce.h"
#include "label/labeling.h"
#include "pul/apply.h"
#include "pul/obtainable.h"
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

void Check(const xupdate::Status& status, const char* what) {
  if (!status.ok()) {
    std::cerr << what << " failed: " << status << "\n";
    std::exit(1);
  }
}

}  // namespace

int main() {
  using namespace xupdate;

  const char* source =
      "<recipe serves=\"4\">"
      "<title>Pasta al pomodoro</title>"
      "<ingredients>"
      "<item>pasta</item><item>tomatoes</item><item>basil</item>"
      "</ingredients>"
      "<steps><step>boil</step><step>simmer</step></steps>"
      "</recipe>";
  xml::Document doc = Check(xml::ParseDocument(source), "parse");
  label::Labeling labeling = label::Labeling::Build(doc);

  std::vector<std::string> snapshots;
  auto snapshot = [&]() {
    return pul::CanonicalForm(
        doc, std::numeric_limits<xml::NodeId>::max());
  };
  snapshots.push_back(snapshot());

  const char* edits[] = {
      "replace value of node /recipe/@serves with \"6\"",
      "insert nodes <item>garlic</item> as last into //ingredients",
      "delete nodes //steps/step[1]",
      "rename node /recipe/title as \"name\"",
  };

  // Apply each edit, stashing its inverse first.
  std::vector<pul::Pul> undo_stack;
  xml::NodeId id_base = doc.max_assigned_id() + 1000;
  for (const char* edit : edits) {
    xquery::ProducerContext ctx;
    ctx.doc = &doc;
    ctx.labeling = &labeling;
    ctx.id_base = id_base;
    id_base += 1000;
    pul::Pul pul = Check(xquery::ProducePul(edit, ctx), "edit");
    // Inversion requires an O-irreducible PUL; reduce defensively.
    pul = Check(
        core::Reduce(pul, {.mode = core::ReduceMode::kDeterministic}),
        "reduce");
    undo_stack.push_back(
        Check(core::Invert(doc, pul), "invert"));
    pul::ApplyOptions opts;
    opts.labeling = &labeling;
    Check(pul::ApplyPul(&doc, pul, opts), "apply");
    snapshots.push_back(snapshot());
  }
  std::cout << "applied " << undo_stack.size()
            << " edits; undo stack holds their inverses\n";

  // Undo everything, checking each intermediate state matches the
  // snapshot taken on the way in (ids included).
  for (size_t i = undo_stack.size(); i-- > 0;) {
    pul::ApplyOptions opts;
    opts.labeling = &labeling;
    Check(pul::ApplyPul(&doc, undo_stack[i], opts), "undo");
    bool match = snapshot() == snapshots[i];
    std::cout << "undo edit " << (i + 1) << ": state "
              << (match ? "matches" : "DIVERGES FROM") << " snapshot "
              << i << "\n";
    if (!match) return 1;
  }

  xml::SerializeOptions pretty;
  pretty.pretty = true;
  std::cout << "\nfully unwound document:\n"
            << Check(xml::SerializeDocument(doc, pretty), "print") << "\n";
  return 0;
}
