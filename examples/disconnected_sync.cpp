// Disconnected execution (paper §1): a node edits its local replica for
// a while, producing one PUL per editing session. On reconnection it
// sends the whole sequence; the server aggregates it into a single PUL
// and applies it in one pass instead of walking the document once per
// session.

#include <cstdlib>
#include <iostream>

#include "core/aggregate.h"
#include "core/reduce.h"
#include "exec/streaming.h"
#include "label/labeling.h"
#include "pul/apply.h"
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
      "<notebook>"
      "<entry date=\"01-03\"><text>draft</text></entry>"
      "</notebook>";
  xml::Document server_doc = Check(xml::ParseDocument(source), "parse");

  // The laptop checks out a replica (same ids, same labels).
  xml::Document laptop = server_doc;
  label::Labeling laptop_labels = label::Labeling::Build(laptop);
  xml::NodeId id_base = laptop.max_assigned_id() + 1000;

  // Three offline editing sessions. Each session's PUL is produced
  // against the *current* replica state and applied locally, so later
  // sessions freely touch nodes earlier sessions created.
  std::vector<pul::Pul> sessions;
  const char* scripts[] = {
      // Session 1: add a new entry.
      "insert nodes <entry date=\"01-04\"><text>field notes</text></entry> "
      "as last into /notebook",
      // Session 2: extend the new entry and fix the old one.
      "insert nodes <tag>travel</tag> as last into //entry[2], "
      "replace value of node //entry[1]/text/text() with \"final draft\"",
      // Session 3: reconsider the tag.
      "replace node //entry[2]/tag with <tag>expedition</tag>",
  };
  for (const char* script : scripts) {
    xquery::ProducerContext ctx;
    ctx.doc = &laptop;
    ctx.labeling = &laptop_labels;
    ctx.id_base = id_base;
    pul::Pul pul = Check(xquery::ProducePul(script, ctx), "session update");
    id_base += 1000;
    pul::ApplyOptions apply;
    apply.labeling = &laptop_labels;
    Check(pul::ApplyPul(&laptop, pul, apply), "local apply");
    sessions.push_back(std::move(pul));
  }
  std::cout << "offline sessions recorded: " << sessions.size() << "\n";

  // Back online: ship the deltas, not the document.
  size_t wire_bytes = 0;
  for (const pul::Pul& pul : sessions) {
    wire_bytes += Check(pul::SerializePul(pul), "wire").size();
  }
  std::cout << "wire cost of the PUL sequence: " << wire_bytes
            << " bytes\n";

  // The server aggregates the sequence into one PUL (rule D6 folds the
  // session-2/3 edits into session 1's inserted entry) and reduces it.
  std::vector<const pul::Pul*> ptrs;
  for (const pul::Pul& pul : sessions) ptrs.push_back(&pul);
  core::AggregateStats stats;
  pul::Pul aggregate = Check(core::Aggregate(ptrs, {}, &stats), "aggregation");
  pul::Pul delta = Check(
      core::Reduce(aggregate, {.mode = core::ReduceMode::kDeterministic}),
      "reduction");
  size_t total_ops = 0;
  for (const pul::Pul& pul : sessions) total_ops += pul.size();
  std::cout << "aggregation: " << total_ops << " ops in " << sessions.size()
            << " PULs -> " << delta.size() << " ops (" << stats.folded_ops
            << " folded into parameter trees)\n";

  // One streaming pass updates the server copy.
  xml::SerializeOptions annotated;
  annotated.with_ids = true;
  std::string server_text =
      Check(xml::SerializeDocument(server_doc, annotated), "serialize");
  exec::StreamingEvaluator executor;
  std::string updated =
      Check(executor.Evaluate(server_text, delta), "server apply");

  // The server replica now equals the laptop replica.
  xml::Document server_after = Check(xml::ParseDocument(updated), "reparse");
  bool in_sync = xml::Document::SubtreeEquals(
      server_after, server_after.root(), laptop, laptop.root(),
      /*compare_ids=*/true);
  std::cout << "replicas in sync: " << (in_sync ? "yes" : "NO") << "\n";

  xml::SerializeOptions pretty;
  pretty.pretty = true;
  std::cout << "\nsynchronized document:\n"
            << Check(xml::SerializeDocument(server_after, pretty), "print")
            << "\n";
  return in_sync ? 0 : 1;
}
