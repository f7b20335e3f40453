#ifndef XUPDATE_OBS_EXPLAIN_H_
#define XUPDATE_OBS_EXPLAIN_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "obs/trace.h"

namespace xupdate::obs {

// Folds a JSONL event journal (obs/sinks.h) back into per-operation
// provenance: for every input operation, the chain of decisions that
// made it survive, merge, or disappear. Pure function of the journal
// bytes — no engine state needed — so `xupdate explain` works on
// journals produced anywhere.

// Parses the fixed-format journal emitted by ToJournalJsonl. Tolerates
// reordered keys and unknown extra keys; fails on lines that are not
// JSON objects or lack the sort key.
[[nodiscard]] Result<std::vector<TraceEvent>> ParseJournal(
    std::string_view jsonl);

// One input operation's story.
struct ProvenanceChain {
  std::string id;         // stable op id: "#12", "P0#3", "agg#4"
  std::string op_kind;    // op kind name when the journal recorded it
  bool survived = false;  // has an op-survived event
  std::string output_id;  // output slot ("out#3", "merged#7") if survived
  std::vector<std::string> steps;  // rendered decision lines, journal order
};

struct ExplainReport {
  // Operator scopes seen in the journal, first-seen order.
  std::vector<std::string> scopes;
  // One chain per known operation id, in id-first-seen (journal) order.
  std::vector<ProvenanceChain> chains;
};

// Builds the report: the operation universe comes from shard-assigned /
// input-inventory events plus every id an event produced; each chain
// collects the events that mention the id.
[[nodiscard]] Result<ExplainReport> BuildExplainReport(
    const std::vector<TraceEvent>& events);

// Renders chains as human-readable text. With a non-empty `only_op`,
// renders just that id's chain; unknown ids render an error line and
// list the known ids. One chain:
//   #4 [insLast]: eliminated
//     - I5: merged #1 + #4 -> #1 [insLast] (absorbed into #1)
[[nodiscard]] std::string RenderChains(const ExplainReport& report,
                                       std::string_view only_op = {});

}  // namespace xupdate::obs

#endif  // XUPDATE_OBS_EXPLAIN_H_
