#ifndef XUPDATE_CORE_AGGREGATE_H_
#define XUPDATE_CORE_AGGREGATE_H_

#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "obs/trace.h"
#include "pul/pul.h"

namespace xupdate::core {

struct AggregateStats {
  size_t input_ops = 0;
  size_t output_ops = 0;
  // Operations folded into the parameter trees of earlier operations
  // (rule D6 applications).
  size_t folded_ops = 0;
};

struct AggregateOptions {
  // Optional counters/timers sink (per-phase wall time, fold tallies).
  Metrics* metrics = nullptr;
  // Decision-provenance sink (obs/trace.h). Aggregation is sequential by
  // definition (Delta_1 ; ... ; Delta_n), so the journal is trivially
  // run-deterministic. Inputs are keyed "P<pul>#<op>", accumulated slots
  // "agg#<idx>", outputs "out#<j>".
  obs::Tracer* tracer = nullptr;
};

// §3.3 / Algorithm 2: cumulates the sequential composition
// Delta_1 ; ... ; Delta_n into a single PUL substitutable to it
// (Proposition 4). Delta_k is interpreted against the document produced
// by Delta_1..Delta_{k-1}; operations of a later PUL may therefore
// target nodes inserted by an earlier one (matched through the shared
// producer id space) — those are applied directly to the parameter
// trees that carry them (rule D6). Same-kind insertions on the same
// (original-document) node are cumulated with the order dictated by
// rules A1/A2/C4/C5; ren/repV/repC pairs keep only the later operation
// (rule B3). A repC arriving before child insertions is handled by the
// generalized repC parameter list (see DESIGN.md).
//
// The hash table H of Algorithm 2 appears here as the aggregate forest
// itself (a node is "new" iff it lives in the forest) plus the
// root-to-operation ownership index.
[[nodiscard]] Result<pul::Pul> Aggregate(
    const std::vector<const pul::Pul*>& puls,
    const AggregateOptions& options = {}, AggregateStats* stats = nullptr);

}  // namespace xupdate::core

#endif  // XUPDATE_CORE_AGGREGATE_H_
