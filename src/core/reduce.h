#ifndef XUPDATE_CORE_REDUCE_H_
#define XUPDATE_CORE_REDUCE_H_

#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "pul/pul.h"

namespace xupdate::core {

// Which reduction of §3.1 to compute.
enum class ReduceMode {
  // Definition 7: rule stages 1-9 to fixpoint. May keep a
  // non-deterministic PUL (insInto survivors).
  kPlain,
  // Definition 8: stages 1-10 — remaining insInto operations are
  // rewritten to insFirst, making the PUL's semantics deterministic
  // (|O(reduced, D)| = 1).
  kDeterministic,
  // Definition 9: deterministic reduction with every rule applied to the
  // <p-minimal applicable pair (document order of targets, then
  // lexicographic order of serialized parameters), yielding the unique
  // canonical form.
  kCanonical,
};

// Statistics of the last phase of interest to the evaluation benches.
struct ReduceStats {
  size_t input_ops = 0;
  size_t output_ops = 0;
  size_t rule_applications = 0;
  // Independent components (shards) the input partitioned into.
  size_t shards = 0;
  // Work units the components were packed into, each solved on its own.
  size_t units = 0;
};

struct ReduceOptions {
  ReduceMode mode = ReduceMode::kPlain;
  // Number of worker threads the work units are spread over. Every value
  // takes the same path (partition, pack, solve units, merge) and the
  // output is byte-identical for every value; 1 solves the units in turn
  // on the calling thread.
  int parallelism = 1;
  // Where the units run when parallelism > 1 (ParallelFor at width
  // `parallelism`; the calling thread solves units too). Reused across
  // calls when provided; otherwise a transient pool is spawned per call
  // when there is more than one unit. Untouched at parallelism 1.
  ThreadPool* pool = nullptr;
  // Optional counters/timers sink (component and unit counts, per-phase
  // wall time).
  Metrics* metrics = nullptr;
  // Decision-provenance sink (obs/trace.h). When set, every rule firing,
  // override kill, unit assignment and surviving operation is recorded
  // under stable listing-rank ids ("#12"). The units depend on the input
  // alone, so the journal is byte-identical at every parallelism. The
  // output PUL is unaffected.
  obs::Tracer* tracer = nullptr;
};

// Reduces `input` by the rules of Figure 2 (three families):
//   O  — drop operations overridden by a same-target or ancestor-target
//        repN / del / repC;
//   I  — collapse insertions on the same node or on sibling /
//        parent-child nodes;
//   IR — fold insertions around a node into a repN of that node.
// The reduced PUL is substitutable to `input` (Proposition 1) and the
// operator is idempotent. Requires `input` to contain no incompatible
// pair (an applicable PUL); structural side conditions are evaluated on
// the labels carried by the operations — the document is never touched.
//
// Operations are partitioned by the targets' containment labels: two
// operations land in the same component iff they are connected through
// same-target / parent / adjacent-sibling / ancestor-containment links —
// exactly the relations the Figure 2 rules and override sweeps can act
// across — so per-component fixpoints compose to the global one.
// Components, in first-op order, are packed into contiguous work units
// that close once they hold 1024 operations (a component is never
// split); each unit is solved on its own, and the deterministic merge
// (listing-rank order, or the canonical <o order) gives the same bytes
// as reducing the whole PUL at once.
[[nodiscard]] Result<pul::Pul> Reduce(const pul::Pul& input,
                                      const ReduceOptions& options = {},
                                      ReduceStats* stats = nullptr);

}  // namespace xupdate::core

#endif  // XUPDATE_CORE_REDUCE_H_
