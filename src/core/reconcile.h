#ifndef XUPDATE_CORE_RECONCILE_H_
#define XUPDATE_CORE_RECONCILE_H_

#include <vector>

#include "common/result.h"
#include "core/integrate.h"
#include "pul/pul.h"

namespace xupdate::core {

// Outcome bookkeeping of one reconciliation run, for callers that report
// what happened (examples, benches).
struct ReconcileStats {
  size_t conflicts_total = 0;
  size_t conflicts_auto_solved = 0;
  size_t operations_excluded = 0;
  size_t operations_generated = 0;
};

struct ReconcileOptions {
  // Worker threads / shared pool for the embedded integration stage (see
  // IntegrateOptions).
  int parallelism = 1;
  ThreadPool* pool = nullptr;
  // Optional counters/timers sink (conflict tallies, per-phase wall
  // time), also handed to the integration stage.
  Metrics* metrics = nullptr;
  // Decision-provenance sink (obs/trace.h), also handed to the
  // integration stage. Every conflict resolution lands as one
  // policy-applied event ("keep-one", "order-merge", "exclude-overridden",
  // ...); generated order-merge insertions are keyed "gen#<g>".
  obs::Tracer* tracer = nullptr;
};

// Definition 12 with the instantiation of §4.2: integrates `puls`
// (Algorithm 1) and solves every conflict with the best-effort
// resolution of Algorithm 3, honoring each producer's policies
// (Pul::policies()):
//   * preservation of insertion order — the producer's inserted-node
//     order must not be interleaved by other PULs;
//   * preservation of inserted data — the producer's inserted data must
//     reach the final document (its operations cannot be excluded);
//   * preservation of removed data — the producer's removals must happen
//     (its removing operations cannot be excluded).
// Conflicts are processed by focus node in document order with the
// paper's tie-breaking precedence; asymmetric conflicts exclude the
// overridden side when allowed, order conflicts regenerate a single
// concatenated insertion, other symmetric conflicts keep one operation.
// Fails with kUnresolvedConflict when no valid reconciliation exists.
[[nodiscard]] Result<pul::Pul> Reconcile(
    const std::vector<const pul::Pul*>& puls,
    const ReconcileOptions& options = {}, ReconcileStats* stats = nullptr);

}  // namespace xupdate::core

#endif  // XUPDATE_CORE_RECONCILE_H_
