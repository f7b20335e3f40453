#ifndef XUPDATE_CORE_INTEGRATE_H_
#define XUPDATE_CORE_INTEGRATE_H_

#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "pul/pul.h"

namespace xupdate::core {

// Reference to one operation inside a list of PULs being integrated.
struct OpRef {
  int pul = -1;  // index into the PUL list
  int op = -1;   // index into that PUL's ops()

  friend bool operator==(const OpRef& a, const OpRef& b) {
    return a.pul == b.pul && a.op == b.op;
  }
};

// The five conflict types of §3.2.
enum class ConflictType : int {
  kRepeatedModification = 1,  // incompatible same-target modifications
  kRepeatedAttributeInsertion = 2,  // same attribute name inserted twice
  kInsertionOrder = 3,        // same-kind insertions on the same target
  kLocalOverride = 4,         // overridden by same-target repN/del/repC
  kNonLocalOverride = 5,      // overridden by ancestor-target repN/del/repC
};

// Stable wire name of a conflict type ("repeated-modification", ...),
// shared by the CLI output, the trace journal and `explain`.
std::string_view ConflictTypeName(ConflictType type);

// A conflict triple <op, OS, ct> (Definition 10): symmetric conflicts
// (types 1-3) have no overrider and OS is the maximal related set;
// asymmetric conflicts (types 4-5) carry the overriding operation and
// the maximal set it overrides.
struct Conflict {
  ConflictType type = ConflictType::kRepeatedModification;
  bool symmetric() const {
    return type == ConflictType::kRepeatedModification ||
           type == ConflictType::kRepeatedAttributeInsertion ||
           type == ConflictType::kInsertionOrder;
  }
  OpRef overrider;           // valid only for asymmetric conflicts
  std::vector<OpRef> ops;    // OS
};

// Result of Definition 11: Delta (union of the operations involved in no
// conflict) and Gamma (the detected conflicts).
struct IntegrationResult {
  pul::Pul merged;
  std::vector<Conflict> conflicts;
};

struct IntegrateOptions {
  // Worker threads for conflict detection. The target-group forest built
  // by Algorithm 1 splits at its roots into disjoint subtree shards
  // (contiguous runs of groups in document order); with parallelism > 1
  // the shards are scanned concurrently. Output — conflict list order
  // included — is byte-identical to the sequential path for every value.
  int parallelism = 1;
  // Where the shards are scanned when parallelism > 1 (ParallelFor at
  // width `parallelism`; the calling thread scans shards too). Reused
  // across calls when provided; otherwise a transient pool is spawned
  // per call when there is more than one shard. Untouched at
  // parallelism 1.
  ThreadPool* pool = nullptr;
  // Optional counters/timers sink (shard counts, conflict tallies,
  // per-phase wall time).
  Metrics* metrics = nullptr;
  // Decision-provenance sink (obs/trace.h). Records per-PUL input
  // inventories, shard assignments, every detected conflict and every
  // operation adopted into Delta, keyed on "P<pul>#<op>" refs. The
  // journal is byte-identical across parallelism levels (shard structure
  // and per-shard scan order do not depend on the thread count).
  obs::Tracer* tracer = nullptr;
};

// Algorithm 1: detects conflicts across `puls` (all specified against
// the same document state) by grouping operations on their target nodes
// in document order (types 1-4) and walking the tree induced by the
// ancestor-descendant relation of the targets (type 5). Only operations
// from *different* PULs conflict. Requires every operation to carry a
// valid target label. When no conflict arises the merged PUL coincides
// with Definition 5's merge (Proposition 2).
[[nodiscard]] Result<IntegrationResult> Integrate(
    const std::vector<const pul::Pul*>& puls,
    const IntegrateOptions& options = {});

}  // namespace xupdate::core

#endif  // XUPDATE_CORE_INTEGRATE_H_
