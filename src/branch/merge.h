#ifndef XUPDATE_BRANCH_MERGE_H_
#define XUPDATE_BRANCH_MERGE_H_

#include <string>

#include "common/metrics.h"
#include "common/result.h"
#include "core/reconcile.h"
#include "obs/trace.h"
#include "store/version.h"

namespace xupdate::branch {

// The merge engine over store branches (the store's CommitMerge is the
// installation half; this is the reasoning half). Merge(a, b):
//
//   1. base   <- store->MergeBase(a, b): the pair's last committed sync,
//               else their fork point — a version on each chain at which
//               the two sides materialize byte-identical documents.
//   2. Pa, Pb <- each side's divergent suffix folded to one PUL against
//               the base state (core/aggregate), canonicalized
//               (core/reduce kCanonical) and stamped with the branch's
//               reconciliation policies.
//   3. Pm     <- core/reconcile of {Pa, Pb} — integration plus the
//               paper's best-effort conflict resolution under the
//               producers' policies — canonicalized again. The inputs
//               are ordered by branch name, so Merge(a, b) and
//               Merge(b, a) resolve keep-one conflicts identically.
//   4. commit <- store->CommitMerge: each side's frame chain is its
//               undo PULs down to the base followed by Pm. Both sides
//               land on the merged state byte-for-byte (node ids
//               included) because both rewind to byte-identical base
//               bytes and then apply the same Pm bytes.
//
// When one side has no divergent suffix its state *is* the base state,
// and the other side's suffix replays on it verbatim — a fast-forward
// that skips reconciliation entirely. When neither side diverged the
// merge is a no-op and nothing is journaled.

struct MergeOptions {
  // Reduce/Integrate parallelism (byte-deterministic across levels).
  int parallelism = 1;
  Metrics* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

struct MergeStats {
  uint64_t base_a = 0;
  uint64_t base_b = 0;
  size_t suffix_a = 0;  // divergent PULs folded per side
  size_t suffix_b = 0;
  bool no_op = false;         // neither side diverged
  bool fast_forward = false;  // exactly one side diverged
  // Full-merge path only: the reconciliation's conflict bookkeeping.
  core::ReconcileStats reconcile;
  size_t merged_ops = 0;  // operations in the reconciled merge PUL
};

// Merges branches `a` and `b` ("main" allowed for either) and commits
// the result under the store's crash-atomic sync protocol. Returns the
// store's commit result (post-merge heads, which sides got a frame).
[[nodiscard]] Result<store::MergeCommitResult> Merge(
    store::VersionStore* store, const std::string& a, const std::string& b,
    const MergeOptions& options = {}, MergeStats* stats = nullptr);

}  // namespace xupdate::branch

#endif  // XUPDATE_BRANCH_MERGE_H_
