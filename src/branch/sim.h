#ifndef XUPDATE_BRANCH_SIM_H_
#define XUPDATE_BRANCH_SIM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"

namespace xupdate::branch {

// Deterministic P2P convergence simulator: N seeded writers editing one
// XMark document on branches of a shared store, under random
// interleavings of edit and sync (bidirectional merge with the
// mainline) events. Every schedule ends with a gather pass (merge each
// writer into main) and a scatter pass (fast-forward each writer to the
// final main), after which every branch head must serialize
// byte-identically — node ids included — to the mainline head. A
// schedule is fully determined by its seed: same seed, same event
// sequence, same merged bytes.
//
// Writers draw inserted-node ids from disjoint blocks above the
// document's id space, so concurrent insertions never collide on ids
// and reconciled merge PULs stay applicable on every replica.

struct SimOptions {
  size_t schedules = 100;
  int writers = 3;
  // Random events per schedule before the convergence phase. Each event
  // picks an actor (a writer, or the mainline which only edits):
  // writers sync with probability sync_probability, else edit.
  size_t events = 12;
  size_t ops_per_edit = 4;
  double sync_probability = 0.35;
  uint64_t seed = 1;
  // Approximate plain-serialization size of the generated base document.
  size_t xmark_bytes = 4096;
  // Run VersionStore::Verify on every schedule's store before teardown
  // (slower; the sweep test enables it on a sample).
  bool verify_stores = false;
  // Scratch directory for per-schedule store directories; created if
  // missing, per-schedule subdirectories are removed after each run.
  std::string scratch_dir = "/tmp/xupdate-sim";
  Metrics* metrics = nullptr;
};

// One schedule's outcome. `error` is empty iff the schedule converged.
struct ScheduleResult {
  uint64_t seed = 0;
  bool converged = false;
  size_t edits = 0;
  size_t merges = 0;         // sync events + convergence merges
  size_t fast_forwards = 0;
  size_t full_merges = 0;
  size_t conflicts_auto_solved = 0;
  uint64_t final_digest = 0;  // FNV-1a of the converged bytes
  std::string error;
};

struct SimReport {
  size_t schedules = 0;
  size_t converged = 0;
  size_t edits = 0;
  size_t merges = 0;
  size_t fast_forwards = 0;
  size_t full_merges = 0;
  size_t conflicts_auto_solved = 0;
  // FNV-1a fold of every schedule's final digest, in order — one number
  // that pins the whole sweep.
  uint64_t digest = 0;
  // Schedules that failed to converge (empty on a clean sweep).
  std::vector<ScheduleResult> failures;
};

// Runs one schedule in `dir` (an empty or missing directory; the caller
// owns cleanup) against base document `base_xml`.
[[nodiscard]] Result<ScheduleResult> RunSchedule(uint64_t seed,
                                                 const SimOptions& options,
                                                 const std::string& dir,
                                                 const std::string& base_xml);

// Generates the base document and runs options.schedules seeded
// schedules (seed, seed+1, ...), cleaning up each store directory.
// Returns an error only for harness failures; convergence failures are
// reported in SimReport::failures.
[[nodiscard]] Result<SimReport> RunSim(const SimOptions& options);

}  // namespace xupdate::branch

#endif  // XUPDATE_BRANCH_SIM_H_
