// Branch merge/rebase subsystem: what the multi-writer layer costs.
//
//   * full merge latency vs divergence — both sides hold Arg divergent
//     commits; the merge folds each suffix, reconciles, and commits
//     under the sync protocol (fold + reconcile + 2x journal append);
//   * fast-forward latency — one side diverged, no reconciliation;
//   * rebase replay — a branch of Arg commits replayed onto a new
//     mainline base, rewind verification included, with its phases;
//   * one full simulator schedule — the end-to-end convergence unit
//     (N writers, random interleaving, gather/scatter, byte-identity).
//
// Merges mutate both journals, so every iteration clones a pre-built
// divergent store (untimed) and merges the clone.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "branch/merge.h"
#include "branch/rebase.h"
#include "branch/sim.h"
#include "store/version.h"
#include "workload/pul_generator.h"

namespace xupdate {
namespace {

namespace fs = std::filesystem;

constexpr size_t kDocMb = 1;
constexpr size_t kOpsPerPul = 20;
constexpr uint64_t kIdBlock = 1 << 16;

std::string BenchRoot() {
  static const std::string root = [] {
    std::string dir =
        (fs::temp_directory_path() /
         ("xupdate_merge_bench_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::atexit([] {
      std::error_code ec;
      fs::remove_all(fs::temp_directory_path() /
                         ("xupdate_merge_bench_" +
                          std::to_string(::getpid())),
                     ec);
    });
    return dir;
  }();
  return root;
}

store::StoreOptions BenchStoreOptions() {
  store::StoreOptions options;
  options.fsync = store::FsyncPolicy::kNever;
  options.snapshot_bytes = 0;
  return options;
}

// Commits `commits` generated PULs on `branch`, drawing inserted-node
// ids from disjoint blocks so concurrent branches never collide.
void CommitEdits(store::VersionStore* vs, const std::string& branch,
                 size_t commits, uint64_t seed, uint64_t* next_id_base) {
  for (size_t i = 0; i < commits; ++i) {
    auto doc = vs->BranchHeadDoc(branch);
    if (!doc.ok()) abort();
    label::Labeling labeling = label::Labeling::Build(**doc);
    workload::PulGenerator gen(**doc, labeling, seed + i);
    workload::PulGenerator::PulOptions options;
    options.num_ops = kOpsPerPul;
    options.id_base = *next_id_base;
    *next_id_base += kIdBlock;
    auto pul = gen.Generate(options);
    if (!pul.ok()) abort();
    if (!vs->CommitOnBranch(branch, *pul).ok()) abort();
  }
}

// A store where main and branch "w" each hold `per_side` divergent
// commits past the fork (per_side = 0 leaves "w" at the fork: the
// fast-forward shape). Built once per shape, cloned per iteration.
const std::string& DivergentStoreFixture(size_t per_side) {
  static std::mutex mutex;
  static std::map<size_t, std::string> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(per_side);
  if (it != cache.end()) return it->second;
  const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
  std::string dir = BenchRoot() + "/divergent_" + std::to_string(per_side);
  store::StoreOptions options = BenchStoreOptions();
  if (!store::VersionStore::Init(dir, fixture.annotated_text, options)
           .ok()) {
    abort();
  }
  auto vs = store::VersionStore::Open(dir, options);
  if (!vs.ok()) abort();
  uint64_t next_id_base =
      ((vs->head_doc().max_assigned_id() / kIdBlock) + 1) * kIdBlock;
  if (!vs->CreateBranch("w", "main", vs->head()).ok()) abort();
  CommitEdits(&*vs, "main", per_side == 0 ? 4 : per_side, 101,
              &next_id_base);
  CommitEdits(&*vs, "w", per_side, 202, &next_id_base);
  if (!vs->Close().ok()) abort();
  return cache.emplace(per_side, std::move(dir)).first->second;
}

// The merge's phase timers, reported per merge as `<label>_ms`
// counters (where a merge's time goes; the commit phase is the store's).
constexpr std::pair<const char*, const char*> kMergePhases[] = {
    {"base_checkout_ms", "branch.merge.base_checkout.seconds"},
    {"fold_ms", "branch.merge.fold.seconds"},
    {"reconcile_ms", "branch.merge.reconcile.seconds"},
    {"undo_ms", "branch.merge.undo.seconds"},
    {"commit_ms", "store.merge.commit.seconds"},
    {"total_ms", "branch.merge.seconds"},
};

// Clones the fixture (untimed) and merges main with w (timed).
void RunMerge(benchmark::State& state, size_t per_side) {
  const std::string& source = DivergentStoreFixture(per_side);
  std::string dir = BenchRoot() + "/merge_scratch";
  Metrics metrics;
  store::StoreOptions options = BenchStoreOptions();
  options.metrics = &metrics;
  branch::MergeOptions merge_options;
  merge_options.metrics = &metrics;
  branch::MergeStats stats;
  uint64_t merges = 0;
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);
    fs::copy(source, dir, fs::copy_options::recursive);
    auto vs = store::VersionStore::Open(dir, options);
    if (!vs.ok()) abort();
    state.ResumeTiming();
    auto merged = branch::Merge(&*vs, "main", "w", merge_options, &stats);
    if (!merged.ok()) {
      state.SkipWithError(merged.status().ToString().c_str());
      return;
    }
    ++merges;
    state.PauseTiming();
    (void)vs->Close();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(merges));
  const double per_merge = merges == 0 ? 0.0 : 1.0 / merges;
  for (const auto& [label, timer] : kMergePhases) {
    state.counters[label] = 1e3 * metrics.total_seconds(timer) * per_merge;
  }
  state.counters["base_checkouts"] =
      metrics.counter("branch.merge.base_checkouts") * per_merge;
  state.counters["suffix_per_side"] = static_cast<double>(per_side);
  state.counters["merged_ops"] = static_cast<double>(stats.merged_ops);
  state.counters["conflicts"] =
      static_cast<double>(stats.reconcile.conflicts_total);
}

// Full merge at increasing divergence.
void BM_MergeFull(benchmark::State& state) {
  RunMerge(state, static_cast<size_t>(state.range(0)));
}

// One side at the base: commit-only, no reconciliation.
void BM_MergeFastForward(benchmark::State& state) {
  RunMerge(state, 0);
}

// The rebase's phase timers, reported per rebase as `<label>_ms`.
constexpr std::pair<const char*, const char*> kRebasePhases[] = {
    {"checkout_ms", "branch.rebase.checkout.seconds"},
    {"undo_ms", "branch.rebase.undo.seconds"},
    {"rewind_check_ms", "branch.rebase.rewind_check.seconds"},
    {"replay_ms", "branch.rebase.replay.seconds"},
    {"commit_ms", "branch.rebase.commit.seconds"},
    {"total_ms", "branch.rebase.seconds"},
};

// Rebase: w's Arg commits replayed onto the mainline head.
void BM_RebaseReplay(benchmark::State& state) {
  size_t commits = static_cast<size_t>(state.range(0));
  const std::string& source = DivergentStoreFixture(commits);
  std::string dir = BenchRoot() + "/rebase_scratch";
  store::StoreOptions options = BenchStoreOptions();
  Metrics metrics;
  branch::RebaseOptions rebase_options;
  rebase_options.skip_conflicting = true;
  rebase_options.metrics = &metrics;
  uint64_t rebases = 0;
  uint64_t replayed = 0;
  uint64_t dropped = 0;
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);
    fs::copy(source, dir, fs::copy_options::recursive);
    auto vs = store::VersionStore::Open(dir, options);
    if (!vs.ok()) abort();
    rebase_options.onto = vs->head();
    state.ResumeTiming();
    auto report = branch::Rebase(&*vs, "w", rebase_options);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    ++rebases;
    replayed += report->replayed;
    dropped += report->dropped;
    state.PauseTiming();
    (void)vs->Close();
    state.ResumeTiming();
  }
  const double per_rebase = rebases == 0 ? 0.0 : 1.0 / rebases;
  for (const auto& [label, timer] : kRebasePhases) {
    state.counters[label] = 1e3 * metrics.total_seconds(timer) * per_rebase;
  }
  state.counters["commits"] = static_cast<double>(commits);
  state.counters["replayed"] = benchmark::Counter(
      static_cast<double>(replayed), benchmark::Counter::kAvgIterations);
  state.counters["dropped"] = benchmark::Counter(
      static_cast<double>(dropped), benchmark::Counter::kAvgIterations);
}

// One simulator schedule end to end (store setup, random interleaving,
// gather/scatter convergence, byte-identity check, teardown). Arg =
// writers.
void BM_SimSchedule(benchmark::State& state) {
  branch::SimOptions options;
  options.writers = static_cast<int>(state.range(0));
  options.schedules = 1;
  options.scratch_dir = BenchRoot() + "/sim";
  uint64_t seed = 1;
  uint64_t converged = 0;
  for (auto _ : state) {
    options.seed = seed++;
    auto report = branch::RunSim(options);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    if (report->converged != report->schedules) {
      state.SkipWithError("schedule failed to converge");
      return;
    }
    converged += report->converged;
  }
  state.SetItemsProcessed(static_cast<int64_t>(converged));
  state.counters["writers"] = static_cast<double>(state.range(0));
}

BENCHMARK(BM_MergeFull)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MergeFastForward)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RebaseReplay)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimSchedule)->Arg(2)->Arg(5)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xupdate
