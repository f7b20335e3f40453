// Versioned update store: the trade-offs the store exposes.
//
//   * commit throughput per fsync policy — the durability knob
//     (always / batch / never), journal append + apply, no checkpoints;
//   * group commit — how much one shared fsync per batch buys;
//   * checkout latency vs snapshot cadence — sparse checkpoints mean
//     long forward replays, dense ones buy latency with disk.
//
// Each benchmark works on a throwaway store directory under the system
// temp dir; artifacts are removed on process exit.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "store/version.h"
#include "workload/pul_generator.h"

namespace xupdate {
namespace {

namespace fs = std::filesystem;

constexpr size_t kDocMb = 1;
constexpr size_t kOpsPerPul = 100;
constexpr size_t kVersions = 32;

std::string BenchRoot() {
  static const std::string root = [] {
    std::string dir =
        (fs::temp_directory_path() /
         ("xupdate_store_bench_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);
    fs::create_directories(dir);
    // Best-effort cleanup when the process exits normally.
    std::atexit([] {
      std::error_code ec;
      fs::remove_all(fs::temp_directory_path() /
                         ("xupdate_store_bench_" +
                          std::to_string(::getpid())),
                     ec);
    });
    return dir;
  }();
  return root;
}

// The committed workload, generated once per process.
const std::vector<pul::Pul>& WorkloadFixture() {
  static std::mutex mutex;
  static std::unique_ptr<std::vector<pul::Pul>> cache;
  std::lock_guard<std::mutex> lock(mutex);
  if (cache != nullptr) return *cache;
  const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
  workload::PulGenerator gen(fixture.doc, fixture.labeling, 4242);
  workload::PulGenerator::SequenceOptions options;
  options.num_puls = kVersions;
  options.ops_per_pul = kOpsPerPul;
  options.new_node_fraction = 0.3;
  auto puls = gen.GenerateSequence(options);
  if (!puls.ok()) {
    fprintf(stderr, "sequence generation failed: %s\n",
            puls.status().ToString().c_str());
    abort();
  }
  cache = std::make_unique<std::vector<pul::Pul>>(std::move(*puls));
  return *cache;
}

// A store with the full workload committed at the given snapshot
// cadence, built once per cadence and handed out read-only.
const std::string& CommittedStoreFixture(uint64_t snapshot_every) {
  static std::mutex mutex;
  static std::map<uint64_t, std::string> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(snapshot_every);
  if (it != cache.end()) return it->second;
  const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
  std::string dir =
      BenchRoot() + "/committed_" + std::to_string(snapshot_every);
  store::StoreOptions options;
  options.snapshot_every = snapshot_every;
  options.snapshot_bytes = 0;
  options.fsync = store::FsyncPolicy::kNever;
  auto init =
      store::VersionStore::Init(dir, fixture.annotated_text, options);
  if (!init.ok()) abort();
  auto vs = store::VersionStore::Open(dir, options);
  if (!vs.ok()) abort();
  for (const pul::Pul& pul : WorkloadFixture()) {
    if (!vs->Commit(pul).ok()) abort();
  }
  if (!vs->Close().ok()) abort();
  return cache.emplace(snapshot_every, std::move(dir)).first->second;
}

// Commit throughput under each fsync policy. Arg 0/1/2 = always /
// batch / never. Checkpoints are disabled so the journal append + apply
// path is what's measured; the store is rebuilt (untimed) every
// kVersions commits.
void BM_StoreCommit(benchmark::State& state) {
  store::FsyncPolicy policy;
  switch (state.range(0)) {
    case 0: policy = store::FsyncPolicy::kAlways; break;
    case 1: policy = store::FsyncPolicy::kBatch; break;
    default: policy = store::FsyncPolicy::kNever; break;
  }
  const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
  const std::vector<pul::Pul>& puls = WorkloadFixture();
  std::string dir = BenchRoot() + "/commit_" +
                    std::to_string(state.range(0));
  store::StoreOptions options;
  options.fsync = policy;
  options.snapshot_every = 0;
  options.snapshot_bytes = 0;

  store::VersionStore vs = [&] {
    fs::remove_all(dir);
    auto init =
        store::VersionStore::Init(dir, fixture.annotated_text, options);
    if (!init.ok()) abort();
    auto opened = store::VersionStore::Open(dir, options);
    if (!opened.ok()) abort();
    return std::move(*opened);
  }();
  size_t next = 0;
  uint64_t committed = 0;
  for (auto _ : state) {
    if (next == puls.size()) {
      state.PauseTiming();
      if (!vs.Close().ok()) abort();
      fs::remove_all(dir);
      auto init =
          store::VersionStore::Init(dir, fixture.annotated_text, options);
      if (!init.ok()) abort();
      auto opened = store::VersionStore::Open(dir, options);
      if (!opened.ok()) abort();
      vs = std::move(*opened);
      next = 0;
      state.ResumeTiming();
    }
    auto version = vs.Commit(puls[next++]);
    if (!version.ok()) {
      state.SkipWithError(version.status().ToString().c_str());
      return;
    }
    ++committed;
  }
  state.SetItemsProcessed(static_cast<int64_t>(committed));
  state.counters["journal_bytes"] =
      static_cast<double>(fs::file_size(dir + "/wal.log"));
  state.counters["fsync_policy"] = static_cast<double>(state.range(0));
  (void)vs.Close();
}

// Checkout latency as a function of snapshot cadence. Arg = snapshot
// interval in versions (0 = only the version-0 checkpoint, the
// replay-everything worst case). The checked-out version is the one
// farthest from its nearest checkpoint under that cadence.
void BM_StoreCheckout(benchmark::State& state) {
  uint64_t cadence = static_cast<uint64_t>(state.range(0));
  const std::string& dir = CommittedStoreFixture(cadence);
  store::StoreOptions options;
  options.snapshot_every = cadence;
  options.snapshot_bytes = 0;
  Metrics metrics;
  options.metrics = &metrics;
  auto vs = store::VersionStore::Open(dir, options);
  if (!vs.ok()) abort();
  uint64_t interval = cadence == 0 ? kVersions : cadence;
  uint64_t version =
      std::min<uint64_t>(kVersions, interval == 1 ? kVersions : interval - 1);
  for (auto _ : state) {
    auto xml = vs->CheckoutXml(version);
    if (!xml.ok()) {
      state.SkipWithError(xml.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*xml);
  }
  state.counters["snapshot_every"] = static_cast<double>(cadence);
  state.counters["snapshots"] =
      static_cast<double>(vs->snapshots().versions().size());
  state.counters["replayed_frames"] = benchmark::Counter(
      static_cast<double>(metrics.counter("store.checkout.replayed_frames")),
      benchmark::Counter::kAvgIterations);
  (void)vs->Close();
}

// Group commit: the whole workload committed through CommitBatch in
// groups of Arg PULs under the always-fsync policy. One iteration = one
// batch = one fdatasync, so items/s against BM_StoreCommit/0 shows what
// the server's batcher buys: the fsync cost amortized over the group.
void BM_StoreCommitBatch(benchmark::State& state) {
  const size_t group = static_cast<size_t>(state.range(0));
  const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
  const std::vector<pul::Pul>& puls = WorkloadFixture();
  std::string dir = BenchRoot() + "/commit_batch_" + std::to_string(group);
  store::StoreOptions options;
  options.fsync = store::FsyncPolicy::kAlways;
  options.snapshot_every = 0;
  options.snapshot_bytes = 0;

  store::VersionStore vs = [&] {
    fs::remove_all(dir);
    auto init =
        store::VersionStore::Init(dir, fixture.annotated_text, options);
    if (!init.ok()) abort();
    auto opened = store::VersionStore::Open(dir, options);
    if (!opened.ok()) abort();
    return std::move(*opened);
  }();
  size_t next = 0;
  uint64_t committed = 0;
  uint64_t batches = 0;
  for (auto _ : state) {
    if (next + group > puls.size()) {
      state.PauseTiming();
      if (!vs.Close().ok()) abort();
      fs::remove_all(dir);
      auto init =
          store::VersionStore::Init(dir, fixture.annotated_text, options);
      if (!init.ok()) abort();
      auto opened = store::VersionStore::Open(dir, options);
      if (!opened.ok()) abort();
      vs = std::move(*opened);
      next = 0;
      state.ResumeTiming();
    }
    std::vector<const pul::Pul*> batch;
    batch.reserve(group);
    for (size_t i = 0; i < group; ++i) batch.push_back(&puls[next++]);
    auto done = vs.CommitBatch(batch, nullptr);
    if (!done.ok()) {
      state.SkipWithError(done.status().ToString().c_str());
      return;
    }
    committed += *done;
    ++batches;
  }
  state.SetItemsProcessed(static_cast<int64_t>(committed));
  state.counters["batch_size"] = static_cast<double>(group);
  state.counters["fsyncs"] = static_cast<double>(batches);
  (void)vs.Close();
}

BENCHMARK(BM_StoreCommit)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StoreCommitBatch)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StoreCheckout)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->Arg(0)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xupdate

