// Ablation: the parallel shard-by-subtree reasoning engine.
//
// Workload: 10k operations over an XMark document large enough that the
// targets fall into thousands of disjoint subtrees (shards), swept at
// 1/2/4/8 worker threads for both reduction and integration. Reduce
// takes one path at every thread count (its shards packed into ~1k-op
// work units), so its /2 ÷ /1 ratio is the cost of spreading the units
// over a pool; integrate's parallelism=1 rows take its sequential path.
// Hardware with fewer cores than the thread count flattens the curve.
// Each sweep dumps the engine's metrics registry as JSON on stderr
// (shard and unit counts, per-phase wall time, conflict tallies).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/integrate.h"
#include "core/reduce.h"
#include "workload/pul_generator.h"

namespace xupdate {
namespace {

constexpr size_t kDocMb = 8;
constexpr size_t kOps = 10000;

const pul::Pul& ReduceInput() {
  static const pul::Pul* input = [] {
    const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
    workload::PulGenerator gen(fixture.doc, fixture.labeling, 909);
    workload::PulGenerator::PulOptions options;
    options.num_ops = kOps;
    options.reducible_fraction = 0.2;
    auto pul = gen.Generate(options);
    if (!pul.ok()) {
      fprintf(stderr, "pul generation failed: %s\n",
              pul.status().ToString().c_str());
      abort();
    }
    return new pul::Pul(std::move(*pul));
  }();
  return *input;
}

const std::vector<pul::Pul>& IntegrateInput() {
  static const std::vector<pul::Pul>* input = [] {
    const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
    workload::PulGenerator gen(fixture.doc, fixture.labeling, 909);
    workload::PulGenerator::ConflictOptions options;
    options.num_puls = 8;
    options.ops_per_pul = kOps / 8;
    options.conflicting_fraction = 0.2;
    options.ops_per_conflict = 3;
    auto puls = gen.GenerateConflicting(options);
    if (!puls.ok()) {
      fprintf(stderr, "pul generation failed: %s\n",
              puls.status().ToString().c_str());
      abort();
    }
    return new std::vector<pul::Pul>(std::move(*puls));
  }();
  return *input;
}

void BM_ParallelReduce(benchmark::State& state) {
  const pul::Pul& input = ReduceInput();
  int threads = static_cast<int>(state.range(0));
  ThreadPool pool(static_cast<size_t>(threads));
  Metrics metrics;
  core::ReduceOptions options;
  options.parallelism = threads;
  options.pool = threads > 1 ? &pool : nullptr;
  options.metrics = &metrics;
  core::ReduceStats stats;
  for (auto _ : state) {
    auto reduced = core::Reduce(input, options, &stats);
    if (!reduced.ok()) {
      state.SkipWithError(reduced.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*reduced);
  }
  state.counters["ops"] = static_cast<double>(input.size());
  state.counters["shards"] = static_cast<double>(stats.shards);
  state.counters["units"] = static_cast<double>(stats.units);
  state.counters["threads"] = static_cast<double>(threads);
  fprintf(stderr, "reduce/threads:%d metrics %s\n", threads,
          metrics.ToJson().c_str());
}

void BM_ParallelIntegrate(benchmark::State& state) {
  const std::vector<pul::Pul>& input = IntegrateInput();
  std::vector<const pul::Pul*> refs;
  for (const pul::Pul& p : input) refs.push_back(&p);
  int threads = static_cast<int>(state.range(0));
  ThreadPool pool(static_cast<size_t>(threads));
  Metrics metrics;
  core::IntegrateOptions options;
  options.parallelism = threads;
  options.pool = threads > 1 ? &pool : nullptr;
  options.metrics = &metrics;
  for (auto _ : state) {
    auto result = core::Integrate(refs, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*result);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["shards"] =
      static_cast<double>(metrics.counter("integrate.shards") /
                          std::max<uint64_t>(metrics.counter("integrate.calls"),
                                             1));
  fprintf(stderr, "integrate/threads:%d metrics %s\n", threads,
          metrics.ToJson().c_str());
}

void ThreadSweep(benchmark::internal::Benchmark* b) {
  for (int64_t threads : {1, 2, 4, 8}) b->Arg(threads);
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_ParallelReduce)->Apply(ThreadSweep);
BENCHMARK(BM_ParallelIntegrate)->Apply(ThreadSweep);

}  // namespace
}  // namespace xupdate

