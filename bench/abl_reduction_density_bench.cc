// Ablation A1: reduction cost as a function of reducible-pair density.
//
// DESIGN.md calls out the staged worklist fixpoint as the central design
// choice of the reducer; this sweep holds the PUL size fixed (20k ops)
// and varies the fraction of operations that participate in a reduction,
// verifying that cost stays near-linear even when half the PUL collapses.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/reduce.h"
#include "workload/pul_generator.h"

namespace xupdate {
namespace {

constexpr size_t kDocMb = 4;
constexpr size_t kOps = 20000;

const pul::Pul& DensityFixture(size_t density_percent) {
  static std::map<size_t, std::unique_ptr<pul::Pul>> cache;
  auto it = cache.find(density_percent);
  if (it != cache.end()) return *it->second;
  const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
  workload::PulGenerator gen(fixture.doc, fixture.labeling,
                             4242 + density_percent);
  workload::PulGenerator::PulOptions options;
  options.num_ops = kOps;
  options.reducible_fraction =
      static_cast<double>(density_percent) / 100.0;
  auto pul = gen.Generate(options);
  if (!pul.ok()) {
    fprintf(stderr, "pul generation failed: %s\n",
            pul.status().ToString().c_str());
    abort();
  }
  return *cache
              .emplace(density_percent,
                       std::make_unique<pul::Pul>(std::move(*pul)))
              .first->second;
}

void BM_ReduceByDensity(benchmark::State& state) {
  const pul::Pul& pul =
      DensityFixture(static_cast<size_t>(state.range(0)));
  core::ReduceStats stats;
  for (auto _ : state) {
    auto reduced = core::Reduce(pul, {}, &stats);
    if (!reduced.ok()) {
      state.SkipWithError(reduced.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*reduced);
  }
  state.counters["density_pct"] = static_cast<double>(state.range(0));
  state.counters["rule_apps"] = static_cast<double>(stats.rule_applications);
  state.counters["out_ops"] = static_cast<double>(stats.output_ops);
}

BENCHMARK(BM_ReduceByDensity)
    ->Arg(0)
    ->Arg(10)
    ->Arg(20)
    ->Arg(30)
    ->Arg(50)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xupdate

