// Ablation: the static PUL analyzer (src/analysis/) next to the dynamic
// engines it describes.
//
// Figure-6-style framing (cost as a function of the conflict/reduction
// density of the workload):
//   1. What does AnalyzeIndependence cost next to the dynamic detector?
//      (BM_AnalyzeIndependence vs BM_IntegrateBaseline)
//   2. What do lint and reduction prediction cost next to Reduce?
//      (BM_LintPul, BM_PredictReduction vs BM_ReduceBaseline)
// Density is percent of ops planted into cross-PUL conflicts
// (integration) resp. reducible clusters (reduction).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "analysis/independence.h"
#include "analysis/lint.h"
#include "analysis/predict.h"
#include "bench_util.h"
#include "core/integrate.h"
#include "core/reduce.h"
#include "workload/pul_generator.h"

namespace xupdate {
namespace {

constexpr size_t kDocMb = 4;
constexpr size_t kOpsPerPul = 2000;

// Pair of PULs with the given percent of conflict-planted operations.
const std::vector<pul::Pul>& PulPair(int density_pct) {
  static std::map<int, std::vector<pul::Pul>>* cache =
      new std::map<int, std::vector<pul::Pul>>();
  auto it = cache->find(density_pct);
  if (it != cache->end()) return it->second;
  const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
  workload::PulGenerator gen(fixture.doc, fixture.labeling,
                             1234 + static_cast<uint64_t>(density_pct));
  workload::PulGenerator::ConflictOptions options;
  options.num_puls = 2;
  options.ops_per_pul = kOpsPerPul;
  options.conflicting_fraction = density_pct / 100.0;
  options.ops_per_conflict = 2;
  auto puls = gen.GenerateConflicting(options);
  if (!puls.ok()) {
    fprintf(stderr, "pul generation failed: %s\n",
            puls.status().ToString().c_str());
    abort();
  }
  return cache->emplace(density_pct, std::move(*puls)).first->second;
}

const pul::Pul& ReduceInput(int density_pct) {
  static std::map<int, pul::Pul>* cache = new std::map<int, pul::Pul>();
  auto it = cache->find(density_pct);
  if (it != cache->end()) return it->second;
  const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
  workload::PulGenerator gen(fixture.doc, fixture.labeling,
                             4321 + static_cast<uint64_t>(density_pct));
  workload::PulGenerator::PulOptions options;
  options.num_ops = kOpsPerPul;
  options.reducible_fraction = density_pct / 100.0;
  auto pul = gen.Generate(options);
  if (!pul.ok()) {
    fprintf(stderr, "pul generation failed: %s\n",
            pul.status().ToString().c_str());
    abort();
  }
  return cache->emplace(density_pct, std::move(*pul)).first->second;
}

// The analyzer alone: the price of asking.
void BM_AnalyzeIndependence(benchmark::State& state) {
  const std::vector<pul::Pul>& puls = PulPair(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    analysis::IndependenceReport r =
        analysis::AnalyzeIndependence(puls[0], puls[1]);
    benchmark::DoNotOptimize(r);
  }
  state.counters["ops"] = static_cast<double>(2 * kOpsPerPul);
}

void BM_LintPul(benchmark::State& state) {
  const pul::Pul& pul = ReduceInput(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    analysis::DiagnosticReport r = analysis::LintPul(pul);
    benchmark::DoNotOptimize(r);
  }
  state.counters["ops"] = static_cast<double>(pul.size());
}

void BM_PredictReduction(benchmark::State& state) {
  const pul::Pul& pul = ReduceInput(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    analysis::ReductionPrediction p = analysis::PredictReduction(pul);
    benchmark::DoNotOptimize(p);
  }
  state.counters["ops"] = static_cast<double>(pul.size());
}

void BM_IntegrateBaseline(benchmark::State& state) {
  const std::vector<pul::Pul>& puls = PulPair(static_cast<int>(state.range(0)));
  std::vector<const pul::Pul*> refs{&puls[0], &puls[1]};
  core::IntegrateOptions options;
  size_t conflicts = 0;
  for (auto _ : state) {
    auto result = core::Integrate(refs, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    conflicts = result->conflicts.size();
    benchmark::DoNotOptimize(*result);
  }
  state.counters["conflicts"] = static_cast<double>(conflicts);
}

void BM_ReduceBaseline(benchmark::State& state) {
  const pul::Pul& pul = ReduceInput(static_cast<int>(state.range(0)));
  core::ReduceOptions options;
  options.mode = core::ReduceMode::kPlain;
  core::ReduceStats stats;
  for (auto _ : state) {
    auto reduced = core::Reduce(pul, options, &stats);
    if (!reduced.ok()) {
      state.SkipWithError(reduced.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*reduced);
  }
  state.counters["surviving"] = static_cast<double>(stats.output_ops);
}

BENCHMARK(BM_AnalyzeIndependence)->Arg(0)->Arg(5)->Arg(20);
BENCHMARK(BM_LintPul)->Arg(0)->Arg(20);
BENCHMARK(BM_PredictReduction)->Arg(0)->Arg(20);
BENCHMARK(BM_IntegrateBaseline)->Arg(0)->Arg(5)->Arg(20);
BENCHMARK(BM_ReduceBaseline)->Arg(0)->Arg(20);

}  // namespace
}  // namespace xupdate

