// Ablation A3: overhead of the reduction variants.
//
// Definition 7 (plain) vs Definition 8 (deterministic, + stage 10) vs
// Definition 9 (canonical, <p-minimal pair selection). The canonical
// form trades the worklist's near-linear scan for a quadratic
// minimal-pair search, so it is expected to be markedly slower — the
// price of a unique normal form.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/reduce.h"
#include "workload/pul_generator.h"

namespace xupdate {
namespace {

constexpr size_t kDocMb = 2;

const pul::Pul& PulFixture(size_t ops) {
  static std::map<size_t, std::unique_ptr<pul::Pul>> cache;
  auto it = cache.find(ops);
  if (it != cache.end()) return *it->second;
  const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
  workload::PulGenerator gen(fixture.doc, fixture.labeling, 31337 + ops);
  workload::PulGenerator::PulOptions options;
  options.num_ops = ops;
  options.reducible_fraction = 0.2;
  auto pul = gen.Generate(options);
  if (!pul.ok()) {
    fprintf(stderr, "pul generation failed: %s\n",
            pul.status().ToString().c_str());
    abort();
  }
  return *cache.emplace(ops, std::make_unique<pul::Pul>(std::move(*pul)))
              .first->second;
}

template <core::ReduceMode Mode>
void BM_ReduceMode(benchmark::State& state) {
  const pul::Pul& pul = PulFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto reduced = core::Reduce(pul, {.mode = Mode});
    if (!reduced.ok()) {
      state.SkipWithError(reduced.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*reduced);
  }
  state.counters["ops"] = static_cast<double>(pul.size());
}

void Sizes(benchmark::internal::Benchmark* b) {
  for (int64_t ops : {500, 1000, 2000}) b->Arg(ops);
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_ReduceMode<core::ReduceMode::kPlain>)
    ->Name("BM_ReducePlain")
    ->Apply(Sizes);
BENCHMARK(BM_ReduceMode<core::ReduceMode::kDeterministic>)
    ->Name("BM_ReduceDeterministic")
    ->Apply(Sizes);
BENCHMARK(BM_ReduceMode<core::ReduceMode::kCanonical>)
    ->Name("BM_ReduceCanonical")
    ->Apply(Sizes);

}  // namespace
}  // namespace xupdate

