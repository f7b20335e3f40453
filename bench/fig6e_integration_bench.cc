// Figure 6e: cost of PUL integration and conflict resolution.
//
// Paper workload: 10 PULs of 4k-80k operations each, half of the
// operations involved in conflicts averaging 5 operations per conflict,
// conflict types equally distributed and 1/5 of conflicts solved through
// exclusions made for other conflicts. Expected shape: near-linear in
// the total operation count — "integration is a cost effective
// operation".

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/integrate.h"
#include "core/reconcile.h"
#include "workload/pul_generator.h"

namespace xupdate {
namespace {

constexpr size_t kDocMb = 16;  // enough distinct targets for 80k x 10 ops
constexpr size_t kNumPuls = 10;

const std::vector<pul::Pul>& ConflictFixture(size_t ops_per_pul) {
  static std::map<size_t, std::unique_ptr<std::vector<pul::Pul>>> cache;
  auto it = cache.find(ops_per_pul);
  if (it != cache.end()) return *it->second;
  const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
  workload::PulGenerator gen(fixture.doc, fixture.labeling,
                             1313 + ops_per_pul);
  workload::PulGenerator::ConflictOptions options;
  options.num_puls = kNumPuls;
  options.ops_per_pul = ops_per_pul;
  options.conflicting_fraction = 0.5;
  options.ops_per_conflict = 5;
  options.chained_fraction = 0.2;
  auto puls = gen.GenerateConflicting(options);
  if (!puls.ok()) {
    fprintf(stderr, "conflict workload generation failed: %s\n",
            puls.status().ToString().c_str());
    abort();
  }
  return *cache
              .emplace(ops_per_pul, std::make_unique<std::vector<pul::Pul>>(
                                        std::move(*puls)))
              .first->second;
}

void BM_Integration(benchmark::State& state) {
  const std::vector<pul::Pul>& puls =
      ConflictFixture(static_cast<size_t>(state.range(0)));
  std::vector<const pul::Pul*> ptrs;
  size_t total_ops = 0;
  for (const pul::Pul& p : puls) {
    ptrs.push_back(&p);
    total_ops += p.size();
  }
  size_t conflicts = 0;
  for (auto _ : state) {
    auto result = core::Integrate(ptrs);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    conflicts = result->conflicts.size();
    benchmark::DoNotOptimize(*result);
  }
  state.counters["total_ops"] = static_cast<double>(total_ops);
  state.counters["conflicts"] = static_cast<double>(conflicts);
}

void BM_IntegrationAndResolution(benchmark::State& state) {
  const std::vector<pul::Pul>& puls =
      ConflictFixture(static_cast<size_t>(state.range(0)));
  std::vector<const pul::Pul*> ptrs;
  size_t total_ops = 0;
  for (const pul::Pul& p : puls) {
    ptrs.push_back(&p);
    total_ops += p.size();
  }
  core::ReconcileStats stats;
  for (auto _ : state) {
    auto merged = core::Reconcile(ptrs, {}, &stats);
    if (!merged.ok()) {
      state.SkipWithError(merged.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*merged);
  }
  state.counters["total_ops"] = static_cast<double>(total_ops);
  state.counters["conflicts"] = static_cast<double>(stats.conflicts_total);
  state.counters["auto_solved"] =
      static_cast<double>(stats.conflicts_auto_solved);
  state.counters["excluded"] =
      static_cast<double>(stats.operations_excluded);
}

void OpsPerPul(benchmark::internal::Benchmark* b) {
  for (int64_t ops : {4000, 8000, 20000, 40000, 80000}) b->Arg(ops);
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Integration)->Apply(OpsPerPul);
BENCHMARK(BM_IntegrationAndResolution)->Apply(OpsPerPul);

}  // namespace
}  // namespace xupdate

