// Figure 6d: aggregation + one evaluation vs. sequential evaluation.
//
// Paper workload: a list of n sequential PULs on one document; either
// (a) stream-evaluate each PUL in turn (n full passes over the — growing
// — document) or (b) aggregate the list into one PUL and stream-evaluate
// once. Expected shape: the sequential cost grows linearly in n while
// the aggregated cost stays near one pass; the aggregation itself is not
// even visible at this scale.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/aggregate.h"
#include "exec/streaming.h"
#include "workload/pul_generator.h"

namespace xupdate {
namespace {

constexpr size_t kDocMb = 4;
constexpr size_t kOpsPerPul = 1000;

const std::vector<pul::Pul>& SequenceFixture(size_t num_puls) {
  static std::map<size_t, std::unique_ptr<std::vector<pul::Pul>>> cache;
  auto it = cache.find(num_puls);
  if (it != cache.end()) return *it->second;
  const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
  workload::PulGenerator gen(fixture.doc, fixture.labeling, 999 + num_puls);
  workload::PulGenerator::SequenceOptions options;
  options.num_puls = num_puls;
  options.ops_per_pul = kOpsPerPul;
  options.new_node_fraction = 0.5;
  auto puls = gen.GenerateSequence(options);
  if (!puls.ok()) {
    fprintf(stderr, "sequence generation failed: %s\n",
            puls.status().ToString().c_str());
    abort();
  }
  return *cache
              .emplace(num_puls, std::make_unique<std::vector<pul::Pul>>(
                                     std::move(*puls)))
              .first->second;
}

void BM_SequentialEvaluation(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
  const std::vector<pul::Pul>& puls = SequenceFixture(n);
  exec::StreamingEvaluator evaluator;
  for (auto _ : state) {
    std::string current = fixture.annotated_text;
    for (const pul::Pul& pul : puls) {
      auto next = evaluator.Evaluate(current, pul);
      if (!next.ok()) {
        state.SkipWithError(next.status().ToString().c_str());
        return;
      }
      current = std::move(*next);
    }
    benchmark::DoNotOptimize(current);
  }
  state.counters["puls"] = static_cast<double>(n);
  state.counters["passes"] = static_cast<double>(n);
}

void BM_AggregateThenEvaluate(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
  const std::vector<pul::Pul>& puls = SequenceFixture(n);
  exec::StreamingEvaluator evaluator;
  double agg_ms = 0;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    std::vector<const pul::Pul*> ptrs;
    for (const pul::Pul& p : puls) ptrs.push_back(&p);
    auto aggregate = core::Aggregate(ptrs);
    if (!aggregate.ok()) {
      state.SkipWithError(aggregate.status().ToString().c_str());
      return;
    }
    agg_ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
                 .count();
    auto result = evaluator.Evaluate(fixture.annotated_text, *aggregate);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*result);
  }
  state.counters["puls"] = static_cast<double>(n);
  state.counters["passes"] = 1;
  state.counters["agg_ms"] = agg_ms;
}

void PulCounts(benchmark::internal::Benchmark* b) {
  for (int64_t n : {2, 4, 8, 12, 15}) b->Arg(n);
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_SequentialEvaluation)->Apply(PulCounts);
BENCHMARK(BM_AggregateThenEvaluate)->Apply(PulCounts);

}  // namespace
}  // namespace xupdate

