// Figure 6c: cost of PUL aggregation.
//
// Paper workload: an increasing number of sequential PULs, 1000
// operations each, half of the later PULs' operations targeting nodes
// inserted by earlier PULs. The measured pipeline is deserialize ->
// aggregate -> reserialize. Expected shape: linear in the total number
// of operations, with (de)serialization dominating — the paper reports
// the aggregation itself under 5 ms even at 15 PULs x 1000 ops.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/aggregate.h"
#include "pul/pul_io.h"
#include "workload/pul_generator.h"

namespace xupdate {
namespace {

constexpr size_t kDocMb = 4;
constexpr size_t kOpsPerPul = 1000;

struct SequenceInput {
  std::vector<pul::Pul> puls;
  std::vector<std::string> serialized;
};

const SequenceInput& InputFixture(size_t num_puls) {
  static std::map<size_t, std::unique_ptr<SequenceInput>> cache;
  auto it = cache.find(num_puls);
  if (it != cache.end()) return *it->second;
  const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
  workload::PulGenerator gen(fixture.doc, fixture.labeling, 777 + num_puls);
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
  auto input = std::make_unique<SequenceInput>();
  input->puls = std::move(*puls);
  for (const pul::Pul& pul : input->puls) {
    auto text = pul::SerializePul(pul);
    if (!text.ok()) abort();
    input->serialized.push_back(std::move(*text));
  }
  return *cache.emplace(num_puls, std::move(input)).first->second;
}

void BM_AggregateFullPipeline(benchmark::State& state) {
  const SequenceInput& input =
      InputFixture(static_cast<size_t>(state.range(0)));
  core::AggregateStats stats;
  for (auto _ : state) {
    std::vector<pul::Pul> parsed;
    parsed.reserve(input.serialized.size());
    for (const std::string& text : input.serialized) {
      auto pul = pul::ParsePul(text);
      if (!pul.ok()) {
        state.SkipWithError(pul.status().ToString().c_str());
        return;
      }
      parsed.push_back(std::move(*pul));
    }
    std::vector<const pul::Pul*> ptrs;
    for (const pul::Pul& p : parsed) ptrs.push_back(&p);
    auto aggregate = core::Aggregate(ptrs, {}, &stats);
    if (!aggregate.ok()) {
      state.SkipWithError(aggregate.status().ToString().c_str());
      return;
    }
    auto text = pul::SerializePul(*aggregate);
    if (!text.ok()) {
      state.SkipWithError(text.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*text);
  }
  state.counters["puls"] = static_cast<double>(input.puls.size());
  state.counters["total_ops"] =
      static_cast<double>(input.puls.size() * kOpsPerPul);
  state.counters["agg_ops"] = static_cast<double>(stats.output_ops);
  state.counters["folded"] = static_cast<double>(stats.folded_ops);
}

void BM_AggregateOnly(benchmark::State& state) {
  const SequenceInput& input =
      InputFixture(static_cast<size_t>(state.range(0)));
  std::vector<const pul::Pul*> ptrs;
  for (const pul::Pul& p : input.puls) ptrs.push_back(&p);
  for (auto _ : state) {
    auto aggregate = core::Aggregate(ptrs);
    if (!aggregate.ok()) {
      state.SkipWithError(aggregate.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*aggregate);
  }
  state.counters["total_ops"] =
      static_cast<double>(input.puls.size() * kOpsPerPul);
}

void BM_AggregateDeserializeOnly(benchmark::State& state) {
  const SequenceInput& input =
      InputFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    for (const std::string& text : input.serialized) {
      auto pul = pul::ParsePul(text);
      if (!pul.ok()) {
        state.SkipWithError(pul.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(*pul);
    }
  }
  state.counters["total_ops"] =
      static_cast<double>(input.puls.size() * kOpsPerPul);
}

void PulCounts(benchmark::internal::Benchmark* b) {
  for (int64_t n : {1, 3, 5, 10, 15}) b->Arg(n);
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_AggregateFullPipeline)->Apply(PulCounts);
BENCHMARK(BM_AggregateOnly)->Apply(PulCounts);
BENCHMARK(BM_AggregateDeserializeOnly)->Apply(PulCounts);

}  // namespace
}  // namespace xupdate

