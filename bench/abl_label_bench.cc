// Ablation A2: cost of the eight Table 1 structural predicates.
//
// §4.1 claims the extended containment labeling decides every
// relationship in constant time; this bench measures ns/op over random
// label pairs of a real document, independent of document size.
// BM_LabelingBuild times the initial labeling of a whole document, the
// step that hands every node its CDBS codes.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "label/labeling.h"
#include "label/node_label.h"

namespace xupdate {
namespace {

struct LabelPairs {
  std::vector<std::pair<label::NodeLabel, label::NodeLabel>> pairs;
};

const LabelPairs& PairsFixture(size_t mb) {
  static std::map<size_t, std::unique_ptr<LabelPairs>> cache;
  auto it = cache.find(mb);
  if (it != cache.end()) return *it->second;
  const bench::BenchDocument& fixture = bench::XmarkFixture(mb);
  std::vector<xml::NodeId> nodes = fixture.doc.AllNodesInOrder();
  Rng rng(17);
  auto out = std::make_unique<LabelPairs>();
  out->pairs.reserve(4096);
  for (size_t i = 0; i < 4096; ++i) {
    xml::NodeId a = nodes[static_cast<size_t>(rng.Below(nodes.size()))];
    xml::NodeId b = nodes[static_cast<size_t>(rng.Below(nodes.size()))];
    out->pairs.emplace_back(*fixture.labeling.Find(a),
                            *fixture.labeling.Find(b));
  }
  return *cache.emplace(mb, std::move(out)).first->second;
}

template <bool (*Predicate)(const label::NodeLabel&,
                            const label::NodeLabel&)>
void BM_Predicate(benchmark::State& state) {
  const LabelPairs& fixture =
      PairsFixture(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = fixture.pairs[i++ & 4095];
    benchmark::DoNotOptimize(Predicate(a, b));
  }
  state.counters["doc_mb"] = static_cast<double>(state.range(0));
}

// Two document sizes demonstrate size independence (O(1) in nodes; the
// code length of a label grows only logarithmically).
#define XUPDATE_PREDICATE_BENCH(name)                        \
  BENCHMARK(BM_Predicate<label::name>)                        \
      ->Name("BM_" #name)                                     \
      ->Arg(1)                                                \
      ->Arg(8)

XUPDATE_PREDICATE_BENCH(Precedes);
XUPDATE_PREDICATE_BENCH(IsLeftSiblingOf);
XUPDATE_PREDICATE_BENCH(IsChildOf);
XUPDATE_PREDICATE_BENCH(IsAttributeOf);
XUPDATE_PREDICATE_BENCH(IsFirstChildOf);
XUPDATE_PREDICATE_BENCH(IsLastChildOf);
XUPDATE_PREDICATE_BENCH(IsDescendantOf);
XUPDATE_PREDICATE_BENCH(IsNonAttributeDescendantOf);

// Labeling::Build over an XMark document of range(0) MB: one DFS that
// assigns each node its start/end codes and stores its label.
void BM_LabelingBuild(benchmark::State& state) {
  const bench::BenchDocument& fixture =
      bench::XmarkFixture(static_cast<size_t>(state.range(0)));
  const double faults = bench::MinorFaults();
  for (auto _ : state) {
    label::Labeling labeling = label::Labeling::Build(fixture.doc);
    benchmark::DoNotOptimize(labeling.size());
  }
  state.counters["minor_faults"] = benchmark::Counter(
      bench::MinorFaults() - faults, benchmark::Counter::kAvgIterations);
  state.counters["nodes"] = static_cast<double>(fixture.doc.node_count());
}
BENCHMARK(BM_LabelingBuild)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xupdate

