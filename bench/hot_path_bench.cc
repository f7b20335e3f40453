// Hot-path primitives behind the PR-5 layout work: word-wise code
// comparison, the order-preserving 64-bit prefix key, key-first label
// sorting, and the flat shared-target join. These are the inner loops
// of reduce/integrate/aggregate; the figure benches measure them only
// end-to-end, so regressions in the primitives themselves would show up
// late and diluted. Everything runs on labels of a real document, where
// code lengths and shared prefixes match what the engines actually see.
// The BM_Document* rows and BM_SameAnnotated time the Document layer
// (its flat node records and storage blocks) on its own: parsing the
// annotated text, encoding and decoding the checkpoint image, snapshot
// copies and the store's annotated-equality walk.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "label/bitstring.h"
#include "label/node_label.h"
#include "pul/pul_view.h"
#include "xml/document.h"
#include "xml/document_image.h"
#include "xml/parser.h"

namespace xupdate {
namespace {

struct LabelPool {
  std::vector<label::NodeLabel> labels;
  std::vector<uint64_t> keys;  // labels[i].OrderKey(), precomputed
};

const LabelPool& PoolFixture(size_t mb) {
  static std::map<size_t, std::unique_ptr<LabelPool>> cache;
  auto it = cache.find(mb);
  if (it != cache.end()) return *it->second;
  const bench::BenchDocument& fixture = bench::XmarkFixture(mb);
  std::vector<xml::NodeId> nodes = fixture.doc.AllNodesInOrder();
  Rng rng(29);
  auto out = std::make_unique<LabelPool>();
  out->labels.reserve(8192);
  for (size_t i = 0; i < 8192; ++i) {
    xml::NodeId n = nodes[static_cast<size_t>(rng.Below(nodes.size()))];
    out->labels.push_back(*fixture.labeling.Find(n));
  }
  out->keys.reserve(out->labels.size());
  for (const label::NodeLabel& l : out->labels) {
    out->keys.push_back(l.OrderKey());
  }
  return *cache.emplace(mb, std::move(out)).first->second;
}

// Full code comparison (the word-wise loop; no key short-circuit).
void BM_BitStringCompare(benchmark::State& state) {
  const LabelPool& pool = PoolFixture(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = pool.labels[i & 8191];
    const auto& b = pool.labels[(i + 4096) & 8191];
    benchmark::DoNotOptimize(a.start.Compare(b.start));
    ++i;
  }
  state.counters["doc_mb"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_BitStringCompare)->Arg(1)->Arg(8);

// Key-first comparison with precomputed keys: the engines' common case,
// where unequal prefixes never touch the codes.
void BM_CompareKeyed(benchmark::State& state) {
  const LabelPool& pool = PoolFixture(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    size_t x = i & 8191;
    size_t y = (i + 4096) & 8191;
    benchmark::DoNotOptimize(label::BitString::CompareKeyed(
        pool.keys[x], pool.labels[x].start, pool.keys[y],
        pool.labels[y].start));
    ++i;
  }
  state.counters["doc_mb"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_CompareKeyed)->Arg(1)->Arg(8);

// Document-order sort of N labels: plain full-code comparator versus
// the cached-key-first comparator the engines now use.
void BM_SortByStartPlain(benchmark::State& state) {
  const LabelPool& pool = PoolFixture(1);
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<const label::NodeLabel*> scratch;
  for (auto _ : state) {
    state.PauseTiming();
    scratch.clear();
    for (size_t i = 0; i < n; ++i) scratch.push_back(&pool.labels[i & 8191]);
    state.ResumeTiming();
    std::sort(scratch.begin(), scratch.end(),
              [](const label::NodeLabel* a, const label::NodeLabel* b) {
                return a->start.Compare(b->start) < 0;
              });
    benchmark::DoNotOptimize(scratch.data());
  }
}
BENCHMARK(BM_SortByStartPlain)->Arg(1024)->Arg(8192);

void BM_SortByStartKeyed(benchmark::State& state) {
  const LabelPool& pool = PoolFixture(1);
  size_t n = static_cast<size_t>(state.range(0));
  struct Slot {
    uint64_t key;
    const label::NodeLabel* label;
  };
  std::vector<Slot> scratch;
  for (auto _ : state) {
    state.PauseTiming();
    scratch.clear();
    for (size_t i = 0; i < n; ++i) {
      scratch.push_back({pool.keys[i & 8191], &pool.labels[i & 8191]});
    }
    state.ResumeTiming();
    std::sort(scratch.begin(), scratch.end(),
              [](const Slot& a, const Slot& b) {
                return label::BitString::CompareKeyed(
                           a.key, a.label->start, b.key, b.label->start) < 0;
              });
    benchmark::DoNotOptimize(scratch.data());
  }
}
BENCHMARK(BM_SortByStartKeyed)->Arg(1024)->Arg(8192);

// Shared-target join: append N (target, op-index) pairs, then walk every
// chain. TargetIndex versus the unordered_map-of-vectors it replaced.
// Targets repeat with the skew the generators produce (~4 ops/target).
std::vector<xml::NodeId> JoinTargets(size_t n) {
  Rng rng(31);
  std::vector<xml::NodeId> targets;
  targets.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    targets.push_back(static_cast<xml::NodeId>(1 + rng.Below(n / 4 + 1)));
  }
  return targets;
}

void BM_TargetIndexJoin(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<xml::NodeId> targets = JoinTargets(n);
  pul::TargetIndex index;
  for (auto _ : state) {
    index.Reset(n);
    for (size_t i = 0; i < n; ++i) {
      index.Append(targets[i], static_cast<int32_t>(i));
    }
    int64_t visited = 0;
    for (size_t i = 0; i < n; ++i) {
      for (int32_t j = index.Head(targets[i]); j >= 0; j = index.Next(j)) {
        ++visited;
      }
    }
    benchmark::DoNotOptimize(visited);
  }
}
BENCHMARK(BM_TargetIndexJoin)->Arg(1024)->Arg(16384);

void BM_HashMapJoin(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<xml::NodeId> targets = JoinTargets(n);
  for (auto _ : state) {
    std::unordered_map<xml::NodeId, std::vector<int>> index;
    for (size_t i = 0; i < n; ++i) {
      index[targets[i]].push_back(static_cast<int>(i));
    }
    int64_t visited = 0;
    for (size_t i = 0; i < n; ++i) {
      auto it = index.find(targets[i]);
      if (it != index.end()) visited += static_cast<int64_t>(it->second.size());
    }
    benchmark::DoNotOptimize(visited);
  }
}
BENCHMARK(BM_HashMapJoin)->Arg(1024)->Arg(16384);

// ParseDocument of the id-annotated exchange text of a range(0) MB
// XMark document: what every store checkout and PUL forest pays.
void BM_DocumentParse(benchmark::State& state) {
  const bench::BenchDocument& fixture =
      bench::XmarkFixture(static_cast<size_t>(state.range(0)));
  const double faults = bench::MinorFaults();
  for (auto _ : state) {
    Result<xml::Document> doc = xml::ParseDocument(fixture.annotated_text);
    if (!doc.ok()) {
      state.SkipWithError("parse failed");
      break;
    }
    benchmark::DoNotOptimize(doc->node_count());
  }
  state.counters["minor_faults"] = benchmark::Counter(
      bench::MinorFaults() - faults, benchmark::Counter::kAvgIterations);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fixture.annotated_text.size()));
  state.counters["nodes"] = static_cast<double>(fixture.doc.node_count());
}
BENCHMARK(BM_DocumentParse)->Arg(1)->Unit(benchmark::kMillisecond);

// EncodeImage of a range(0) MB XMark document: what every store
// checkpoint writes.
void BM_DocumentImageEncode(benchmark::State& state) {
  const bench::BenchDocument& fixture =
      bench::XmarkFixture(static_cast<size_t>(state.range(0)));
  std::string image;
  for (auto _ : state) {
    image.clear();
    if (!xml::EncodeImage(fixture.doc, &image).ok()) {
      state.SkipWithError("encode failed");
      break;
    }
    benchmark::DoNotOptimize(image.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(image.size()));
  state.counters["image_bytes"] = static_cast<double>(image.size());
  state.counters["nodes"] = static_cast<double>(fixture.doc.node_count());
}
BENCHMARK(BM_DocumentImageEncode)->Arg(1)->Unit(benchmark::kMillisecond);

// DecodeImage of the same document's image: what every store checkout
// pays for its checkpoint (BM_DocumentParse reads the same content as
// annotated text).
void BM_DocumentImageDecode(benchmark::State& state) {
  const bench::BenchDocument& fixture =
      bench::XmarkFixture(static_cast<size_t>(state.range(0)));
  std::string image;
  if (!xml::EncodeImage(fixture.doc, &image).ok()) {
    state.SkipWithError("encode failed");
    return;
  }
  const double faults = bench::MinorFaults();
  for (auto _ : state) {
    Result<xml::Document> doc = xml::DecodeImage(image);
    if (!doc.ok()) {
      state.SkipWithError("decode failed");
      break;
    }
    benchmark::DoNotOptimize(doc->node_count());
  }
  state.counters["minor_faults"] = benchmark::Counter(
      bench::MinorFaults() - faults, benchmark::Counter::kAvgIterations);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(image.size()));
  state.counters["nodes"] = static_cast<double>(fixture.doc.node_count());
}
BENCHMARK(BM_DocumentImageDecode)->Arg(1)->Unit(benchmark::kMillisecond);

// One Document copy: the snapshot forks, folds and D6 take.
void BM_DocumentCopy(benchmark::State& state) {
  const bench::BenchDocument& fixture =
      bench::XmarkFixture(static_cast<size_t>(state.range(0)));
  const double faults = bench::MinorFaults();
  for (auto _ : state) {
    xml::Document copy(fixture.doc);
    benchmark::DoNotOptimize(copy.node_count());
  }
  state.counters["minor_faults"] = benchmark::Counter(
      bench::MinorFaults() - faults, benchmark::Counter::kAvgIterations);
  state.counters["nodes"] = static_cast<double>(fixture.doc.node_count());
}
BENCHMARK(BM_DocumentCopy)->Arg(1)->Unit(benchmark::kMillisecond);

// SameAnnotated of a document and an equal copy: the full document-
// order walk, which never stops early.
void BM_SameAnnotated(benchmark::State& state) {
  const bench::BenchDocument& fixture =
      bench::XmarkFixture(static_cast<size_t>(state.range(0)));
  const xml::Document copy(fixture.doc);
  for (auto _ : state) {
    Result<bool> same = xml::Document::SameAnnotated(fixture.doc, copy);
    if (!same.ok() || !*same) {
      state.SkipWithError("documents differ");
      break;
    }
    benchmark::DoNotOptimize(*same);
  }
  state.counters["nodes"] = static_cast<double>(fixture.doc.node_count());
}
BENCHMARK(BM_SameAnnotated)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xupdate
