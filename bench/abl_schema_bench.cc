// Ablation: the type-level summaries of src/schema/ next to the exact
// label-based analyzer and the dynamic detector.
//
// What does a touched-type summary cost next to the exact analyzer and
// the dynamic detector? (BM_SchemaSummaryInfer vs BM_SchemaExactAnalyze
// / BM_SchemaDynamicDetector). The detector runs on an indep-heavy pair
// the type level can prove — typed edits against structurally disjoint
// regions — and on a conflict-heavy pair where it cannot
// (BM_SchemaIntegrateIndependent / BM_SchemaIntegrateConflicting).
//
// These numbers are why no engine consults the summaries: the exact
// analyzer already answers the independent pair faster than the
// summaries and their decision together.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "analysis/independence.h"
#include "bench_util.h"
#include "core/integrate.h"
#include "schema/schema.h"
#include "schema/summary.h"
#include "workload/pul_generator.h"

namespace xupdate {
namespace {

constexpr size_t kDocMb = 4;
constexpr size_t kOpsPerPul = 2000;

const schema::Schema& Xdtd() {
  static const schema::Schema* schema =
      new schema::Schema(schema::Schema::BuiltinXmark());
  return *schema;
}

// Indep-heavy pair the type tier can prove: one PUL edits person/@*
// attributes (Attr atoms at level 2), the other deletes item subtrees
// (element atoms at level 3 plus their descendant closure) — disjoint
// under the XMark DTD, so DecideIndependence proves every pair.
const std::vector<pul::Pul>& IndependentPair() {
  static std::vector<pul::Pul>* cache = nullptr;
  if (cache != nullptr) return *cache;
  const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
  std::vector<xml::NodeId> person_attrs;
  std::vector<xml::NodeId> items;
  for (xml::NodeId id : fixture.doc.AllNodesInOrder()) {
    if (fixture.doc.type(id) != xml::NodeType::kElement) continue;
    if (fixture.doc.name(id) == "person" &&
        !fixture.doc.attributes(id).empty()) {
      person_attrs.push_back(fixture.doc.attributes(id)[0]);
    } else if (fixture.doc.name(id) == "item") {
      items.push_back(id);
    }
  }
  if (person_attrs.size() < 2 || items.size() < 2) {
    fprintf(stderr, "xmark fixture too small for the schema workload\n");
    abort();
  }
  // Each target exactly once: a second repV on one attribute (or a
  // second delete of one item) would be an intra-PUL incompatibility.
  auto build = [&](const std::vector<xml::NodeId>& targets, bool attrs,
                   xml::NodeId id_base) {
    pul::Pul pul;
    pul.BindIdSpace(id_base);
    size_t n = targets.size() < kOpsPerPul ? targets.size() : kOpsPerPul;
    for (size_t i = 0; i < n; ++i) {
      Status status =
          attrs ? pul.AddStringOp(pul::OpKind::kReplaceValue, targets[i],
                                  fixture.labeling,
                                  "v" + std::to_string(i))
                : pul.AddDelete(targets[i], fixture.labeling);
      if (!status.ok()) {
        fprintf(stderr, "workload op failed: %s\n",
                status.ToString().c_str());
        abort();
      }
    }
    return pul;
  };
  cache = new std::vector<pul::Pul>();
  cache->push_back(build(person_attrs, /*attrs=*/true,
                         fixture.doc.max_assigned_id() + 1));
  cache->push_back(build(items, /*attrs=*/false,
                         fixture.doc.max_assigned_id() + 4000000));
  return *cache;
}

// Conflict-heavy pair: the generator plants cross-PUL conflicts of all
// five types, which the type level cannot (and must not) prove away.
const std::vector<pul::Pul>& ConflictingPair() {
  static std::vector<pul::Pul>* cache = nullptr;
  if (cache != nullptr) return *cache;
  const bench::BenchDocument& fixture = bench::XmarkFixture(kDocMb);
  workload::PulGenerator gen(fixture.doc, fixture.labeling, 977);
  workload::PulGenerator::ConflictOptions options;
  options.num_puls = 2;
  options.ops_per_pul = kOpsPerPul;
  options.conflicting_fraction = 0.3;
  options.ops_per_conflict = 2;
  auto puls = gen.GenerateConflicting(options);
  if (!puls.ok()) {
    fprintf(stderr, "pul generation failed: %s\n",
            puls.status().ToString().c_str());
    abort();
  }
  cache = new std::vector<pul::Pul>(std::move(*puls));
  return *cache;
}

// The summary alone: the price of asking the type-level question.
void BM_SchemaSummaryInfer(benchmark::State& state) {
  const std::vector<pul::Pul>& puls = IndependentPair();
  for (auto _ : state) {
    schema::TypeSummary s = schema::InferTouchedTypes(Xdtd(), puls[0]);
    benchmark::DoNotOptimize(s);
  }
  state.counters["ops"] = static_cast<double>(puls[0].size());
}

// The exact analyzer on the same pair, for scale.
void BM_SchemaExactAnalyze(benchmark::State& state) {
  const std::vector<pul::Pul>& puls = IndependentPair();
  for (auto _ : state) {
    analysis::IndependenceReport r =
        analysis::AnalyzeIndependence(puls[0], puls[1]);
    benchmark::DoNotOptimize(r);
  }
}

void SchemaIntegrateLoop(benchmark::State& state,
                         const std::vector<pul::Pul>& puls) {
  std::vector<const pul::Pul*> refs{&puls[0], &puls[1]};
  size_t conflicts = 0;
  for (auto _ : state) {
    auto result = core::Integrate(refs);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    conflicts = result->conflicts.size();
    benchmark::DoNotOptimize(*result);
  }
  state.counters["conflicts"] = static_cast<double>(conflicts);
}

void BM_SchemaIntegrateIndependent(benchmark::State& state) {
  SchemaIntegrateLoop(state, IndependentPair());
}

void BM_SchemaIntegrateConflicting(benchmark::State& state) {
  SchemaIntegrateLoop(state, ConflictingPair());
}

// The dynamic detector alone on the independent pair (identical to
// BM_SchemaIntegrateIndependent/0; kept as an explicitly named anchor
// for the trajectory plots).
void BM_SchemaDynamicDetector(benchmark::State& state) {
  SchemaIntegrateLoop(state, IndependentPair());
}

BENCHMARK(BM_SchemaSummaryInfer);
BENCHMARK(BM_SchemaExactAnalyze);
// Arg 0 keeps the names of the earlier trajectory points.
BENCHMARK(BM_SchemaIntegrateIndependent)->Arg(0);
BENCHMARK(BM_SchemaIntegrateConflicting)->Arg(0);
BENCHMARK(BM_SchemaDynamicDetector);

}  // namespace
}  // namespace xupdate
