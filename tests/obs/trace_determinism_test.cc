// The decision journal must be a pure function of the input: for a
// seeded workload the JSONL bytes are identical at every parallelism
// level and across repeated runs, and tracing must never perturb the
// engine output.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/aggregate.h"
#include "core/integrate.h"
#include "core/reconcile.h"
#include "core/reduce.h"
#include "label/labeling.h"
#include "obs/explain.h"
#include "obs/sinks.h"
#include "obs/trace.h"
#include "pul/pul_io.h"
#include "workload/pul_generator.h"
#include "xmark/generator.h"

namespace xupdate::obs {
namespace {

using core::IntegrateOptions;
using core::ReduceMode;
using core::ReduceOptions;
using pul::Pul;
using workload::PulGenerator;
using xml::Document;

class TraceDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    xmark::Config config;
    config.target_bytes = 128 << 10;
    auto doc = xmark::GenerateDocument(config);
    ASSERT_TRUE(doc.ok());
    doc_ = new Document(std::move(*doc));
    labeling_ = new label::Labeling(label::Labeling::Build(*doc_));
  }

  static void TearDownTestSuite() {
    delete labeling_;
    labeling_ = nullptr;
    delete doc_;
    doc_ = nullptr;
  }

  static Pul SeededPul(uint64_t seed, int num_ops) {
    PulGenerator gen(*doc_, *labeling_, seed);
    PulGenerator::PulOptions options;
    options.num_ops = num_ops;
    options.reducible_fraction = 0.3;
    auto pul = gen.Generate(options);
    EXPECT_TRUE(pul.ok()) << pul.status();
    return pul.ok() ? std::move(*pul) : Pul();
  }

  static Document* doc_;
  static label::Labeling* labeling_;
};

Document* TraceDeterminismTest::doc_ = nullptr;
label::Labeling* TraceDeterminismTest::labeling_ = nullptr;

std::string Serialized(const Pul& pul) {
  auto text = pul::SerializePul(pul);
  EXPECT_TRUE(text.ok()) << text.status();
  return text.ok() ? *text : std::string();
}

std::string TracedReduceJournal(const Pul& pul, int parallelism,
                                std::string* output_text) {
  Tracer tracer;
  ReduceOptions options;
  options.parallelism = parallelism;
  options.tracer = &tracer;
  auto reduced = core::Reduce(pul, options);
  EXPECT_TRUE(reduced.ok()) << reduced.status();
  if (output_text != nullptr && reduced.ok()) {
    *output_text = Serialized(*reduced);
  }
  return ToJournalJsonl(tracer);
}

// The tentpole determinism contract: a 200-op seeded PUL journals
// byte-identically at parallelism 1, 2, 4 and 8, and on repeat runs.
TEST_F(TraceDeterminismTest, ReduceJournalIsParallelismInvariant) {
  Pul pul = SeededPul(4242, 200);
  ASSERT_EQ(pul.size(), 200u);
  std::string untraced = Serialized(
      *core::Reduce(pul, ReduceOptions{}));
  std::string base_output;
  std::string base = TracedReduceJournal(pul, 1, &base_output);
  ASSERT_FALSE(base.empty());
  // Tracing must not change what the engine produces.
  EXPECT_EQ(base_output, untraced);
  for (int parallelism : {2, 4, 8}) {
    std::string output;
    EXPECT_EQ(TracedReduceJournal(pul, parallelism, &output), base)
        << "parallelism " << parallelism;
    EXPECT_EQ(output, untraced) << "parallelism " << parallelism;
  }
  // Same input, same run configuration: repeat runs reproduce the bytes.
  EXPECT_EQ(TracedReduceJournal(pul, 4, nullptr),
            TracedReduceJournal(pul, 4, nullptr));
}

// The same contract when the PUL spans several reduce work units (200
// ops fit in one): one lane per unit, the same bytes at every
// parallelism.
TEST_F(TraceDeterminismTest, MultiUnitReduceJournalIsParallelismInvariant) {
  Pul pul = SeededPul(4242, 3000);
  core::ReduceStats stats;
  std::string untraced =
      Serialized(*core::Reduce(pul, ReduceOptions{}, &stats));
  EXPECT_GE(stats.units, 2u);
  std::string base_output;
  std::string base = TracedReduceJournal(pul, 1, &base_output);
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(base_output, untraced);
  for (int parallelism : {2, 4, 8}) {
    std::string output;
    EXPECT_EQ(TracedReduceJournal(pul, parallelism, &output), base)
        << "parallelism " << parallelism;
    EXPECT_EQ(output, untraced) << "parallelism " << parallelism;
  }
}

// Every one of the 200 input operations must come out of `explain` with
// a chain — survivors pointing at their output slot, the rest at the
// decision that removed them.
TEST_F(TraceDeterminismTest, EveryInputOpHasAProvenanceChain) {
  Pul pul = SeededPul(4242, 200);
  std::string output_text;
  std::string journal = TracedReduceJournal(pul, 4, &output_text);
  auto events = ParseJournal(journal);
  ASSERT_TRUE(events.ok()) << events.status();
  auto report = BuildExplainReport(*events);
  ASSERT_TRUE(report.ok()) << report.status();
  std::set<std::string> ids;
  for (const ProvenanceChain& chain : report->chains) {
    ids.insert(chain.id);
  }
  size_t survivors = 0;
  for (size_t i = 0; i < pul.size(); ++i) {
    EXPECT_TRUE(ids.count("#" + std::to_string(i)))
        << "missing chain for op #" << i;
  }
  for (const ProvenanceChain& chain : report->chains) {
    if (!chain.survived) continue;
    ++survivors;
    EXPECT_FALSE(chain.output_id.empty()) << chain.id;
  }
  auto reduced = core::Reduce(pul, ReduceOptions{});
  ASSERT_TRUE(reduced.ok());
  EXPECT_EQ(survivors, reduced->size());
}

TEST_F(TraceDeterminismTest, ReduceJournalInvariantAcrossModes) {
  Pul pul = SeededPul(7, 120);
  for (ReduceMode mode :
       {ReduceMode::kPlain, ReduceMode::kDeterministic,
        ReduceMode::kCanonical}) {
    std::string base;
    for (int parallelism : {1, 2, 8}) {
      Tracer tracer;
      ReduceOptions options;
      options.mode = mode;
      options.parallelism = parallelism;
      options.tracer = &tracer;
      auto reduced = core::Reduce(pul, options);
      ASSERT_TRUE(reduced.ok()) << reduced.status();
      std::string journal = ToJournalJsonl(tracer);
      if (parallelism == 1) {
        base = journal;
      } else {
        EXPECT_EQ(journal, base)
            << "mode " << static_cast<int>(mode) << " parallelism "
            << parallelism;
      }
    }
  }
}

TEST_F(TraceDeterminismTest, IntegrateJournalIsParallelismInvariant) {
  PulGenerator gen(*doc_, *labeling_, 99);
  PulGenerator::ConflictOptions options;
  options.num_puls = 5;
  options.ops_per_pul = 40;
  options.conflicting_fraction = 0.4;
  options.ops_per_conflict = 3;
  auto puls = gen.GenerateConflicting(options);
  ASSERT_TRUE(puls.ok()) << puls.status();
  std::vector<const Pul*> refs;
  for (const Pul& p : *puls) refs.push_back(&p);

  auto run = [&](int parallelism) {
    Tracer tracer;
    IntegrateOptions opts;
    opts.parallelism = parallelism;
    opts.tracer = &tracer;
    auto result = core::Integrate(refs, opts);
    EXPECT_TRUE(result.ok()) << result.status();
    return ToJournalJsonl(tracer);
  };
  std::string base = run(1);
  ASSERT_FALSE(base.empty());
  EXPECT_NE(base.find("conflict-detected"), std::string::npos);
  for (int parallelism : {2, 4, 8}) {
    EXPECT_EQ(run(parallelism), base) << "parallelism " << parallelism;
  }
  EXPECT_EQ(run(4), base);  // repeat run
}

TEST_F(TraceDeterminismTest, AggregateAndReconcileJournalsAreStable) {
  PulGenerator gen(*doc_, *labeling_, 31);
  PulGenerator::ConflictOptions options;
  options.num_puls = 4;
  options.ops_per_pul = 30;
  options.conflicting_fraction = 0.3;
  options.ops_per_conflict = 2;
  auto puls = gen.GenerateConflicting(options);
  ASSERT_TRUE(puls.ok()) << puls.status();
  std::vector<const Pul*> refs;
  for (const Pul& p : *puls) refs.push_back(&p);

  auto aggregate_run = [&] {
    Tracer tracer;
    core::AggregateOptions opts;
    opts.tracer = &tracer;
    auto result = core::Aggregate(refs, opts);
    EXPECT_TRUE(result.ok()) << result.status();
    return ToJournalJsonl(tracer);
  };
  std::string agg = aggregate_run();
  ASSERT_FALSE(agg.empty());
  EXPECT_EQ(aggregate_run(), agg);

  auto reconcile_run = [&](int parallelism) {
    Tracer tracer;
    core::ReconcileOptions opts;
    opts.parallelism = parallelism;
    opts.tracer = &tracer;
    auto result = core::Reconcile(refs, opts);
    EXPECT_TRUE(result.ok()) << result.status();
    return ToJournalJsonl(tracer);
  };
  std::string rec = reconcile_run(1);
  ASSERT_FALSE(rec.empty());
  EXPECT_NE(rec.find("policy-applied"), std::string::npos);
  for (int parallelism : {2, 8}) {
    EXPECT_EQ(reconcile_run(parallelism), rec)
        << "parallelism " << parallelism;
  }
}

// Traced and untraced runs take the one reduce path: at parallelism 1
// both partition and pack the same components into the same units, and
// produce the same bytes.
TEST_F(TraceDeterminismTest, TracedAndUntracedRunsShareOnePath) {
  for (int num_ops : {50, 3000}) {
    Pul pul = SeededPul(5, num_ops);
    core::ReduceStats stats;
    auto reduced = core::Reduce(pul, ReduceOptions{}, &stats);
    ASSERT_TRUE(reduced.ok());
    EXPECT_GT(stats.shards, 1u) << num_ops << " ops";
    Tracer tracer;
    ReduceOptions traced;
    traced.tracer = &tracer;
    core::ReduceStats traced_stats;
    auto traced_out = core::Reduce(pul, traced, &traced_stats);
    ASSERT_TRUE(traced_out.ok());
    EXPECT_EQ(Serialized(*traced_out), Serialized(*reduced))
        << num_ops << " ops";
    EXPECT_EQ(traced_stats.shards, stats.shards) << num_ops << " ops";
    EXPECT_EQ(traced_stats.units, stats.units) << num_ops << " ops";
    EXPECT_EQ(traced_stats.rule_applications, stats.rule_applications)
        << num_ops << " ops";
  }
}

}  // namespace
}  // namespace xupdate::obs
