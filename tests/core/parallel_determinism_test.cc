// The parallel shard-by-subtree engines must be invisible: for every
// parallelism level the reduced PUL, the merged PUL and the conflict
// list are byte-identical to the sequential path.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/integrate.h"
#include "core/reduce.h"
#include "pul/pul_io.h"
#include "workload/pul_generator.h"
#include "xmark/generator.h"

namespace xupdate::core {
namespace {

using pul::Pul;
using workload::PulGenerator;
using xml::Document;

class ParallelDeterminismTest : public ::testing::Test {
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

  static Document* doc_;
  static label::Labeling* labeling_;
};

Document* ParallelDeterminismTest::doc_ = nullptr;
label::Labeling* ParallelDeterminismTest::labeling_ = nullptr;

std::string Serialized(const Pul& pul) {
  auto text = pul::SerializePul(pul);
  EXPECT_TRUE(text.ok()) << text.status();
  return text.ok() ? *text : std::string();
}

std::string ConflictsToString(const std::vector<Conflict>& conflicts) {
  std::string out;
  for (const Conflict& c : conflicts) {
    out += "type=" + std::to_string(static_cast<int>(c.type));
    if (!c.symmetric()) {
      out += " overrider=" + std::to_string(c.overrider.pul) + ":" +
             std::to_string(c.overrider.op);
    }
    out += " ops=";
    for (const OpRef& r : c.ops) {
      out += std::to_string(r.pul) + ":" + std::to_string(r.op) + ",";
    }
    out += "\n";
  }
  return out;
}

// 100 seeded random PULs; for each, every parallelism level and every
// reduce mode must reproduce the sequential bytes.
TEST_F(ParallelDeterminismTest, ReduceMatchesSequentialOn100RandomPuls) {
  const ReduceMode kModes[] = {ReduceMode::kPlain, ReduceMode::kDeterministic,
                               ReduceMode::kCanonical};
  size_t sharded_runs = 0;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    PulGenerator gen(*doc_, *labeling_, seed);
    PulGenerator::PulOptions options;
    options.num_ops = 120;
    options.reducible_fraction = 0.3;
    auto pul = gen.Generate(options);
    ASSERT_TRUE(pul.ok()) << pul.status();
    for (ReduceMode mode : kModes) {
      ReduceOptions sequential;
      sequential.mode = mode;
      auto base = Reduce(*pul, sequential);
      ASSERT_TRUE(base.ok()) << base.status();
      std::string base_text = Serialized(*base);
      for (int parallelism : {2, 4, 8}) {
        ReduceOptions opts;
        opts.mode = mode;
        opts.parallelism = parallelism;
        ReduceStats stats;
        auto reduced = Reduce(*pul, opts, &stats);
        ASSERT_TRUE(reduced.ok()) << reduced.status();
        EXPECT_EQ(Serialized(*reduced), base_text)
            << "seed " << seed << " mode " << static_cast<int>(mode)
            << " parallelism " << parallelism;
        if (stats.shards > 1) ++sharded_runs;
      }
    }
  }
  // The workloads must actually exercise the parallel path, not fall
  // back to the sequential one.
  EXPECT_GT(sharded_runs, 0u);
}

TEST_F(ParallelDeterminismTest, ReduceWithSharedPoolAndMetrics) {
  ThreadPool pool(4);
  Metrics metrics;
  PulGenerator gen(*doc_, *labeling_, 424242);
  PulGenerator::PulOptions options;
  options.num_ops = 300;
  options.reducible_fraction = 0.2;
  auto pul = gen.Generate(options);
  ASSERT_TRUE(pul.ok()) << pul.status();
  auto base = Reduce(*pul, ReduceOptions{});
  ASSERT_TRUE(base.ok()) << base.status();
  ReduceOptions opts;
  opts.parallelism = 4;
  opts.pool = &pool;
  opts.metrics = &metrics;
  ReduceStats stats;
  auto reduced = Reduce(*pul, opts, &stats);
  ASSERT_TRUE(reduced.ok()) << reduced.status();
  EXPECT_EQ(Serialized(*reduced), Serialized(*base));
  EXPECT_EQ(metrics.counter("reduce.calls"), 1u);
  EXPECT_EQ(metrics.counter("reduce.input_ops"), 300u);
  EXPECT_EQ(metrics.counter("reduce.shards"), stats.shards);
  EXPECT_GT(stats.shards, 1u);
}

// A pool handed in at parallelism 1 must not be waited on: with every
// worker blocked on a latch, the reduce still finishes, with the bytes
// of a reduce that was given no pool. (Reduce passes its parallelism as
// ParallelFor's width; ParallelForTest checks that width 1 runs every
// index on the calling thread.)
TEST_F(ParallelDeterminismTest, ReduceAtParallelismOneLeavesGivenPoolAlone) {
  PulGenerator gen(*doc_, *labeling_, 5150);
  PulGenerator::PulOptions options;
  options.num_ops = 3000;
  options.reducible_fraction = 0.2;
  auto pul = gen.Generate(options);
  ASSERT_TRUE(pul.ok()) << pul.status();
  auto base = Reduce(*pul, ReduceOptions{});
  ASSERT_TRUE(base.ok()) << base.status();

  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> latch = release.get_future().share();
  std::atomic<size_t> blocked{0};
  for (size_t w = 0; w < pool.size(); ++w) {
    ASSERT_TRUE(pool.Submit([latch, &blocked] {
      ++blocked;
      latch.wait();
    }));
  }
  while (blocked.load() < pool.size()) std::this_thread::yield();
  ReduceStats stats;
  auto call = std::async(std::launch::async, [&] {
    ReduceOptions opts;
    opts.parallelism = 1;
    opts.pool = &pool;
    return Reduce(*pul, opts, &stats);
  });
  const bool finished =
      call.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  release.set_value();
  ASSERT_TRUE(finished) << "parallelism 1 waited for the blocked pool";
  auto reduced = call.get();
  ASSERT_TRUE(reduced.ok()) << reduced.status();
  EXPECT_GT(stats.units, 1u);  // ParallelFor had more than one index
  EXPECT_EQ(Serialized(*reduced), Serialized(*base));
}

TEST_F(ParallelDeterminismTest, IntegrateMatchesSequentialOnConflictSweeps) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    PulGenerator gen(*doc_, *labeling_, seed);
    PulGenerator::ConflictOptions options;
    options.num_puls = 6;
    options.ops_per_pul = 60;
    options.conflicting_fraction = 0.4;
    options.ops_per_conflict = 3;
    auto puls = gen.GenerateConflicting(options);
    ASSERT_TRUE(puls.ok()) << puls.status();
    std::vector<const Pul*> refs;
    for (const Pul& p : *puls) refs.push_back(&p);

    auto base = Integrate(refs);
    ASSERT_TRUE(base.ok()) << base.status();
    std::string base_merged = Serialized(base->merged);
    std::string base_conflicts = ConflictsToString(base->conflicts);

    for (int parallelism : {2, 4, 8}) {
      IntegrateOptions opts;
      opts.parallelism = parallelism;
      auto result = Integrate(refs, opts);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(Serialized(result->merged), base_merged)
          << "seed " << seed << " parallelism " << parallelism;
      EXPECT_EQ(ConflictsToString(result->conflicts), base_conflicts)
          << "seed " << seed << " parallelism " << parallelism;
    }
  }
}

TEST_F(ParallelDeterminismTest, IntegrateRecordsMetrics) {
  PulGenerator gen(*doc_, *labeling_, 7);
  PulGenerator::ConflictOptions options;
  options.num_puls = 4;
  options.ops_per_pul = 50;
  options.conflicting_fraction = 0.5;
  options.ops_per_conflict = 2;
  auto puls = gen.GenerateConflicting(options);
  ASSERT_TRUE(puls.ok()) << puls.status();
  std::vector<const Pul*> refs;
  for (const Pul& p : *puls) refs.push_back(&p);
  Metrics metrics;
  IntegrateOptions opts;
  opts.parallelism = 4;
  opts.metrics = &metrics;
  auto result = Integrate(refs, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(metrics.counter("integrate.calls"), 1u);
  EXPECT_EQ(metrics.counter("integrate.input_ops"), 200u);
  EXPECT_GT(metrics.counter("integrate.shards"), 0u);
  EXPECT_EQ(metrics.counter("integrate.conflicts"),
            result->conflicts.size());
}

}  // namespace
}  // namespace xupdate::core
