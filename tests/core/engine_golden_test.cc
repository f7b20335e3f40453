// Byte-identity pin for the reasoning engines across the hot-path
// refactors: one CRC-32C per engine, folded over the serialized outputs
// (and conflict lists) of a seeded corpus at parallelism {1,2,4,8}.
// The constants were captured from the engines BEFORE the flat-index /
// order-key retrofit (PR 5); any change to them means the refactor
// altered output bytes, which the hot-path work must never do.
//
// To re-capture after an *intentional* output change (a semantics PR,
// never a perf PR), run the test with XUPDATE_PRINT_GOLDENS=1 and paste
// the printed values.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "core/aggregate.h"
#include "core/integrate.h"
#include "core/reduce.h"
#include "label/labeling.h"
#include "pul/pul_io.h"
#include "workload/pul_generator.h"
#include "xmark/generator.h"

namespace xupdate::core {
namespace {

using pul::OpKind;
using pul::Pul;
using workload::PulGenerator;
using xml::Document;

// Captured from the pre-retrofit engines (see file comment).
constexpr uint32_t kReduceGolden = 0x19f2df7cu;
constexpr uint32_t kIntegrateGolden = 0xf1fa85a0u;
constexpr uint32_t kAggregateGolden = 0x374430b6u;
// Captured from the engine before reduce packed components into work
// units, when parallelism 1 reduced the whole PUL in one Reducer.
constexpr uint32_t kReduceMultiUnitGolden = 0xda08d9e3u;
constexpr uint32_t kReduceOneComponentGolden = 0xaa02feaau;

class EngineGoldenTest : public ::testing::Test {
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

Document* EngineGoldenTest::doc_ = nullptr;
label::Labeling* EngineGoldenTest::labeling_ = nullptr;

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

void CheckGolden(const char* name, uint32_t actual, uint32_t expected) {
  if (std::getenv("XUPDATE_PRINT_GOLDENS") != nullptr) {
    fprintf(stderr, "GOLDEN %s = 0x%08xu\n", name, actual);
    return;
  }
  EXPECT_EQ(actual, expected)
      << name << ": engine output bytes changed (got 0x" << std::hex
      << actual << ", pinned 0x" << expected << ")";
}

TEST_F(EngineGoldenTest, ReduceOutputsMatchPreRetrofitBytes) {
  const ReduceMode kModes[] = {ReduceMode::kPlain, ReduceMode::kDeterministic,
                               ReduceMode::kCanonical};
  uint32_t crc = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    PulGenerator gen(*doc_, *labeling_, seed);
    PulGenerator::PulOptions options;
    options.num_ops = 150;
    options.reducible_fraction = 0.3;
    auto pul = gen.Generate(options);
    ASSERT_TRUE(pul.ok()) << pul.status();
    for (ReduceMode mode : kModes) {
      for (int parallelism : {1, 2, 4, 8}) {
        ReduceOptions opts;
        opts.mode = mode;
        opts.parallelism = parallelism;
        auto reduced = Reduce(*pul, opts);
        ASSERT_TRUE(reduced.ok()) << reduced.status();
        crc = ExtendCrc32c(crc, Serialized(*reduced));
      }
    }
  }
  CheckGolden("kReduceGolden", crc, kReduceGolden);
}

// The corpus above fits in one reduce work unit (~1k ops). Here every
// PUL spans at least three units, so the packing, the per-unit Reducers
// and the cross-unit merge all run, in every mode and at every
// parallelism.
TEST_F(EngineGoldenTest, ReduceMultiUnitOutputsMatchWholePulBytes) {
  xmark::Config config;
  config.target_bytes = 1 << 20;
  auto doc = xmark::GenerateDocument(config);
  ASSERT_TRUE(doc.ok());
  label::Labeling labeling = label::Labeling::Build(*doc);
  const ReduceMode kModes[] = {ReduceMode::kPlain, ReduceMode::kDeterministic,
                               ReduceMode::kCanonical};
  uint32_t crc = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    PulGenerator gen(*doc, labeling, seed);
    PulGenerator::PulOptions options;
    options.num_ops = 3000 + 1000 * seed;
    options.reducible_fraction = 0.3;
    auto pul = gen.Generate(options);
    ASSERT_TRUE(pul.ok()) << pul.status();
    for (ReduceMode mode : kModes) {
      for (int parallelism : {1, 2, 4, 8}) {
        ReduceOptions opts;
        opts.mode = mode;
        opts.parallelism = parallelism;
        ReduceStats stats;
        auto reduced = Reduce(*pul, opts, &stats);
        ASSERT_TRUE(reduced.ok()) << reduced.status();
        EXPECT_GE(stats.units, 3u) << "seed " << seed;
        crc = ExtendCrc32c(crc, Serialized(*reduced));
      }
    }
  }
  CheckGolden("kReduceMultiUnitGolden", crc, kReduceMultiUnitGolden);
}

// A component is never split: 1500 insertions on one target form one
// component larger than a unit, and it stays one unit. Canonical mode is
// left out: its pair scan is cubic in a single same-target bucket.
TEST_F(EngineGoldenTest, ReduceOneComponentLargerThanAUnitStaysOneUnit) {
  const OpKind kKinds[] = {OpKind::kInsBefore, OpKind::kInsAfter,
                           OpKind::kInsFirst, OpKind::kInsLast,
                           OpKind::kInsInto};
  xml::NodeId target = doc_->children(doc_->root())[0];
  ASSERT_EQ(doc_->type(target), xml::NodeType::kElement);
  Pul pul;
  pul.BindIdSpace(doc_->max_assigned_id() + 1);
  for (int i = 0; i < 1500; ++i) {
    auto param = pul.AddFragment("<e i=\"" + std::to_string(i) + "\"/>");
    ASSERT_TRUE(param.ok()) << param.status();
    ASSERT_TRUE(pul.AddTreeOp(kKinds[i % 5], target, *labeling_, {*param})
                    .ok());
  }
  uint32_t crc = 0;
  for (ReduceMode mode : {ReduceMode::kPlain, ReduceMode::kDeterministic}) {
    for (int parallelism : {1, 2, 4, 8}) {
      ReduceOptions opts;
      opts.mode = mode;
      opts.parallelism = parallelism;
      ReduceStats stats;
      auto reduced = Reduce(pul, opts, &stats);
      ASSERT_TRUE(reduced.ok()) << reduced.status();
      EXPECT_EQ(stats.shards, 1u);
      EXPECT_EQ(stats.units, 1u);
      crc = ExtendCrc32c(crc, Serialized(*reduced));
    }
  }
  CheckGolden("kReduceOneComponentGolden", crc, kReduceOneComponentGolden);
}

TEST_F(EngineGoldenTest, IntegrateOutputsMatchPreRetrofitBytes) {
  uint32_t crc = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    PulGenerator gen(*doc_, *labeling_, seed);
    PulGenerator::ConflictOptions options;
    options.num_puls = 5;
    options.ops_per_pul = 60;
    options.conflicting_fraction = 0.4;
    options.ops_per_conflict = 3;
    auto puls = gen.GenerateConflicting(options);
    ASSERT_TRUE(puls.ok()) << puls.status();
    std::vector<const Pul*> refs;
    for (const Pul& p : *puls) refs.push_back(&p);
    for (int parallelism : {1, 2, 4, 8}) {
      IntegrateOptions opts;
      opts.parallelism = parallelism;
      auto result = Integrate(refs, opts);
      ASSERT_TRUE(result.ok()) << result.status();
      crc = ExtendCrc32c(crc, Serialized(result->merged));
      crc = ExtendCrc32c(crc, ConflictsToString(result->conflicts));
    }
  }
  CheckGolden("kIntegrateGolden", crc, kIntegrateGolden);
}

TEST_F(EngineGoldenTest, AggregateOutputsMatchPreRetrofitBytes) {
  uint32_t crc = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    PulGenerator gen(*doc_, *labeling_, seed);
    PulGenerator::SequenceOptions options;
    options.num_puls = 4;
    options.ops_per_pul = 60;
    options.new_node_fraction = 0.5;
    auto puls = gen.GenerateSequence(options);
    ASSERT_TRUE(puls.ok()) << puls.status();
    std::vector<const Pul*> refs;
    for (const Pul& p : *puls) refs.push_back(&p);
    auto aggregated = Aggregate(refs);
    ASSERT_TRUE(aggregated.ok()) << aggregated.status();
    crc = ExtendCrc32c(crc, Serialized(*aggregated));
  }
  CheckGolden("kAggregateGolden", crc, kAggregateGolden);
}

}  // namespace
}  // namespace xupdate::core
