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
#include <set>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/random.h"
#include "core/aggregate.h"
#include "core/integrate.h"
#include "core/reduce.h"
#include "label/labeling.h"
#include "obs/sinks.h"
#include "obs/trace.h"
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
// Captured from the engine before the Figure 2 rules became one table
// read by both drivers: the reduce decision journal (which rule fired on
// which pair, in which order) per mode.
constexpr uint32_t kReduceJournalPlainGolden = 0x068aaaadu;
constexpr uint32_t kReduceJournalDeterministicGolden = 0xc6ece870u;
constexpr uint32_t kReduceJournalCanonicalGolden = 0xed05bfcdu;

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

// Dense rule neighbourhoods for the journal pin: around a few elements,
// insertions of every kind on the element and its element children,
// repN of children and attributes, and insA on the element. Every
// Figure 2 merge rule fires on this corpus, most with several competing
// partners, so the order in which pairs are tried shows in the journal.
Pul NeighbourhoodPul(const Document& doc, const label::Labeling& labeling,
                     uint64_t seed) {
  std::vector<xml::NodeId> parents;
  for (xml::NodeId id : doc.AllNodesInOrder()) {
    if (doc.type(id) != xml::NodeType::kElement) continue;
    size_t elements = 0;
    for (xml::NodeId c : doc.children(id)) {
      if (doc.type(c) == xml::NodeType::kElement) ++elements;
    }
    if (elements >= 2) parents.push_back(id);
  }
  const OpKind kInsertions[] = {OpKind::kInsBefore, OpKind::kInsAfter,
                                OpKind::kInsFirst, OpKind::kInsLast,
                                OpKind::kInsInto};
  Rng rng(seed);
  Pul pul;
  pul.BindIdSpace(doc.max_assigned_id() + 1);
  std::set<xml::NodeId> replaced;
  int fresh = 0;
  auto name = [&fresh] { return "g" + std::to_string(fresh++); };
  for (int k = 0; k < 12; ++k) {
    xml::NodeId parent = parents[rng.Below(parents.size())];
    std::vector<xml::NodeId> kids;
    for (xml::NodeId c : doc.children(parent)) {
      if (doc.type(c) == xml::NodeType::kElement) kids.push_back(c);
    }
    const auto& attrs = doc.attributes(parent);
    for (int n = 0; n < 12; ++n) {
      xml::NodeId kid = kids[rng.Below(kids.size())];
      Status added = Status::OK();
      switch (rng.Below(8)) {
        case 0:
        case 1:
        case 2:
        case 3: {
          // Edge and sibling insertions on a child, child insertions on
          // the child or (more often) on the parent.
          OpKind kind = kInsertions[rng.Below(5)];
          xml::NodeId target =
              kind == OpKind::kInsBefore || kind == OpKind::kInsAfter ||
                      rng.Chance(0.3)
                  ? kid
                  : parent;
          auto frag = pul.AddFragment("<" + name() + "/>");
          added = frag.ok() ? pul.AddTreeOp(kind, target, labeling, {*frag})
                            : frag.status();
          break;
        }
        case 4:
        case 5: {
          if (!replaced.insert(kid).second) break;
          auto frag = pul.AddFragment("<" + name() + "/>");
          added = frag.ok() ? pul.AddTreeOp(OpKind::kReplaceNode, kid,
                                            labeling, {*frag})
                            : frag.status();
          break;
        }
        case 6:
          added = pul.AddTreeOp(OpKind::kInsAttributes, parent, labeling,
                                {pul.NewAttributeParam(name(), "v")});
          break;
        default: {
          if (attrs.empty()) break;
          xml::NodeId attr = attrs[rng.Below(attrs.size())];
          if (!replaced.insert(attr).second) break;
          added = pul.AddTreeOp(OpKind::kReplaceNode, attr, labeling,
                                {pul.NewAttributeParam(name(), "v")});
          break;
        }
      }
      EXPECT_TRUE(added.ok()) << added;
    }
  }
  return pul;
}

// The output bytes alone do not pin *which* pair fired: two drivers can
// reach the same reduced PUL through different rule applications. The
// JSONL journal records every firing with its operands, so these CRCs
// fail on a change of decision order even when the outputs match.
TEST_F(EngineGoldenTest, ReduceDecisionJournalsMatchPinnedBytes) {
  struct ModeGolden {
    ReduceMode mode;
    const char* name;
    uint32_t golden;
  };
  const ModeGolden kModes[] = {
      {ReduceMode::kPlain, "kReduceJournalPlainGolden",
       kReduceJournalPlainGolden},
      {ReduceMode::kDeterministic, "kReduceJournalDeterministicGolden",
       kReduceJournalDeterministicGolden},
      {ReduceMode::kCanonical, "kReduceJournalCanonicalGolden",
       kReduceJournalCanonicalGolden},
  };
  std::vector<Pul> corpus;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    PulGenerator gen(*doc_, *labeling_, seed);
    PulGenerator::PulOptions options;
    options.num_ops = 150;
    options.reducible_fraction = 0.3;
    auto pul = gen.Generate(options);
    ASSERT_TRUE(pul.ok()) << pul.status();
    corpus.push_back(std::move(*pul));
    if (seed <= 5) corpus.push_back(NeighbourhoodPul(*doc_, *labeling_, seed));
  }
  for (const ModeGolden& m : kModes) {
    uint32_t crc = 0;
    for (const Pul& pul : corpus) {
      for (int parallelism : {1, 4}) {
        obs::Tracer tracer;
        ReduceOptions opts;
        opts.mode = m.mode;
        opts.parallelism = parallelism;
        opts.tracer = &tracer;
        auto reduced = Reduce(pul, opts);
        ASSERT_TRUE(reduced.ok()) << reduced.status();
        crc = ExtendCrc32c(crc, obs::ToJournalJsonl(tracer));
      }
    }
    CheckGolden(m.name, crc, m.golden);
  }
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
