// Soundness sweep for AnalyzeIndependence: over hundreds of seeded PUL
// pairs, a kIndependent verdict must imply the dynamic detector finds
// zero conflicts, and a kMustConflict verdict must imply it finds at
// least one.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/independence.h"
#include "common/random.h"
#include "core/integrate.h"
#include "label/labeling.h"
#include "testing/test_docs.h"
#include "workload/pul_generator.h"
#include "xmark/generator.h"

namespace xupdate::analysis {
namespace {

using pul::Pul;
using workload::PulGenerator;
using xml::Document;

std::string ConflictSummary(const std::vector<core::Conflict>& conflicts) {
  std::string out;
  for (const core::Conflict& c : conflicts) {
    out += "type=" + std::to_string(static_cast<int>(c.type));
    if (!c.symmetric()) {
      out += " overrider=" + std::to_string(c.overrider.pul) + ":" +
             std::to_string(c.overrider.op);
    }
    out += " ops=";
    for (const core::OpRef& r : c.ops) {
      out += std::to_string(r.pul) + ":" + std::to_string(r.op) + ",";
    }
    out += "\n";
  }
  return out;
}

struct SweepTally {
  size_t pairs = 0;
  size_t independent = 0;
  size_t must_conflict = 0;
  size_t may_conflict = 0;
};

// Checks one pair against the dynamic detector; returns the verdict for
// tallying.
IndependenceVerdict CheckPair(const Pul& a, const Pul& b,
                              const std::string& context) {
  IndependenceReport verdict = AnalyzeIndependence(a, b);
  auto dynamic = core::Integrate({&a, &b});
  EXPECT_TRUE(dynamic.ok()) << dynamic.status() << " " << context;
  if (!dynamic.ok()) return verdict.verdict;

  // Soundness: never "independent" when the detector conflicts, never
  // "must conflict" when it does not.
  if (verdict.verdict == IndependenceVerdict::kIndependent) {
    EXPECT_TRUE(dynamic->conflicts.empty())
        << context << ": static analysis claimed independence but dynamic "
        << "Integrate found " << dynamic->conflicts.size()
        << " conflicts:\n" << ConflictSummary(dynamic->conflicts);
  } else if (verdict.verdict == IndependenceVerdict::kMustConflict) {
    EXPECT_FALSE(dynamic->conflicts.empty())
        << context << ": static analysis promised a conflict (reason "
        << verdict.reason << ", ops " << verdict.op_a << "/" << verdict.op_b
        << ") but dynamic Integrate found none";
  }
  return verdict.verdict;
}

void Tally(SweepTally* tally, IndependenceVerdict verdict) {
  ++tally->pairs;
  switch (verdict) {
    case IndependenceVerdict::kIndependent:
      ++tally->independent;
      break;
    case IndependenceVerdict::kMayConflict:
      ++tally->may_conflict;
      break;
    case IndependenceVerdict::kMustConflict:
      ++tally->must_conflict;
      break;
  }
}

// Conflict-seeded xmark workloads: GenerateConflicting plants real
// cross-PUL conflicts, so this half of the sweep exercises the
// must-conflict side hard.
TEST(IndependenceSweepTest, SeededXmarkPairs) {
  xmark::Config config;
  config.target_bytes = 64 << 10;
  auto doc = xmark::GenerateDocument(config);
  ASSERT_TRUE(doc.ok()) << doc.status();
  label::Labeling labeling = label::Labeling::Build(*doc);

  SweepTally tally;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    PulGenerator gen(*doc, labeling, seed);
    PulGenerator::ConflictOptions options;
    options.num_puls = 2;
    options.ops_per_pul = 25;
    // Half the seeds lean conflicting, half lean disjoint so both
    // verdict directions are exercised.
    options.conflicting_fraction = (seed % 2 == 0) ? 0.4 : 0.0;
    options.ops_per_conflict = 2;
    auto puls = gen.GenerateConflicting(options);
    ASSERT_TRUE(puls.ok()) << puls.status();
    ASSERT_EQ(puls->size(), 2u);
    Tally(&tally, CheckPair((*puls)[0], (*puls)[1],
                            "xmark seed " + std::to_string(seed)));
  }
  EXPECT_EQ(tally.pairs, 40u);
  EXPECT_GT(tally.independent, 0u);
  EXPECT_GT(tally.must_conflict, 0u);
}

// Small random documents with fully random PULs: broader op-kind mix
// (attribute targets, repC, empty repN) than the xmark generator.
TEST(IndependenceSweepTest, SeededRandomDocPairs) {
  SweepTally tally;
  for (uint64_t seed = 1; seed <= 170; ++seed) {
    Rng rng(seed * 977);
    Document doc = xupdate::testing::RandomDocument(rng, 26);
    label::Labeling labeling = label::Labeling::Build(doc);
    xupdate::testing::RandomPulOptions options;
    options.max_ops = 5;
    options.id_base = doc.max_assigned_id() + 1;
    Pul a = xupdate::testing::RandomPul(rng, doc, labeling, options);
    options.id_base = doc.max_assigned_id() + 1000;
    Pul b = xupdate::testing::RandomPul(rng, doc, labeling, options);
    Tally(&tally, CheckPair(a, b, "random seed " + std::to_string(seed)));
  }
  EXPECT_EQ(tally.pairs, 170u);
  // The mix must exercise both decisive verdicts; fully labeled inputs
  // should rarely if ever be indecisive.
  EXPECT_GT(tally.independent, 10u);
  EXPECT_GT(tally.must_conflict, 10u);
  EXPECT_EQ(tally.may_conflict, 0u);
}

}  // namespace
}  // namespace xupdate::analysis
