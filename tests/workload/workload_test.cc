#include "workload/pul_generator.h"

#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "core/integrate.h"
#include "core/reconcile.h"
#include "core/reduce.h"
#include "pul/apply.h"
#include "pul/pul_io.h"
#include "xmark/generator.h"

namespace xupdate::workload {
namespace {

using pul::Pul;
using xml::Document;

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    xmark::Config config;
    config.target_bytes = 128 << 10;
    auto doc = xmark::GenerateDocument(config);
    ASSERT_TRUE(doc.ok());
    doc_ = std::move(*doc);
    labeling_ = label::Labeling::Build(doc_);
  }

  Document doc_;
  label::Labeling labeling_;
};

TEST_F(WorkloadTest, GeneratedPulIsApplicable) {
  PulGenerator gen(doc_, labeling_, 7);
  PulGenerator::PulOptions options;
  options.num_ops = 200;
  auto pul = gen.Generate(options);
  ASSERT_TRUE(pul.ok()) << pul.status();
  EXPECT_EQ(pul->size(), 200u);
  EXPECT_TRUE(pul::CheckPulApplicable(doc_, *pul).ok());
  Document copy = doc_;
  EXPECT_TRUE(pul::ApplyPul(&copy, *pul).ok());
}

TEST_F(WorkloadTest, GeneratedPulSerializes) {
  PulGenerator gen(doc_, labeling_, 7);
  PulGenerator::PulOptions options;
  options.num_ops = 50;
  auto pul = gen.Generate(options);
  ASSERT_TRUE(pul.ok());
  auto text = pul::SerializePul(*pul);
  ASSERT_TRUE(text.ok());
  auto back = pul::ParsePul(*text);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->size(), pul->size());
}

TEST_F(WorkloadTest, ReducibleFractionDrivesRuleApplications) {
  PulGenerator gen(doc_, labeling_, 11);
  PulGenerator::PulOptions options;
  options.num_ops = 1000;
  options.reducible_fraction = 0.2;  // ~1 application per 10 ops
  auto pul = gen.Generate(options);
  ASSERT_TRUE(pul.ok()) << pul.status();
  core::ReduceStats stats;
  auto reduced = core::Reduce(*pul, {}, &stats);
  ASSERT_TRUE(reduced.ok()) << reduced.status();
  // Expect roughly 100 rule applications (generated pairs may interact,
  // so allow a broad band).
  EXPECT_GE(stats.rule_applications, 50u);
  EXPECT_LE(stats.rule_applications, 260u);

  // Near-zero reducibility reduces much less.
  PulGenerator gen2(doc_, labeling_, 12);
  options.reducible_fraction = 0.0;
  auto plain = gen2.Generate(options);
  ASSERT_TRUE(plain.ok());
  core::ReduceStats none;
  ASSERT_TRUE(
      core::Reduce(*plain, {}, &none).ok());
  EXPECT_LT(none.rule_applications, stats.rule_applications);
}

TEST_F(WorkloadTest, SequenceAppliesSequentially) {
  PulGenerator gen(doc_, labeling_, 21);
  PulGenerator::SequenceOptions options;
  options.num_puls = 4;
  options.ops_per_pul = 100;
  options.new_node_fraction = 0.5;
  auto puls = gen.GenerateSequence(options);
  ASSERT_TRUE(puls.ok()) << puls.status();
  ASSERT_EQ(puls->size(), 4u);
  Document working = doc_;
  for (const Pul& pul : *puls) {
    ASSERT_TRUE(pul::ApplyPul(&working, pul).ok());
  }
  EXPECT_TRUE(working.Validate().ok());
}

TEST_F(WorkloadTest, SequenceAggregates) {
  PulGenerator gen(doc_, labeling_, 22);
  PulGenerator::SequenceOptions options;
  options.num_puls = 5;
  options.ops_per_pul = 80;
  auto puls = gen.GenerateSequence(options);
  ASSERT_TRUE(puls.ok()) << puls.status();
  std::vector<const Pul*> ptrs;
  for (const Pul& p : *puls) ptrs.push_back(&p);
  core::AggregateStats stats;
  auto agg = core::Aggregate(ptrs, {}, &stats);
  ASSERT_TRUE(agg.ok()) << agg.status();
  EXPECT_GT(stats.folded_ops, 0u);  // new-node ops were folded (D6)
  // The aggregate applies to the original document in one shot.
  Document via_agg = doc_;
  ASSERT_TRUE(pul::ApplyPul(&via_agg, *agg).ok());
  Document via_seq = doc_;
  for (const Pul& pul : *puls) {
    ASSERT_TRUE(pul::ApplyPul(&via_seq, pul).ok());
  }
  EXPECT_TRUE(via_agg.Validate().ok());
}

TEST_F(WorkloadTest, ConflictingPulsProduceExpectedConflictLoad) {
  PulGenerator gen(doc_, labeling_, 31);
  PulGenerator::ConflictOptions options;
  options.num_puls = 4;
  options.ops_per_pul = 100;
  options.conflicting_fraction = 0.5;
  options.ops_per_conflict = 5;
  options.chained_fraction = 0.0;
  auto puls = gen.GenerateConflicting(options);
  ASSERT_TRUE(puls.ok()) << puls.status();
  std::vector<const Pul*> ptrs;
  size_t total_ops = 0;
  for (const Pul& p : *puls) {
    ptrs.push_back(&p);
    total_ops += p.size();
    EXPECT_TRUE(p.CheckCompatible().ok());
  }
  EXPECT_GE(total_ops, 400u);
  auto result = core::Integrate(ptrs);
  ASSERT_TRUE(result.ok()) << result.status();
  // 400 ops * 0.5 / 5 = 40 designed conflicts (plus incidental overlap
  // from ancestor deletes).
  EXPECT_GE(result->conflicts.size(), 35u);
  EXPECT_LE(result->conflicts.size(), 60u);
}

TEST_F(WorkloadTest, ConflictingPulsReconcile) {
  PulGenerator gen(doc_, labeling_, 32);
  PulGenerator::ConflictOptions options;
  options.num_puls = 4;
  options.ops_per_pul = 80;
  options.conflicting_fraction = 0.4;
  options.ops_per_conflict = 4;
  options.chained_fraction = 0.2;
  auto puls = gen.GenerateConflicting(options);
  ASSERT_TRUE(puls.ok()) << puls.status();
  std::vector<const Pul*> ptrs;
  for (const Pul& p : *puls) ptrs.push_back(&p);
  core::ReconcileStats stats;
  auto merged = core::Reconcile(ptrs, {}, &stats);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_GT(stats.conflicts_total, 0u);
  EXPECT_GT(stats.operations_excluded, 0u);
  EXPECT_GT(stats.conflicts_auto_solved, 0u);
  // The reconciled PUL must be conflict-free and applicable.
  EXPECT_TRUE(merged->CheckCompatible().ok());
  Document copy = doc_;
  EXPECT_TRUE(pul::ApplyPul(&copy, *merged).ok());
}

TEST_F(WorkloadTest, DeterministicAcrossRuns) {
  PulGenerator a(doc_, labeling_, 99);
  PulGenerator b(doc_, labeling_, 99);
  PulGenerator::PulOptions options;
  options.num_ops = 60;
  auto pa = a.Generate(options);
  auto pb = b.Generate(options);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  auto ta = pul::SerializePul(*pa);
  auto tb = pul::SerializePul(*pb);
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());
  EXPECT_EQ(*ta, *tb);
}

}  // namespace
}  // namespace xupdate::workload
