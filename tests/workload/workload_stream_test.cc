#include "workload/workload.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "pul/apply.h"
#include "pul/pul_io.h"
#include "store/version.h"
#include "xml/parser.h"

namespace xupdate::workload {
namespace {

WorkloadOptions SmallOptions() {
  WorkloadOptions options;
  options.num_tenants = 3;
  options.num_items = 60;
  options.ops_per_pul = 4;
  options.doc_bytes = 2048;
  options.seed = 7;
  return options;
}

TEST(WorkloadStreamTest, DeterministicForSameSeed) {
  auto a = GenerateWorkload(SmallOptions());
  auto b = GenerateWorkload(SmallOptions());
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->tenants, b->tenants);
  EXPECT_EQ(a->initial_xml, b->initial_xml);
  ASSERT_EQ(a->items.size(), b->items.size());
  for (size_t i = 0; i < a->items.size(); ++i) {
    EXPECT_EQ(a->items[i].type, b->items[i].type) << i;
    EXPECT_EQ(a->items[i].tenant, b->items[i].tenant) << i;
    EXPECT_EQ(a->items[i].pul_xml, b->items[i].pul_xml) << i;
    EXPECT_EQ(a->items[i].version, b->items[i].version) << i;
    EXPECT_EQ(a->items[i].expected_version, b->items[i].expected_version)
        << i;
    EXPECT_EQ(a->items[i].arrival_seconds, b->items[i].arrival_seconds) << i;
  }
}

TEST(WorkloadStreamTest, SeedChangesTheStream) {
  WorkloadOptions other = SmallOptions();
  other.seed = 8;
  auto a = GenerateWorkload(SmallOptions());
  auto b = GenerateWorkload(other);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  bool differs = a->initial_xml != b->initial_xml;
  for (size_t i = 0; !differs && i < a->items.size(); ++i) {
    differs = a->items[i].type != b->items[i].type ||
              a->items[i].tenant != b->items[i].tenant ||
              a->items[i].pul_xml != b->items[i].pul_xml;
  }
  EXPECT_TRUE(differs);
}

TEST(WorkloadStreamTest, ShapeAndBounds) {
  WorkloadOptions options = SmallOptions();
  auto workload = GenerateWorkload(options);
  ASSERT_TRUE(workload.ok());
  ASSERT_EQ(workload->tenants.size(), options.num_tenants);
  ASSERT_EQ(workload->initial_xml.size(), options.num_tenants);
  EXPECT_EQ(workload->tenants[0], "t0");
  EXPECT_EQ(workload->items.size(), options.num_items);
  for (const std::string& xml : workload->initial_xml) {
    EXPECT_FALSE(xml.empty());
    auto doc = xml::ParseDocument(xml);
    EXPECT_TRUE(doc.ok()) << doc.status();
  }
  for (const WorkloadItem& item : workload->items) {
    EXPECT_LT(item.tenant, options.num_tenants);
    if (item.type == ItemType::kCommit || item.type == ItemType::kReduce) {
      EXPECT_FALSE(item.pul_xml.empty());
    }
  }
}

TEST(WorkloadStreamTest, CommitChainsReplayInStreamOrder) {
  // The load generator's --verify mode rests on this: walking the items
  // in stream order, each tenant's commits must apply cleanly to that
  // tenant's evolving document, expected_version must count 1,2,3,...
  // per tenant, and each kCheckout's version must already exist.
  auto workload = GenerateWorkload(SmallOptions());
  ASSERT_TRUE(workload.ok());
  std::vector<xml::Document> docs;
  std::vector<uint64_t> committed(workload->tenants.size(), 0);
  for (const std::string& xml : workload->initial_xml) {
    auto doc = xml::ParseDocument(xml);
    ASSERT_TRUE(doc.ok());
    docs.push_back(std::move(*doc));
  }
  size_t commits = 0;
  for (const WorkloadItem& item : workload->items) {
    if (item.type == ItemType::kCommit) {
      auto pul = pul::ParsePul(item.pul_xml);
      ASSERT_TRUE(pul.ok()) << pul.status();
      ASSERT_TRUE(pul::ApplyPul(&docs[item.tenant], *pul).ok())
          << "commit #" << commits << " on tenant " << item.tenant;
      ++committed[item.tenant];
      EXPECT_EQ(item.expected_version, committed[item.tenant]);
      ++commits;
    } else if (item.type == ItemType::kCheckout) {
      EXPECT_LE(item.version, committed[item.tenant]);
    } else if (item.type == ItemType::kReduce) {
      EXPECT_TRUE(pul::ParsePul(item.pul_xml).ok());
    }
  }
  EXPECT_GT(commits, 0u);
}

TEST(WorkloadStreamTest, ZipfSkewConcentratesOnFirstTenant) {
  WorkloadOptions options = SmallOptions();
  options.num_tenants = 8;
  options.num_items = 400;
  options.zipf_theta = 1.2;
  auto skewed = GenerateWorkload(options);
  ASSERT_TRUE(skewed.ok());
  options.zipf_theta = 0.0;
  auto uniform = GenerateWorkload(options);
  ASSERT_TRUE(uniform.ok());

  auto share_of_t0 = [](const Workload& w) {
    size_t hits = 0;
    for (const WorkloadItem& item : w.items) hits += item.tenant == 0;
    return static_cast<double>(hits) / w.items.size();
  };
  // Theta 1.2 gives t0 a weight share above 40% over 8 tenants; uniform
  // gives 12.5%. 400 draws separate those decisively.
  EXPECT_GT(share_of_t0(*skewed), 0.30);
  EXPECT_LT(share_of_t0(*uniform), 0.25);
  EXPECT_GT(share_of_t0(*skewed), share_of_t0(*uniform) + 0.10);
}

TEST(WorkloadStreamTest, MixWeightsSelectItemTypes) {
  WorkloadOptions options = SmallOptions();
  options.num_items = 120;
  options.commit_weight = 0.0;
  options.checkout_weight = 0.0;
  options.reduce_weight = 1.0;
  options.stat_weight = 0.0;
  auto workload = GenerateWorkload(options);
  ASSERT_TRUE(workload.ok());
  for (const WorkloadItem& item : workload->items) {
    EXPECT_EQ(item.type, ItemType::kReduce);
  }

  options.reduce_weight = 0.0;
  options.commit_weight = 1.0;
  workload = GenerateWorkload(options);
  ASSERT_TRUE(workload.ok());
  for (const WorkloadItem& item : workload->items) {
    EXPECT_EQ(item.type, ItemType::kCommit);
  }
}

TEST(WorkloadStreamTest, OpenLoopArrivalsAreMonotoneClosedLoopIsZero) {
  WorkloadOptions options = SmallOptions();
  options.arrival_rate = 0.0;
  auto closed = GenerateWorkload(options);
  ASSERT_TRUE(closed.ok());
  for (const WorkloadItem& item : closed->items) {
    EXPECT_EQ(item.arrival_seconds, 0.0);
  }

  options.arrival_rate = 500.0;
  auto open = GenerateWorkload(options);
  ASSERT_TRUE(open.ok());
  double last = 0.0;
  double sum_gap = 0.0;
  for (const WorkloadItem& item : open->items) {
    EXPECT_GE(item.arrival_seconds, last);
    sum_gap += item.arrival_seconds - last;
    last = item.arrival_seconds;
  }
  EXPECT_GT(last, 0.0);
  // Mean inter-arrival ~ 1/rate = 2ms; over 59 gaps the sample mean
  // lies well inside [0.2ms, 20ms] for any seed.
  double mean_gap = sum_gap / (open->items.size() - 1);
  EXPECT_GT(mean_gap, 0.0002);
  EXPECT_LT(mean_gap, 0.02);
}

TEST(WorkloadStreamTest, InvalidOptionsAreRejected) {
  WorkloadOptions options = SmallOptions();
  options.num_tenants = 0;
  EXPECT_FALSE(GenerateWorkload(options).ok());

  options = SmallOptions();
  options.num_items = 0;
  EXPECT_FALSE(GenerateWorkload(options).ok());

  options = SmallOptions();
  options.commit_weight = 0.0;
  options.checkout_weight = 0.0;
  options.reduce_weight = 0.0;
  options.stat_weight = 0.0;
  EXPECT_FALSE(GenerateWorkload(options).ok());

  options = SmallOptions();
  options.commit_weight = -1.0;
  EXPECT_FALSE(GenerateWorkload(options).ok());

  options = SmallOptions();
  options.arrival_rate = -5.0;
  EXPECT_FALSE(GenerateWorkload(options).ok());

  options = SmallOptions();
  options.zipf_theta = -0.5;
  EXPECT_FALSE(GenerateWorkload(options).ok());
}

TEST(WorkloadStreamTest, CommitChainsMatchVersionStoreReplay) {
  // End-to-end determinism hook: committing each tenant's chain into a
  // real VersionStore must assign exactly the expected_version sequence.
  WorkloadOptions options = SmallOptions();
  options.num_items = 30;
  auto workload = GenerateWorkload(options);
  ASSERT_TRUE(workload.ok());
  std::vector<xml::Document> docs;
  for (const std::string& xml : workload->initial_xml) {
    auto doc = xml::ParseDocument(xml);
    ASSERT_TRUE(doc.ok());
    docs.push_back(std::move(*doc));
  }
  std::map<size_t, uint64_t> versions;
  for (const WorkloadItem& item : workload->items) {
    if (item.type != ItemType::kCommit) continue;
    auto pul = pul::ParsePul(item.pul_xml);
    ASSERT_TRUE(pul.ok());
    ASSERT_TRUE(pul::ApplyPul(&docs[item.tenant], *pul).ok());
    EXPECT_EQ(item.expected_version, ++versions[item.tenant]);
  }
}

TEST(WorkloadStreamTest, RenamedAttributesAvoidTheOwnersNames) {
  // Long streams rename attributes to a fresh "n<k>" whose counter
  // restarts per PUL, so the owner element may already carry that name
  // from an earlier commit. These seeds used to fail generation with
  // NotApplicable: duplicate attribute.
  WorkloadOptions options;
  options.num_items = 3000;
  for (uint64_t seed : {7u, 16u}) {
    options.seed = seed;
    auto workload = GenerateWorkload(options);
    EXPECT_TRUE(workload.ok()) << "seed " << seed << ": "
                               << workload.status();
  }
}

}  // namespace
}  // namespace xupdate::workload
