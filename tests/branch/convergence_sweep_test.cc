#include "branch/sim.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

namespace xupdate::branch {
namespace {

namespace fs = std::filesystem;

// Seeded-schedule budget for the CI sweep. XUPDATE_SIM_SCHEDULES scales
// it up for long validation runs (the sweep splits the budget across
// writer counts {2, 3, 5}).
size_t ScheduleBudget() {
  const char* env = std::getenv("XUPDATE_SIM_SCHEDULES");
  if (env != nullptr) {
    long parsed = std::atol(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 200;
}

// Keyed on the pid so concurrent runs of this binary (a long
// XUPDATE_SIM_SCHEDULES sweep next to a ctest pass) never share — and
// never TearDown-delete — each other's scratch trees.
std::string ScratchDir(const std::string& tag) {
  return (fs::temp_directory_path() /
          ("xupdate_sim_" + tag + "_" + std::to_string(::getpid())))
      .string();
}

class ConvergenceSweepTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::error_code ec;
    if (!scratch_.empty()) fs::remove_all(scratch_, ec);
  }
  std::string scratch_;
};

TEST_F(ConvergenceSweepTest, SeededSchedulesConvergeAcrossWriterCounts) {
  scratch_ = ScratchDir("sweep");
  size_t budget = ScheduleBudget();
  const int writer_counts[] = {2, 3, 5};
  size_t per_count = budget / 3 > 0 ? budget / 3 : 1;
  size_t total = 0, converged = 0, merges = 0;
  for (int writers : writer_counts) {
    SimOptions options;
    options.schedules = per_count;
    options.writers = writers;
    options.seed = 1000 * static_cast<uint64_t>(writers);
    options.scratch_dir = scratch_;
    auto report = RunSim(options);
    ASSERT_TRUE(report.ok()) << report.status();
    for (const ScheduleResult& failure : report->failures) {
      ADD_FAILURE() << "writers=" << writers << " seed=" << failure.seed
                    << ": " << failure.error;
    }
    EXPECT_EQ(report->converged, report->schedules)
        << "writers=" << writers;
    total += report->schedules;
    converged += report->converged;
    merges += report->merges;
  }
  EXPECT_EQ(converged, total);
  EXPECT_GT(merges, total);  // every schedule merges more than once
}

TEST_F(ConvergenceSweepTest, VerifiedSchedulesPassTheStoreAudit) {
  scratch_ = ScratchDir("verify");
  SimOptions options;
  options.schedules = 5;
  options.writers = 3;
  options.seed = 31;
  options.verify_stores = true;
  options.scratch_dir = scratch_;
  auto report = RunSim(options);
  ASSERT_TRUE(report.ok()) << report.status();
  for (const ScheduleResult& failure : report->failures) {
    ADD_FAILURE() << "seed=" << failure.seed << ": " << failure.error;
  }
  EXPECT_EQ(report->converged, report->schedules);
}

TEST_F(ConvergenceSweepTest, SchedulesAreSeedDeterministic) {
  scratch_ = ScratchDir("determinism");
  SimOptions options;
  options.schedules = 5;
  options.writers = 2;
  options.seed = 9;
  options.scratch_dir = scratch_;
  auto first = RunSim(options);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = RunSim(options);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first->digest, second->digest);
  EXPECT_EQ(first->edits, second->edits);
  EXPECT_EQ(first->merges, second->merges);
  EXPECT_EQ(first->fast_forwards, second->fast_forwards);
}

}  // namespace
}  // namespace xupdate::branch
