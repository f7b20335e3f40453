#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/status.h"

namespace xupdate {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.Submit([&counter] { ++counter; }));
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SpawnsAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<bool> ran{false};
  EXPECT_TRUE(pool.Submit([&ran] { ran = true; }));
  pool.Shutdown();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, ShutdownDrainsPendingWork) {
  // Every task submitted before Shutdown must run, even the ones still
  // queued behind a slow task when the call arrives.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++counter;
      }));
    }
    pool.Shutdown();
  }
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, DestructorDrainsPendingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(pool.Submit([&counter] { ++counter; }));
    }
  }
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, SubmitAfterShutdownFailsSoft) {
  ThreadPool pool(2);
  pool.Shutdown();
  std::atomic<bool> ran{false};
  EXPECT_FALSE(pool.Submit([&ran] { ran = true; }));
  EXPECT_FALSE(ran.load());
  pool.Shutdown();  // idempotent
}

TEST(ParallelForTest, RunsAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  Status s = ParallelFor(&pool, 4, hits.size(), [&hits](size_t i) {
    ++hits[i];
    return Status();
  });
  EXPECT_TRUE(s.ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, NullPoolRunsInline) {
  std::vector<int> hits(10, 0);
  Status s = ParallelFor(nullptr, 1, hits.size(), [&hits](size_t i) {
    ++hits[i];
    return Status();
  });
  EXPECT_TRUE(s.ok());
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, ReportsLowestFailingIndex) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  Status s = ParallelFor(&pool, 4, 100, [&ran](size_t i) {
    ++ran;
    if (i == 17 || i == 63) {
      return Status::Internal("shard " + std::to_string(i));
    }
    return Status();
  });
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("17"), std::string::npos);
  // A failure must not cancel the remaining shards.
  EXPECT_EQ(ran.load(), 100);
}

TEST(ParallelForTest, ZeroIterationsIsOk) {
  ThreadPool pool(2);
  Status s = ParallelFor(&pool, 2, 0, [](size_t) { return Status(); });
  EXPECT_TRUE(s.ok());
}

TEST(ParallelForTest, NullPoolAboveWidthOneRunsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(100);
  Status s = ParallelFor(nullptr, 3, hits.size(), [&hits](size_t i) {
    ++hits[i];
    return Status();
  });
  EXPECT_TRUE(s.ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Occupies every worker of `pool` until the returned promise is set.
// Returns once all of them are blocked.
std::promise<void> BlockAllWorkers(ThreadPool* pool) {
  std::promise<void> release;
  std::shared_future<void> latch = release.get_future().share();
  std::atomic<size_t> blocked{0};
  for (size_t w = 0; w < pool->size(); ++w) {
    EXPECT_TRUE(pool->Submit([latch, &blocked] {
      ++blocked;
      latch.wait();
    }));
  }
  while (blocked.load() < pool->size()) std::this_thread::yield();
  return release;
}

TEST(ParallelForTest, WidthOneRunsOnCallingThreadBesideBlockedPool) {
  // Every worker waits on a latch, so anything handed to the pool would
  // wait too: width 1 must not hand it anything.
  ThreadPool pool(2);
  std::promise<void> release = BlockAllWorkers(&pool);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(50);
  auto call = std::async(std::launch::async, [&] {
    return ParallelFor(&pool, 1, ran_on.size(), [&ran_on](size_t i) {
      ran_on[i] = std::this_thread::get_id();
      return Status();
    });
  });
  const bool finished =
      call.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.set_value();
  ASSERT_TRUE(finished) << "width 1 waited for the blocked pool";
  EXPECT_TRUE(call.get().ok());
  // The async task is the calling thread here: every index ran on it.
  for (const std::thread::id& id : ran_on) {
    EXPECT_EQ(id, ran_on[0]);
    EXPECT_NE(id, caller);
  }
}

TEST(ParallelForTest, CallsOnOnePoolCompleteIndependently) {
  // Call A holds both of its blocks on a latch, one of them on the
  // pool's only worker. Call B on the same pool must still return: it
  // completes on its own blocks, which its calling thread runs.
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> latch = release.get_future().share();
  std::atomic<int> a_entered{0};
  std::atomic<bool> a_returned{false};
  std::thread a([&] {
    Status s = ParallelFor(&pool, 2, 2, [&](size_t) {
      ++a_entered;
      latch.wait();
      return Status();
    });
    EXPECT_TRUE(s.ok());
    a_returned = true;
  });
  while (a_entered.load() < 2) std::this_thread::yield();
  std::vector<std::atomic<int>> hits(40);
  auto b = std::async(std::launch::async, [&] {
    return ParallelFor(&pool, 2, hits.size(), [&hits](size_t i) {
      ++hits[i];
      return Status();
    });
  });
  const bool b_finished =
      b.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  const bool a_still_held = !a_returned.load();
  release.set_value();
  a.join();
  ASSERT_TRUE(b_finished) << "call B waited for call A's held block";
  EXPECT_TRUE(a_still_held);
  EXPECT_TRUE(b.get().ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_TRUE(a_returned.load());
}

TEST(ParallelForTest, WidthCapsIndicesInFlight) {
  ThreadPool pool(8);
  for (size_t width : {1u, 2u, 3u, 8u}) {
    std::atomic<size_t> in_flight{0};
    std::atomic<size_t> high_water{0};
    Status s = ParallelFor(&pool, width, 200, [&](size_t) {
      const size_t now = ++in_flight;
      size_t seen = high_water.load();
      while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      --in_flight;
      return Status();
    });
    EXPECT_TRUE(s.ok());
    EXPECT_GE(high_water.load(), 1u);
    EXPECT_LE(high_water.load(), width) << "width " << width;
  }
}

}  // namespace
}  // namespace xupdate
