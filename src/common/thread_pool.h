#ifndef XUPDATE_COMMON_THREAD_POOL_H_
#define XUPDATE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace xupdate {

// Reusable fixed-size worker pool. Tasks are plain std::function<void()>
// closures; the library convention is exception-free, so a task reports
// failure by writing a Status into caller-owned state (see ParallelFor).
//
// Shutdown semantics: the destructor (and Shutdown()) first drains every
// task already submitted — work handed to the pool is never dropped —
// then joins the workers. Submit after shutdown is a no-op returning
// false so racing producers fail soft instead of deadlocking.
//
// There is no wait for the pool to go idle: callers sharing one pool
// would wait on each other's work. ParallelFor counts its own blocks.
class ThreadPool {
 public:
  // Spawns max(1, num_threads) workers.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  // Enqueues `task`; returns false (without running it) if the pool is
  // shutting down.
  bool Submit(std::function<void()> task);

  // Drains pending tasks and joins the workers. Idempotent.
  void Shutdown();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

// Runs fn(0..n-1) in contiguous index blocks and returns the Status of
// the lowest failing index (OK if none fail). Every index runs even
// when an earlier one fails — shards must not be silently skipped.
//
// `width` is the call's parallelism: at most `width` blocks are in
// flight at once, the calling thread's among them — it runs blocks too,
// next to at most width - 1 helper tasks on `pool`. Width 1 (or n == 1)
// is a plain loop on the calling thread that never touches the pool. A
// null pool with width > 1 runs on a transient pool of width - 1
// workers, joined before the call returns.
//
// The call completes on its own count of finished blocks, not on the
// pool going idle: calls from different threads share one pool without
// waiting for each other's work. A helper that starts after the
// caller has claimed every block finds nothing left and returns.
Status ParallelFor(ThreadPool* pool, size_t width, size_t n,
                   const std::function<Status(size_t)>& fn);

}  // namespace xupdate

#endif  // XUPDATE_COMMON_THREAD_POOL_H_
