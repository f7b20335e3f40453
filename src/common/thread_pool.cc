#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <utility>

namespace xupdate {

ThreadPool::ThreadPool(size_t num_threads) {
  size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

bool ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return false;
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
  return true;
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  task_ready_.notify_all();
  // Workers exit only once the queue is empty, so pending work drains.
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

namespace {

// One ParallelFor call's blocks. The caller and its helpers claim blocks
// through `next`; `fn` is called only for a claimed block, and the
// caller returns only once every block is finished, so `fn` (which
// lives on the caller's stack) outlives every call. A helper that runs
// late holds the state alive through its shared_ptr and touches
// nothing else.
struct ForState {
  const std::function<Status(size_t)>* fn = nullptr;
  size_t n = 0;
  size_t per_block = 0;
  size_t blocks = 0;
  std::atomic<size_t> next{0};
  std::vector<Status> results;
  std::mutex mu;
  std::condition_variable all_done;
  size_t finished = 0;  // guarded by mu

  void RunBlocks() {
    for (;;) {
      const size_t b = next.fetch_add(1);
      if (b >= blocks) return;
      const size_t begin = b * per_block;
      const size_t end = std::min(n, begin + per_block);
      Status first;
      for (size_t i = begin; i < end; ++i) {
        Status s = (*fn)(i);
        if (!s.ok() && first.ok()) first = std::move(s);
      }
      std::lock_guard<std::mutex> lock(mu);
      results[b] = std::move(first);
      if (++finished == blocks) all_done.notify_all();
    }
  }
};

}  // namespace

Status ParallelFor(ThreadPool* pool, size_t width, size_t n,
                   const std::function<Status(size_t)>& fn) {
  if (n == 0) return Status::OK();
  if (width <= 1 || n == 1) {
    Status first;
    for (size_t i = 0; i < n; ++i) {
      Status s = fn(i);
      if (!s.ok() && first.ok()) first = std::move(s);
    }
    return first;
  }
  // Contiguous index blocks, a few per unit of width: one claim per
  // block keeps the cost bounded when n is in the tens of thousands (one
  // PUL shard per index) while leaving enough slack for uneven block
  // runtimes to balance out.
  auto state = std::make_shared<ForState>();
  state->fn = &fn;
  state->n = n;
  const size_t target = std::min(n, width * 4);
  state->per_block = (n + target - 1) / target;
  state->blocks = (n + state->per_block - 1) / state->per_block;
  state->results.resize(state->blocks);
  std::optional<ThreadPool> transient;
  if (pool == nullptr) {
    transient.emplace(std::min(width, state->blocks) - 1);
    pool = &*transient;
  }
  const size_t helpers =
      std::min({width - 1, state->blocks - 1, pool->size()});
  for (size_t h = 0; h < helpers; ++h) {
    // A pool that is shutting down refuses the helper; the caller's own
    // loop below still runs every block.
    if (!pool->Submit([state] { state->RunBlocks(); })) break;
  }
  state->RunBlocks();
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->all_done.wait(lock,
                         [&state] { return state->finished == state->blocks; });
  }
  for (Status& s : state->results) {
    if (!s.ok()) return std::move(s);
  }
  return Status::OK();
}

}  // namespace xupdate
