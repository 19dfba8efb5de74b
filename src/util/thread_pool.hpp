// coopcr/util/thread_pool.hpp
//
// Shared fixed-size worker pool for grid-level parallelism.
//
// A ThreadPool decouples "how much work exists" from "how many workers run
// it": exp::SweepRunner schedules every (grid point × replica) task of a whole
// experiment onto one pool, and run_monte_carlo runs one campaign on a local
// pool.
//
// Determinism contract: the pool makes no ordering promises, so every task
// must write into its own preassigned slot; reductions happen after
// wait_idle() in a fixed order. All coopcr users follow this pattern, which
// is what keeps sweep results bit-identical for any thread count.

#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace coopcr {

/// Fixed-size FIFO task pool. Tasks must not throw — they run on worker
/// threads with no channel back to the submitter; wrap fallible work and
/// stash errors in the task's output slot instead.
class ThreadPool {
 public:
  /// Spawn resolve_size(threads) workers.
  explicit ThreadPool(int threads = 0);

  /// `threads` when positive, else std::thread::hardware_concurrency()
  /// (minimum 1).
  static int resolve_size(int threads);

  /// Drains the queue (pending tasks still run), then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one task.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished. Safe to call repeatedly;
  /// new submissions after a wait_idle() are allowed. Must not be called
  /// from a pool worker (a task waiting on its own pool can never see
  /// in-flight reach zero) — throws coopcr::Error instead of deadlocking.
  void wait_idle();

  /// Number of worker threads.
  int size() const { return static_cast<int>(workers_.size()); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_idle_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

}  // namespace coopcr
