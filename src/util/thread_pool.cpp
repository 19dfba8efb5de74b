#include "util/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace coopcr {

int ThreadPool::resolve_size(int threads) {
  if (threads > 0) return threads;
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

ThreadPool::ThreadPool(int threads) {
  const int count = resolve_size(threads);
  workers_.reserve(static_cast<std::size_t>(count));
  for (int t = 0; t < count; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  const std::thread::id self = std::this_thread::get_id();
  for (const auto& worker : workers_) {
    COOPCR_CHECK(worker.get_id() != self,
                 "ThreadPool::wait_idle() called from a pool worker — a "
                 "task waiting on its own pool deadlocks");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  all_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) all_idle_.notify_all();
    }
  }
}

}  // namespace coopcr
