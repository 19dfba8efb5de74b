// coopcr/sched/job_scheduler.hpp
//
// Online greedy first-fit job scheduler (paper §2 "Job Scheduling Model",
// §5 "Job Scheduling").
//
// All jobs are presented (shuffled) at t = 0; whenever nodes free up the
// scheduler scans the pending queue in (priority desc, arrival asc) order and
// starts every job that fits — a "simple, greedy first-fit algorithm".
// Restarted jobs are submitted with the highest priority so they reclaim an
// allocation immediately ("restarted jobs are set to the highest priority").
//
// The queue is one flat vector of small (size, priority, slot) keys in scan
// order; the jobs themselves sit in a slot slab, so inserting a restart near
// the head and compacting after a pump move 16-byte keys, not whole jobs.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "platform/node_pool.hpp"
#include "util/error.hpp"
#include "workload/job.hpp"

namespace coopcr {

/// Pending-queue manager with first-fit placement.
class JobScheduler {
 public:
  explicit JobScheduler(NodePool& pool);

  /// Add a job to the pending queue. Position honours (priority desc,
  /// submission order asc).
  void submit(const Job& job);

  /// Scan the queue first-fit and start everything that fits, calling
  /// `start(const Job&)` for every job started; the callee is responsible
  /// for the job's lifecycle from then on (nodes are already allocated in
  /// the pool when it runs). `start` must not re-enter the scheduler.
  /// Returns the number of jobs started.
  template <typename Start>
  std::size_t pump(Start&& start);

  std::size_t pending_count() const { return pending_.size(); }

  /// Sum of node requirements over pending jobs (diagnostics).
  std::int64_t pending_nodes() const;

  /// Total jobs ever submitted / started (diagnostics, tests).
  std::size_t total_submitted() const { return submitted_; }
  std::size_t total_started() const { return started_; }

 private:
  struct Entry {
    std::int64_t nodes;  ///< copy of the job's size: the scan reads only keys
    int priority;
    std::uint32_t slot;  ///< the job's index in `jobs_`
  };

  NodePool& pool_;
  std::vector<Entry> pending_;  ///< (priority desc, submission asc)
  std::vector<Job> jobs_;       ///< slab of pending jobs, indexed by slot
  std::vector<std::uint32_t> free_slots_;
  bool pumping_ = false;
  std::size_t submitted_ = 0;
  std::size_t started_ = 0;
};

template <typename Start>
std::size_t JobScheduler::pump(Start&& start) {
  COOPCR_CHECK(!pumping_, "start callback re-entered the scheduler");
  pumping_ = true;
  std::size_t launched = 0;
  std::size_t keep = 0;
  for (const Entry entry : pending_) {
    if (!pool_.can_allocate(entry.nodes)) {
      pending_[keep++] = entry;
      continue;
    }
    const Job& job = jobs_[entry.slot];
    pool_.allocate(job.id, job.nodes);
    free_slots_.push_back(entry.slot);
    ++started_;
    ++launched;
    start(job);
  }
  pending_.resize(keep);
  pumping_ = false;
  return launched;
}

}  // namespace coopcr
