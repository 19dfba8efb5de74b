// coopcr/platform/node_pool.hpp
//
// Allocation bookkeeping for the space-shared node partition.
//
// Nodes (failure units) are dedicated to at most one job at a time. The pool
// tracks ownership so a failure strike can be mapped to its victim job, and
// exposes the free count used by the first-fit job scheduler. Failed units
// are assumed to be swapped for hot spares instantly (paper §2: "only one
// node has failed and is replaced by a hot spare"), so the pool size is
// constant for the whole simulation.
//
// Hot path: jobs hold thousands of nodes and start/finish constantly, so the
// pool never touches nodes one by one. The LIFO free stack and every live
// allocation are stored as runs of consecutive node indices
// {first, len, dir = ±1}. The initial stack is one descending run and
// allocations move whole runs, so the run count tracks the number of live
// jobs, not the number of nodes:
//   * allocate() pops runs off the stack top, splitting at most one, and
//     reverses each run it takes — the node order per-node pop_back() would
//     produce;
//   * release() pushes the allocation's runs back in order, merging a run
//     into the stack top when the two continue one another;
//   * owner_of() (rare — one call per failure strike) scans the live runs.
// Node-to-job assignment order is identical to the historical per-node
// pop/push implementation, which keeps failure victims — and therefore whole
// simulations — bit-identical.

#pragma once

#include <cstdint>
#include <vector>

namespace coopcr {

/// Identifier of a job instance within one simulation.
using JobId = std::int64_t;

/// Sentinel for "no job".
inline constexpr JobId kNoJob = -1;

/// Fixed-size pool of failure units with per-unit ownership.
class NodePool {
 public:
  /// Create a pool of `node_count` units, all free.
  explicit NodePool(std::int64_t node_count);

  std::int64_t total() const { return total_; }
  std::int64_t free_count() const { return free_count_; }
  std::int64_t allocated_count() const { return total_ - free_count_; }

  /// True when at least `count` units are free.
  bool can_allocate(std::int64_t count) const { return count <= free_count_; }

  /// Allocate `count` units to `job`. Throws if insufficient units are free
  /// or the job already holds an allocation.
  void allocate(JobId job, std::int64_t count);

  /// Release all units held by `job`. Throws if the job holds none.
  void release(JobId job);

  /// Owner of node `index`, or kNoJob when free.
  JobId owner_of(std::int64_t index) const;

  /// Units currently held by `job`, in assignment order (empty if none).
  std::vector<std::int64_t> nodes_of(JobId job) const;

  /// Number of jobs currently holding allocations.
  std::size_t job_count() const { return job_count_; }

  /// Fraction of units currently allocated, in [0, 1].
  double utilization() const;

 private:
  /// Nodes first, first + dir, ..., first + (len - 1) * dir, owned by `job`
  /// (kNoJob on the free stack).
  struct Run {
    std::int64_t first = 0;
    std::int64_t len = 0;
    std::int64_t dir = 1;
    JobId job = kNoJob;
    std::int64_t last() const { return first + (len - 1) * dir; }
  };

  /// Append `run` to `runs`, merged into the last entry when that entry is
  /// at index `floor` or above and `run` continues it.
  static void push_run(std::vector<Run>& runs, std::size_t floor, Run run);

  /// First index of `job`'s runs in `held_`, or held_.size() if none.
  std::size_t find_held(JobId job) const;

  std::int64_t total_ = 0;
  std::int64_t free_count_ = 0;
  std::size_t job_count_ = 0;
  std::vector<Run> free_;  // LIFO stack, bottom to top
  std::vector<Run> held_;  // live allocations, each a contiguous group of
                           // runs in assignment order
};

}  // namespace coopcr
