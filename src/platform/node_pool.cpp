#include "platform/node_pool.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace coopcr {

NodePool::NodePool(std::int64_t node_count) {
  COOPCR_CHECK(node_count > 0, "node pool must have at least one unit");
  total_ = node_count;
  free_count_ = node_count;
  // One descending run, so allocation hands out low indices first (purely
  // cosmetic, but makes traces easy to read).
  free_.push_back(Run{node_count - 1, node_count, -1, kNoJob});
}

void NodePool::push_run(std::vector<Run>& runs, std::size_t floor, Run run) {
  if (runs.size() > floor) {
    Run& tail = runs.back();
    const std::int64_t step = run.first - tail.last();
    // A one-node run has no direction of its own; it takes the step's.
    if ((step == 1 || step == -1) && (tail.len == 1 || tail.dir == step) &&
        (run.len == 1 || run.dir == step)) {
      tail.dir = step;
      tail.len += run.len;
      return;
    }
  }
  runs.push_back(run);
}

std::size_t NodePool::find_held(JobId job) const {
  std::size_t i = 0;
  while (i < held_.size() && held_[i].job != job) ++i;
  return i;
}

void NodePool::allocate(JobId job, std::int64_t count) {
  COOPCR_CHECK(job >= 0, "invalid job id");
  COOPCR_CHECK(count > 0, "allocation size must be positive");
  COOPCR_CHECK(count <= free_count_, "not enough free nodes");
  COOPCR_CHECK(find_held(job) == held_.size(),
               "job already holds an allocation");
  const std::size_t group = held_.size();
  for (std::int64_t left = count; left > 0;) {
    Run& top = free_.back();
    const std::int64_t take = std::min(left, top.len);
    // The top `take` entries of the run, popped one at a time, come out
    // last first: a reversed run. What stays behind is the run's prefix.
    push_run(held_, group, Run{top.last(), take, -top.dir, job});
    top.len -= take;
    if (top.len == 0) free_.pop_back();
    left -= take;
  }
  free_count_ -= count;
  ++job_count_;
}

void NodePool::release(JobId job) {
  const std::size_t begin = find_held(job);
  COOPCR_CHECK(begin < held_.size(), "job holds no allocation");
  std::size_t end = begin;
  // Pushing the runs in assignment order re-stacks the nodes exactly as
  // per-node push_back() in that order would.
  for (; end < held_.size() && held_[end].job == job; ++end) {
    Run run = held_[end];
    run.job = kNoJob;
    free_count_ += run.len;
    push_run(free_, 0, run);
  }
  held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(begin),
              held_.begin() + static_cast<std::ptrdiff_t>(end));
  --job_count_;
}

JobId NodePool::owner_of(std::int64_t index) const {
  COOPCR_CHECK(index >= 0 && index < total_, "node index out of range");
  for (const Run& run : held_) {
    const std::int64_t offset = (index - run.first) * run.dir;
    if (offset >= 0 && offset < run.len) return run.job;
  }
  return kNoJob;
}

std::vector<std::int64_t> NodePool::nodes_of(JobId job) const {
  std::vector<std::int64_t> nodes;
  for (std::size_t i = find_held(job); i < held_.size() && held_[i].job == job;
       ++i) {
    const Run& run = held_[i];
    for (std::int64_t k = 0; k < run.len; ++k) {
      nodes.push_back(run.first + k * run.dir);
    }
  }
  return nodes;
}

double NodePool::utilization() const {
  return static_cast<double>(allocated_count()) / static_cast<double>(total_);
}

}  // namespace coopcr
