#include "sched/job_scheduler.hpp"

#include <algorithm>

namespace coopcr {

JobScheduler::JobScheduler(NodePool& pool) : pool_(pool) {}

void JobScheduler::submit(const Job& job) {
  COOPCR_CHECK(!pumping_, "start callback re-entered the scheduler");
  COOPCR_CHECK(job.well_formed(), "scheduler received a malformed job");
  COOPCR_CHECK(job.nodes <= pool_.total(),
               "job larger than the whole platform");
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(jobs_.size());
    jobs_.push_back(job);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    jobs_[slot] = job;
  }
  // Insert before the first entry with strictly lower priority; within a
  // priority band insertion order is preserved.
  const auto at = std::partition_point(
      pending_.begin(), pending_.end(),
      [&job](const Entry& e) { return e.priority >= job.priority; });
  pending_.insert(at, Entry{job.nodes, job.priority, slot});
  ++submitted_;
}

std::int64_t JobScheduler::pending_nodes() const {
  std::int64_t sum = 0;
  for (const Entry& entry : pending_) sum += entry.nodes;
  return sum;
}

}  // namespace coopcr
