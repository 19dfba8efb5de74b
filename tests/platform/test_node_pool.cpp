// Unit tests for node allocation bookkeeping.

#include "platform/node_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace coopcr {
namespace {

TEST(NodePool, StartsAllFree) {
  NodePool pool(10);
  EXPECT_EQ(pool.total(), 10);
  EXPECT_EQ(pool.free_count(), 10);
  EXPECT_EQ(pool.allocated_count(), 0);
  EXPECT_DOUBLE_EQ(pool.utilization(), 0.0);
}

TEST(NodePool, AllocateAndRelease) {
  NodePool pool(10);
  pool.allocate(1, 4);
  EXPECT_EQ(pool.free_count(), 6);
  EXPECT_EQ(pool.nodes_of(1).size(), 4u);
  EXPECT_DOUBLE_EQ(pool.utilization(), 0.4);
  pool.release(1);
  EXPECT_EQ(pool.free_count(), 10);
  EXPECT_TRUE(pool.nodes_of(1).empty());
}

TEST(NodePool, OwnershipIsTracked) {
  NodePool pool(10);
  pool.allocate(7, 3);
  int owned = 0;
  for (std::int64_t n = 0; n < pool.total(); ++n) {
    if (pool.owner_of(n) == 7) ++owned;
  }
  EXPECT_EQ(owned, 3);
  for (const std::int64_t n : pool.nodes_of(7)) {
    EXPECT_EQ(pool.owner_of(n), 7);
  }
}

TEST(NodePool, FreeNodesHaveNoOwner) {
  NodePool pool(5);
  pool.allocate(1, 2);
  int free_nodes = 0;
  for (std::int64_t n = 0; n < pool.total(); ++n) {
    if (pool.owner_of(n) == kNoJob) ++free_nodes;
  }
  EXPECT_EQ(free_nodes, 3);
}

TEST(NodePool, CanAllocateChecksCapacity) {
  NodePool pool(10);
  pool.allocate(1, 7);
  EXPECT_TRUE(pool.can_allocate(3));
  EXPECT_FALSE(pool.can_allocate(4));
}

TEST(NodePool, OverAllocationThrows) {
  NodePool pool(10);
  EXPECT_THROW(pool.allocate(1, 11), Error);
  pool.allocate(1, 10);
  EXPECT_THROW(pool.allocate(2, 1), Error);
}

TEST(NodePool, DoubleAllocationThrows) {
  NodePool pool(10);
  pool.allocate(1, 2);
  EXPECT_THROW(pool.allocate(1, 2), Error);
}

TEST(NodePool, ReleaseWithoutAllocationThrows) {
  NodePool pool(10);
  EXPECT_THROW(pool.release(1), Error);
}

TEST(NodePool, ReallocationAfterReleaseReusesNodes) {
  NodePool pool(4);
  pool.allocate(1, 4);
  pool.release(1);
  pool.allocate(2, 4);
  EXPECT_EQ(pool.free_count(), 0);
  for (std::int64_t n = 0; n < pool.total(); ++n) {
    EXPECT_EQ(pool.owner_of(n), 2);
  }
}

TEST(NodePool, MultipleJobsDisjointNodes) {
  NodePool pool(10);
  pool.allocate(1, 3);
  pool.allocate(2, 3);
  pool.allocate(3, 4);
  EXPECT_EQ(pool.job_count(), 3u);
  EXPECT_EQ(pool.free_count(), 0);
  for (const std::int64_t n : pool.nodes_of(1)) {
    EXPECT_EQ(pool.owner_of(n), 1);
  }
  for (const std::int64_t n : pool.nodes_of(2)) {
    EXPECT_EQ(pool.owner_of(n), 2);
  }
}

TEST(NodePool, InvalidQueriesThrow) {
  NodePool pool(10);
  EXPECT_THROW(pool.owner_of(-1), Error);
  EXPECT_THROW(pool.owner_of(10), Error);
  EXPECT_THROW(NodePool(0), Error);
  EXPECT_THROW(pool.allocate(-1, 1), Error);
  EXPECT_THROW(pool.allocate(1, 0), Error);
}

TEST(NodePool, AssignmentFollowsTheFreeStack) {
  NodePool pool(10);
  pool.allocate(1, 3);
  pool.allocate(2, 2);
  EXPECT_EQ(pool.nodes_of(1), (std::vector<std::int64_t>{0, 1, 2}));
  EXPECT_EQ(pool.nodes_of(2), (std::vector<std::int64_t>{3, 4}));
  // Job 1's nodes go back on the stack in order, so 2 is on top; the next
  // allocation pops them last-first and then continues with fresh node 5.
  pool.release(1);
  pool.allocate(3, 4);
  EXPECT_EQ(pool.nodes_of(3), (std::vector<std::int64_t>{2, 1, 0, 5}));
}

/// Reference pool with one stack entry per node: allocate pops `count`
/// nodes one at a time, release pushes the job's nodes back in assignment
/// order. Node order decides failure victims, so the pool must match it.
class PerNodeStack {
 public:
  explicit PerNodeStack(std::int64_t n)
      : owner_(static_cast<std::size_t>(n), kNoJob) {
    for (std::int64_t i = n - 1; i >= 0; --i) free_.push_back(i);
  }

  void allocate(JobId job, std::int64_t count) {
    std::vector<std::int64_t>& nodes = held_[job];
    for (std::int64_t k = 0; k < count; ++k) {
      nodes.push_back(free_.back());
      free_.pop_back();
      owner_[static_cast<std::size_t>(nodes.back())] = job;
    }
  }

  void release(JobId job) {
    for (const std::int64_t n : held_[job]) {
      free_.push_back(n);
      owner_[static_cast<std::size_t>(n)] = kNoJob;
    }
    held_.erase(job);
  }

  std::int64_t free_count() const {
    return static_cast<std::int64_t>(free_.size());
  }
  const std::map<JobId, std::vector<std::int64_t>>& held() const {
    return held_;
  }
  const std::vector<JobId>& owners() const { return owner_; }

 private:
  std::vector<std::int64_t> free_;
  std::vector<JobId> owner_;
  std::map<JobId, std::vector<std::int64_t>> held_;
};

void expect_same(const NodePool& pool, const PerNodeStack& oracle,
                 std::size_t step) {
  ASSERT_EQ(pool.free_count(), oracle.free_count()) << "step " << step;
  ASSERT_EQ(pool.job_count(), oracle.held().size()) << "step " << step;
  for (const auto& [job, nodes] : oracle.held()) {
    ASSERT_EQ(pool.nodes_of(job), nodes) << "job " << job << ", step " << step;
  }
  const std::vector<JobId>& owners = oracle.owners();
  for (std::size_t n = 0; n < owners.size(); ++n) {
    ASSERT_EQ(pool.owner_of(static_cast<std::int64_t>(n)), owners[n])
        << "node " << n << ", step " << step;
  }
}

/// Seeded allocate/release sequence: each step draws a job size, releases
/// random live jobs until it fits, then allocates; one step in four also
/// releases a random live job on its own, so the free stack fragments.
void run_against_oracle(std::int64_t nodes,
                        const std::vector<std::int64_t>& sizes,
                        std::size_t steps, std::uint64_t seed) {
  NodePool pool(nodes);
  PerNodeStack oracle(nodes);
  Rng rng(seed);
  std::vector<JobId> live;
  JobId next = 0;
  const auto release_random = [&] {
    const auto i = static_cast<std::size_t>(rng.uniform_index(live.size()));
    pool.release(live[i]);
    oracle.release(live[i]);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
  };
  for (std::size_t step = 0; step < steps; ++step) {
    const std::int64_t size = sizes[rng.uniform_index(sizes.size())];
    while (!pool.can_allocate(size)) release_random();
    pool.allocate(next, size);
    oracle.allocate(next, size);
    live.push_back(next++);
    if (rng.uniform_index(4) == 0) release_random();
    expect_same(pool, oracle, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(NodePool, MatchesPerNodeStackOnCieloSizedPool) {
  // Cielo's 17,888 failure units under an APEX-like mix: EAP-sized jobs
  // drawn twice as often as Silverton-, VPIC- or LAP-sized ones, plus odd
  // small jobs that leave one-node fragments behind.
  const std::vector<std::int64_t> mix = {1024, 1024, 2048, 1875, 256, 3, 1, 17};
  for (const std::uint64_t seed : {1u, 7u, 11u}) {
    SCOPED_TRACE(seed);
    run_against_oracle(17888, mix, 300, seed);
  }
}

TEST(NodePool, MatchesPerNodeStackOnSmallPools) {
  for (const std::int64_t nodes : {1, 2, 3, 5, 8, 13}) {
    for (const std::uint64_t seed : {2u, 3u, 5u}) {
      SCOPED_TRACE(::testing::Message() << nodes << " nodes, seed " << seed);
      std::vector<std::int64_t> sizes = {1, 1, 1};
      for (std::int64_t s = 2; s <= nodes; ++s) sizes.push_back(s);
      run_against_oracle(nodes, sizes, 400, seed);
    }
  }
}

}  // namespace
}  // namespace coopcr
