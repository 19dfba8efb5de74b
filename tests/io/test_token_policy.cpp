// Unit tests for the token policies, with the Least-Waste expected-waste
// formulas (paper Eq. (1) and Eq. (2)) pinned numerically.

#include "io/token_policy.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/error.hpp"
#include "util/units.hpp"

namespace coopcr {
namespace {

PendingEntry io_entry(RequestId id, IoKind kind, double volume,
                      std::int64_t nodes, sim::Time enqueued) {
  PendingEntry e;
  e.id = id;
  e.request.job = static_cast<JobId>(id);
  e.request.kind = kind;
  e.request.volume = volume;
  e.request.nodes = nodes;
  e.enqueued_at = enqueued;
  return e;
}

PendingEntry ckpt_entry(RequestId id, double volume, std::int64_t nodes,
                        sim::Time enqueued, sim::Time last_ckpt,
                        double recovery) {
  PendingEntry e = io_entry(id, IoKind::kCheckpoint, volume, nodes, enqueued);
  e.last_checkpoint_end = last_ckpt;
  e.recovery_seconds = recovery;
  return e;
}

TEST(Fcfs, PicksOldestRequest) {
  FcfsPolicy policy;
  std::vector<PendingEntry> pending = {
      io_entry(1, IoKind::kInput, 100.0, 4, 5.0),
      io_entry(2, IoKind::kOutput, 100.0, 4, 2.0),
      io_entry(3, IoKind::kInput, 100.0, 4, 8.0),
  };
  EXPECT_EQ(policy.select(pending, 10.0), 1u);
}

TEST(Fcfs, EmptyPendingThrows) {
  FcfsPolicy policy;
  std::vector<PendingEntry> pending;
  EXPECT_THROW(policy.select(pending, 0.0), Error);
}

TEST(SmallestFirst, PicksSmallestVolume) {
  SmallestFirstPolicy policy;
  std::vector<PendingEntry> pending = {
      io_entry(1, IoKind::kInput, 300.0, 4, 0.0),
      io_entry(2, IoKind::kOutput, 100.0, 4, 1.0),
      io_entry(3, IoKind::kInput, 200.0, 4, 2.0),
  };
  EXPECT_EQ(policy.select(pending, 10.0), 1u);
}

TEST(Random, SelectionsAreInRangeAndCoverAll) {
  RandomPolicy policy(123);
  std::vector<PendingEntry> pending = {
      io_entry(1, IoKind::kInput, 100.0, 4, 0.0),
      io_entry(2, IoKind::kOutput, 100.0, 4, 1.0),
      io_entry(3, IoKind::kInput, 100.0, 4, 2.0),
  };
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) {
    const std::size_t pick = policy.select(pending, 10.0);
    ASSERT_LT(pick, pending.size());
    seen.insert(pick);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(IsIoCandidate, ClassifiesKinds) {
  EXPECT_TRUE(is_io_candidate(io_entry(1, IoKind::kInput, 1, 1, 0)));
  EXPECT_TRUE(is_io_candidate(io_entry(1, IoKind::kOutput, 1, 1, 0)));
  EXPECT_TRUE(is_io_candidate(io_entry(1, IoKind::kRecovery, 1, 1, 0)));
  EXPECT_TRUE(is_io_candidate(io_entry(1, IoKind::kRoutine, 1, 1, 0)));
  EXPECT_FALSE(is_io_candidate(ckpt_entry(1, 1, 1, 0, 0, 0)));
}

// --- Eq. (1): waste of granting an IO-candidate --------------------------------

TEST(LeastWaste, EquationOneMatchesHandComputation) {
  // Bandwidth 100 B/s, µ_ind = 1000 s.
  // Candidate 0 (selected): IO, volume 500 B -> v = 5 s.
  // Candidate 1: IO, q = 2, enqueued 4 s ago (d = 4).
  // Candidate 2: Ckpt, q = 3, last ckpt 7 s ago (d = 7), R = 2.
  // Eq. (1): W = v * [ q1 (d1 + v) + q2²/µ (R2 + d2 + v/2) ]
  //            = 5 * [ 2 (4 + 5) + 9/1000 (2 + 7 + 2.5) ]
  //            = 5 * [ 18 + 0.10350 ] = 90.51750
  LeastWastePolicy policy(1000.0, 100.0);
  const sim::Time now = 10.0;
  std::vector<PendingEntry> pending = {
      io_entry(1, IoKind::kOutput, 500.0, 4, 9.0),
      io_entry(2, IoKind::kInput, 100.0, 2, 6.0),
      ckpt_entry(3, 100.0, 3, 8.0, 3.0, 2.0),
  };
  EXPECT_NEAR(policy.waste_of(pending, 0, now), 90.5175, 1e-9);
}

// --- Eq. (2): waste of granting a checkpoint candidate --------------------------

TEST(LeastWaste, EquationTwoMatchesHandComputation) {
  // Same setting; candidate 2 (checkpoint, volume 100 B -> C = 1 s) selected.
  // Eq. (2): W = C * [ q0 (d0 + C) + q1 (d1 + C) ]   (no other ckpt cand.)
  //   d0 = 10 - 9 = 1, d1 = 10 - 6 = 4
  //   W = 1 * [ 4 (1 + 1) + 2 (4 + 1) ] = 18
  LeastWastePolicy policy(1000.0, 100.0);
  const sim::Time now = 10.0;
  std::vector<PendingEntry> pending = {
      io_entry(1, IoKind::kOutput, 500.0, 4, 9.0),
      io_entry(2, IoKind::kInput, 100.0, 2, 6.0),
      ckpt_entry(3, 100.0, 3, 8.0, 3.0, 2.0),
  };
  EXPECT_NEAR(policy.waste_of(pending, 2, now), 18.0, 1e-9);
}

TEST(LeastWaste, TwoCheckpointCandidatesChargeEachOther) {
  // Two checkpoint candidates, no IO candidates.
  // Select 0 (C = 2 s): W = 2 * [ q1²/µ (R1 + d1 + 1) ]
  //   q1 = 4, µ = 500, R1 = 3, d1 = now - 2 = 8 -> W = 2 * 16/500 * 12 = 0.768
  LeastWastePolicy policy(500.0, 100.0);
  std::vector<PendingEntry> pending = {
      ckpt_entry(1, 200.0, 2, 5.0, 4.0, 1.0),
      ckpt_entry(2, 400.0, 4, 6.0, 2.0, 3.0),
  };
  EXPECT_NEAR(policy.waste_of(pending, 0, 10.0), 0.768, 1e-12);
  // Select 1 (C = 4 s): W = 4 * [ q0²/µ (R0 + d0 + 2) ]
  //   q0 = 2, R0 = 1, d0 = 10 - 4 = 6 -> W = 4 * 4/500 * 9 = 0.288
  EXPECT_NEAR(policy.waste_of(pending, 1, 10.0), 0.288, 1e-12);
  // The second candidate inflicts less waste and must win.
  EXPECT_EQ(policy.select(pending, 10.0), 1u);
}

TEST(LeastWaste, PrefersSmallRequestWhenOthersWait) {
  // A short transfer delays everyone less than a long one.
  LeastWastePolicy policy(units::years(2), units::gb_per_s(40));
  std::vector<PendingEntry> pending = {
      io_entry(1, IoKind::kOutput, units::terabytes(60), 4096, 0.0),
      io_entry(2, IoKind::kOutput, units::gigabytes(10), 4096, 0.0),
      io_entry(3, IoKind::kInput, units::terabytes(5), 2048, 0.0),
  };
  EXPECT_EQ(policy.select(pending, 100.0), 1u);
}

TEST(LeastWaste, SingleCandidateAlwaysSelected) {
  LeastWastePolicy policy(1000.0, 100.0);
  std::vector<PendingEntry> pending = {
      ckpt_entry(1, 100.0, 3, 0.0, 0.0, 1.0)};
  EXPECT_EQ(policy.select(pending, 5.0), 0u);
  // With no other candidates the inflicted waste is zero.
  EXPECT_DOUBLE_EQ(policy.waste_of(pending, 0, 5.0), 0.0);
}

TEST(LeastWaste, TieBreaksByAgeThenId) {
  // Two identical zero-volume candidates produce identical (zero) waste;
  // the older request must win.
  LeastWastePolicy policy(1000.0, 100.0);
  std::vector<PendingEntry> pending = {
      io_entry(5, IoKind::kInput, 0.0, 2, 4.0),
      io_entry(3, IoKind::kInput, 0.0, 2, 1.0),
  };
  EXPECT_EQ(policy.select(pending, 10.0), 1u);
}

TEST(LeastWaste, MarginalVariantDropsDurationFactorOnIoTerm) {
  // Same layout as EquationOneMatchesHandComputation:
  // marginal W = q1 (d1 + v) + v * q2²/µ (R2 + d2 + v/2)
  //            = 18 + 5 * 0.10350 / 5... careful: ckpt term keeps the
  // duration factor: 18 + 5 * (9/1000)(11.5) = 18 + 0.5175 = 18.5175.
  LeastWastePolicy policy(1000.0, 100.0, LeastWasteVariant::kMarginal);
  const sim::Time now = 10.0;
  std::vector<PendingEntry> pending = {
      io_entry(1, IoKind::kOutput, 500.0, 4, 9.0),
      io_entry(2, IoKind::kInput, 100.0, 2, 6.0),
      ckpt_entry(3, 100.0, 3, 8.0, 3.0, 2.0),
  };
  EXPECT_NEAR(policy.waste_of(pending, 0, now), 18.5175, 1e-9);
}

TEST(LeastWaste, RejectsBadConstruction) {
  EXPECT_THROW(LeastWastePolicy(0.0, 100.0), Error);
  EXPECT_THROW(LeastWastePolicy(100.0, 0.0), Error);
}

TEST(LeastWaste, WasteOfIndexOutOfRangeThrows) {
  LeastWastePolicy policy(1000.0, 100.0);
  std::vector<PendingEntry> pending = {
      io_entry(1, IoKind::kInput, 1.0, 1, 0.0)};
  EXPECT_THROW(policy.waste_of(pending, 5, 0.0), Error);
}

}  // namespace
}  // namespace coopcr
