// The coordinator's pieces, each driven without a worker process: the
// inbound frame seam (dist/transport.hpp InboundFrames) fed real
// write_frame bytes through a pipe, and the journal sink
// (dist/journal.hpp JournalSink) resuming a journal written record by
// record with JournalWriter.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coopcr.hpp"
#include "dist/fault_injection.hpp"
#include "dist/journal.hpp"
#include "dist/transport.hpp"
#include "dist/wire.hpp"

namespace coopcr::dist {
namespace {

// --- inbound frame seam -----------------------------------------------------

/// The bytes write_frame puts on the wire for frames whose one-byte
/// payloads are 1, 2, ..., count (frame 1 is a kHello, the rest kResults).
std::vector<std::uint8_t> wire_bytes(int count) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  for (int i = 1; i <= count; ++i) {
    write_frame(fds[1], i == 1 ? MsgType::kHello : MsgType::kResult,
                {static_cast<std::uint8_t>(i)});
  }
  ::close(fds[1]);
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[256];
  for (ssize_t n; (n = ::read(fds[0], chunk, sizeof(chunk))) > 0;) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  ::close(fds[0]);
  return bytes;
}

/// Payload byte of the next frame the stream gives up, or 0 for none.
int next_id(InboundFrames& in) {
  const std::optional<Frame> frame = in.next();
  return frame ? frame->payload.at(0) : 0;
}

TEST(InboundFrames, UnfaultedFramesPassThroughInOrder) {
  FaultPlan plan;
  plan.drop_frame(/*worker=*/1, 2);  // another worker's fault
  InboundFrames in(plan, /*worker=*/0);
  const std::vector<std::uint8_t> bytes = wire_bytes(3);
  // Byte by byte: a frame materialises only once its last byte arrives.
  std::vector<int> seen;
  for (const std::uint8_t byte : bytes) {
    in.feed(&byte, 1);
    while (const int id = next_id(in)) seen.push_back(id);
  }
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(in.cut());
  EXPECT_FALSE(in.holding());
}

TEST(InboundFrames, DropAndTruncateCutTheStream) {
  for (const bool truncate : {false, true}) {
    SCOPED_TRACE(truncate ? "trunc" : "drop");
    FaultPlan plan;
    if (truncate) {
      plan.truncate_frame(0, 2);
    } else {
      plan.drop_frame(0, 2);
    }
    InboundFrames in(plan, 0);
    const std::vector<std::uint8_t> bytes = wire_bytes(3);
    in.feed(bytes.data(), bytes.size());
    EXPECT_EQ(next_id(in), 1);
    EXPECT_EQ(next_id(in), 0);  // frame 2 is lost, frame 3 never surfaces
    EXPECT_TRUE(in.cut());
    in.feed(bytes.data(), bytes.size());
    EXPECT_EQ(next_id(in), 0);  // nothing past a cut is trusted
    EXPECT_TRUE(plan.actions()[0].fired);
  }
}

TEST(InboundFrames, DelayReleasesTheFrameAfterExactlyRRounds) {
  FaultPlan plan;
  plan.delay_frame(0, 2, /*rounds=*/3);
  InboundFrames in(plan, 0);
  const std::vector<std::uint8_t> bytes = wire_bytes(3);
  in.feed(bytes.data(), bytes.size());
  EXPECT_EQ(next_id(in), 1);
  EXPECT_EQ(next_id(in), 3);  // the frame behind the held one moves on
  EXPECT_EQ(next_id(in), 0);
  EXPECT_TRUE(in.holding());
  for (int round = 1; round < 3; ++round) {
    in.tick();
    EXPECT_EQ(next_id(in), 0) << "released early, after round " << round;
  }
  in.tick();
  EXPECT_EQ(next_id(in), 2);
  EXPECT_FALSE(in.holding());
  EXPECT_FALSE(in.cut());
}

// --- journal sink -----------------------------------------------------------

class JournalSinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("coopcr_sink_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    std::filesystem::remove(path_);
    ScenarioBuilder base = ScenarioBuilder::cielo_apex(/*seed=*/99)
                               .min_makespan(units::days(6))
                               .segment(units::days(1), units::days(5));
    MonteCarloOptions options;
    options.replicas = 2;
    spec_ = std::make_unique<exp::ExperimentSpec>(base, "sink_2x1");
    spec_->pfs_bandwidth_axis({60, 100})
        .strategies({oblivious_daly(), least_waste()})
        .options(options);
    points_ = spec_->expand();
    for (const exp::GridPoint& point : points_) {
      campaigns_.push_back(std::make_unique<MonteCarloCampaign>(
          point.scenario, spec_->strategy_set(), options));
    }
  }
  void TearDown() override { std::filesystem::remove(path_); }

  JournalHeader header() const {
    return journal_header(*spec_, points_, /*replicas=*/2);
  }

  static JournalRecord unit(std::uint32_t point, std::uint32_t replica,
                            double marker) {
    JournalRecord record;
    record.point = point;
    record.replica = replica;
    record.slot.baseline_useful = marker;
    record.slot.per_strategy.resize(2);
    return record;
  }

  std::string path_;
  std::unique_ptr<exp::ExperimentSpec> spec_;
  std::vector<exp::GridPoint> points_;
  std::vector<std::unique_ptr<MonteCarloCampaign>> campaigns_;
};

TEST_F(JournalSinkTest, ResumeRegrowsInstallsOnceAndNumbersRoundsOn) {
  {
    JournalWriter writer = JournalWriter::create(path_, header());
    writer.append_record(unit(0, 1, 1.0));
    JournalRecord round;
    round.kind = JournalRecord::Kind::kRound;
    round.round = 1;
    round.round_replicas = {3, 2};
    writer.append_record(round);
    writer.append_record(unit(0, 2, 2.0));
    writer.append_record(unit(0, 2, 3.0));  // duplicate: first copy wins
    writer.append_record(unit(1, 0, 4.0));
  }

  JournalSink sink(path_, /*resume=*/true, header(), campaigns_);
  EXPECT_TRUE(sink.enabled());
  EXPECT_EQ(campaigns_[0]->tasks(), 3);
  EXPECT_EQ(campaigns_[1]->tasks(), 2);
  EXPECT_FALSE(campaigns_[0]->slot_done(0));
  EXPECT_EQ(campaigns_[0]->slot(1).baseline_useful, 1.0);
  EXPECT_EQ(campaigns_[0]->slot(2).baseline_useful, 2.0);
  EXPECT_EQ(campaigns_[1]->slot(0).baseline_useful, 4.0);
  EXPECT_FALSE(campaigns_[1]->slot_done(1));
  EXPECT_EQ(sink.rounds(), 1u);

  sink.append_round({4, 2});
  sink.close();
  const JournalReplay replay = replay_journal(path_, header());
  ASSERT_EQ(replay.records.size(), 6u);
  const JournalRecord& next = replay.records.back();
  EXPECT_EQ(next.kind, JournalRecord::Kind::kRound);
  EXPECT_EQ(next.round, 2u);
  EXPECT_EQ(next.round_replicas, (std::vector<std::uint32_t>{4, 2}));
}

TEST_F(JournalSinkTest, FreshRefusesAnExistingFileAndNoPathRecordsNothing) {
  { JournalWriter writer = JournalWriter::create(path_, header()); }
  EXPECT_THROW(JournalSink(path_, /*resume=*/false, header(), campaigns_),
               Error);

  JournalSink none("", /*resume=*/false, header(), campaigns_);
  EXPECT_FALSE(none.enabled());
  EXPECT_EQ(none.fd(), -1);
  none.append_unit(0, 0, unit(0, 0, 1.0).slot);
  none.append_round({3, 3});
  EXPECT_EQ(none.rounds(), 0u);
  EXPECT_FALSE(campaigns_[0]->slot_done(0));
}

}  // namespace
}  // namespace coopcr::dist
