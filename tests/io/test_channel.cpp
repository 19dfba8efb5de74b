// Unit tests for the processor-sharing channel: exact transfer times under
// the linear interference model (paper §2/§3.1 worked example), baseline
// no-interference mode, the adversarial degradation model, and aborts.

#include "io/channel.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace coopcr {
namespace {

/// Records every completion as (token, time), in delivery order.
struct Recorder final : FlowSink {
  explicit Recorder(sim::Engine& e) : engine(e) {}
  void on_flow_complete(FlowId, std::uint64_t token) override {
    done.emplace_back(token, engine.now());
  }
  /// Completion time of the flow started with `token`; -1 if none.
  double at(std::uint64_t token) const {
    for (const auto& [t, when] : done) {
      if (t == token) return when;
    }
    return -1.0;
  }
  sim::Engine& engine;
  std::vector<std::pair<std::uint64_t, double>> done;
};

TEST(Channel, SingleFlowFullBandwidth) {
  sim::Engine engine;
  Recorder sink(engine);
  SharedChannel channel(engine, sink, 100.0);  // 100 B/s
  channel.start(500.0, 4, 7);
  engine.run();
  ASSERT_EQ(sink.done.size(), 1u);
  EXPECT_EQ(sink.done[0].first, 7u);  // the token comes back
  EXPECT_DOUBLE_EQ(sink.done[0].second, 5.0);
  EXPECT_DOUBLE_EQ(channel.bytes_transferred(), 500.0);
}

TEST(Channel, PaperTwoJobExample) {
  // §3.2: two simultaneous transfers of volume V under the linear model take
  // 2V/β each (both complete at the same instant).
  sim::Engine engine;
  Recorder sink(engine);
  SharedChannel channel(engine, sink, 100.0);
  channel.start(500.0, 8, 1);
  channel.start(500.0, 8, 2);
  engine.run();
  ASSERT_EQ(sink.done.size(), 2u);
  // Simultaneous completions reach the sink in admission order.
  EXPECT_EQ(sink.done[0].first, 1u);
  EXPECT_EQ(sink.done[1].first, 2u);
  EXPECT_DOUBLE_EQ(sink.done[0].second, 10.0);
  EXPECT_DOUBLE_EQ(sink.done[1].second, 10.0);
}

TEST(Channel, WeightedSharing) {
  // Weights 3:1 — the heavy flow gets 75 B/s, the light one 25 B/s.
  sim::Engine engine;
  Recorder sink(engine);
  SharedChannel channel(engine, sink, 100.0);
  constexpr std::uint64_t kHeavy = 1;
  constexpr std::uint64_t kLight = 2;
  channel.start(300.0, 3, kHeavy);
  channel.start(300.0, 1, kLight);
  engine.run();
  // Heavy: 300 B at 75 B/s = 4 s. Light: 100 B by t=4 (25 B/s), then full
  // bandwidth for the remaining 200 B -> 4 + 2 = 6 s.
  EXPECT_DOUBLE_EQ(sink.at(kHeavy), 4.0);
  EXPECT_DOUBLE_EQ(sink.at(kLight), 6.0);
}

TEST(Channel, StaggeredAdmissionRecomputesRates) {
  sim::Engine engine;
  Recorder sink(engine);
  SharedChannel channel(engine, sink, 100.0);
  channel.start(400.0, 1, 1);
  engine.at(2.0, [&] { channel.start(300.0, 1, 2); });
  engine.run();
  // First: 200 B alone (t=0..2), then 50 B/s. Remaining 200 B -> done at 6.
  EXPECT_DOUBLE_EQ(sink.at(1), 6.0);
  // Second: 200 B at 50 B/s (t=2..6), then 100 B at full -> done at 7.
  EXPECT_DOUBLE_EQ(sink.at(2), 7.0);
}

TEST(Channel, NoInterferenceModelIgnoresConcurrency) {
  sim::Engine engine;
  Recorder sink(engine);
  SharedChannel channel(engine, sink, 100.0, InterferenceModel::kNone);
  channel.start(500.0, 2, 1);
  channel.start(200.0, 9, 2);
  engine.run();
  ASSERT_EQ(sink.done.size(), 2u);
  EXPECT_DOUBLE_EQ(sink.at(2), 2.0);  // 200 B at full bandwidth
  EXPECT_DOUBLE_EQ(sink.at(1), 5.0);  // 500 B at full bandwidth
}

TEST(Channel, DegradingModelShrinksAggregate) {
  // alpha = 1: two flows -> aggregate B/2, equal weights -> B/4 each.
  sim::Engine engine;
  Recorder sink(engine);
  SharedChannel channel(engine, sink, 100.0, InterferenceModel::kDegrading,
                        1.0);
  channel.start(100.0, 1, 1);
  channel.start(100.0, 1, 2);
  engine.run();
  ASSERT_EQ(sink.done.size(), 2u);
  EXPECT_DOUBLE_EQ(sink.done[0].second, 4.0);
  EXPECT_DOUBLE_EQ(sink.done[1].second, 4.0);
}

TEST(Channel, AbortRemovesFlowAndSpeedsOthers) {
  sim::Engine engine;
  Recorder sink(engine);
  SharedChannel channel(engine, sink, 100.0);
  constexpr std::uint64_t kVictim = 1;
  constexpr std::uint64_t kSurvivor = 2;
  const FlowId victim = channel.start(1000.0, 1, kVictim);
  channel.start(300.0, 1, kSurvivor);
  engine.at(2.0, [&] { EXPECT_TRUE(channel.abort(victim)); });
  engine.run();
  // Survivor: 100 B shared (t=0..2), then full bandwidth for 200 B -> t=4.
  EXPECT_DOUBLE_EQ(sink.at(kSurvivor), 4.0);
  EXPECT_DOUBLE_EQ(sink.at(kVictim), -1.0);  // the sink never hears of it
  EXPECT_DOUBLE_EQ(channel.bytes_transferred(), 300.0);
}

TEST(Channel, AbortUnknownFlowReturnsFalse) {
  sim::Engine engine;
  Recorder sink(engine);
  SharedChannel channel(engine, sink, 100.0);
  EXPECT_FALSE(channel.abort(12345));
}

TEST(Channel, ZeroVolumeFlowCompletesImmediately) {
  sim::Engine engine;
  Recorder sink(engine);
  SharedChannel channel(engine, sink, 100.0);
  engine.at(3.0, [&] { channel.start(0.0, 1, 1); });
  engine.run();
  EXPECT_DOUBLE_EQ(sink.at(1), 3.0);
}

TEST(Channel, SinkCanStartFollowUpFlows) {
  // The sink runs after the channel's state is consistent, so it may start
  // the next transfer from inside the notification (the serial token pump).
  sim::Engine engine;
  struct Chain final : FlowSink {
    sim::Engine* engine = nullptr;
    SharedChannel* channel = nullptr;
    std::vector<double> done;
    void on_flow_complete(FlowId, std::uint64_t token) override {
      done.push_back(engine->now());
      if (token < 3) channel->start(100.0, 1, token + 1);
    }
  } chain;
  SharedChannel channel(engine, chain, 100.0);
  chain.engine = &engine;
  chain.channel = &channel;
  channel.start(100.0, 1, 1);
  engine.run();
  EXPECT_EQ(chain.done, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(channel.active(), 0u);
}

TEST(Channel, RateAndRemainingQueries) {
  sim::Engine engine;
  Recorder sink(engine);
  SharedChannel channel(engine, sink, 100.0);
  const FlowId a = channel.start(400.0, 1, 1);
  const FlowId b = channel.start(400.0, 3, 2);
  EXPECT_DOUBLE_EQ(channel.rate_of(a), 25.0);
  EXPECT_DOUBLE_EQ(channel.rate_of(b), 75.0);
  EXPECT_DOUBLE_EQ(channel.remaining_of(a), 400.0);
  EXPECT_EQ(channel.active(), 2u);
  EXPECT_DOUBLE_EQ(channel.aggregate_rate(), 100.0);
  EXPECT_DOUBLE_EQ(channel.rate_of(999), 0.0);
}

TEST(Channel, BusyTimeTracksActivity) {
  sim::Engine engine;
  Recorder sink(engine);
  SharedChannel channel(engine, sink, 100.0);
  channel.start(200.0, 1, 1);  // busy t=0..2
  engine.at(5.0, [&] {
    channel.start(100.0, 1, 2);  // busy t=5..6
  });
  engine.run();
  EXPECT_NEAR(channel.busy_time(), 3.0, 1e-9);
}

TEST(Channel, LongHaulNumericalRobustness) {
  // Petabyte-scale volumes over multi-day spans with repeated rate changes:
  // all flows must complete without assertion failures (this regression-tests
  // the expected-completion mechanism against double rounding).
  sim::Engine engine;
  Recorder sink(engine);
  SharedChannel channel(engine, sink, units::gb_per_s(40));
  for (int i = 0; i < 50; ++i) {
    engine.at(static_cast<double>(i) * 3601.0, [&, i] {
      channel.start(units::terabytes(5 + (i % 13)), 256 + i,
                    static_cast<std::uint64_t>(i));
    });
  }
  engine.run();
  EXPECT_EQ(sink.done.size(), 50u);
  EXPECT_EQ(channel.active(), 0u);
}

TEST(Channel, RejectsInvalidArguments) {
  sim::Engine engine;
  Recorder sink(engine);
  EXPECT_THROW(SharedChannel(engine, sink, 0.0), Error);
  EXPECT_THROW(
      SharedChannel(engine, sink, 10.0, InterferenceModel::kLinear, -1.0),
      Error);
  SharedChannel channel(engine, sink, 100.0);
  EXPECT_THROW(channel.start(-1.0, 1, 1), Error);
  EXPECT_THROW(channel.start(1.0, 0, 1), Error);
}

}  // namespace
}  // namespace coopcr
