// Deterministic fault-injection coverage: the FaultPlan grammar (including a
// seeded mutation fuzz of FaultPlan::parse, the only way to script a kill or
// a resize) and knob errors, and one pinned byte-identity test per recovery
// mechanism — respawn, elastic resize (scripted and signal-driven),
// heartbeat stall detection, frame drop/truncate/delay, journal tear and
// journal flip — each asserting the final report matches the fault-free
// in-process run byte for byte — plus the cases that two units in flight
// per worker open: a kill or a shrink with both units out, an overtaken
// delayed result, and a rogue result for a unit not in flight. The
// randomized closure over schedules lives in test_fault_soak.cpp.

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coopcr.hpp"
#include "dist/fault_injection.hpp"
#include "dist/journal.hpp"
#include "dist/wire.hpp"

namespace coopcr {
namespace {

ScenarioBuilder tiny_base() {
  return ScenarioBuilder::cielo_apex(/*seed=*/99)
      .min_makespan(units::days(6))
      .segment(units::days(1), units::days(5));
}

exp::ExperimentSpec grid_spec(int replicas = 3) {
  exp::ExperimentSpec spec(tiny_base(), "fault_grid_3x2");
  MonteCarloOptions options;
  options.replicas = replicas;
  spec.pfs_bandwidth_axis({60, 80, 100})
      .node_mtbf_axis({2, 8})
      .strategies({oblivious_daly(), least_waste()})
      .options(options);
  return spec;
}

std::string csv_bytes(const exp::ExperimentReport& report) {
  std::ostringstream oss;
  report.write_csv(oss);
  return oss.str();
}

std::string json_bytes(const exp::ExperimentReport& report) {
  std::ostringstream oss;
  report.write_json(oss);
  return oss.str();
}

exp::ExperimentReport reference_report(const exp::ExperimentSpec& spec) {
  exp::SweepRunner runner(/*threads=*/1);
  return runner.run(spec);
}

// --- a rogue exec-mode worker ----------------------------------------------
//
// With kRogueWorkerEnv set, this test binary, exec'd as a dist worker,
// answers its first unit with a result labelled two replicas further on —
// a unit the coordinator never handed it. It runs from a global test
// environment, before any test, and exits there.

constexpr const char* kRogueWorkerEnv = "COOPCR_TEST_ROGUE_WORKER";

void serve_as_rogue_worker() {
  const exp::ExperimentSpec spec = grid_spec();
  const std::vector<exp::GridPoint> points = spec.expand();
  dist::HelloMsg hello;
  hello.spec_digest = dist::spec_digest(spec, points);
  dist::write_frame(dist::kWorkerOutFd, dist::MsgType::kHello,
                    dist::encode_hello(hello));
  const std::optional<dist::Frame> frame = dist::read_frame(dist::kWorkerInFd);
  if (!frame || frame->type != dist::MsgType::kUnit) return;
  const dist::UnitMsg unit = dist::decode_unit(frame->payload);
  MonteCarloCampaign campaign(points[unit.point].scenario,
                              spec.strategy_set(), spec.campaign_options());
  campaign.run_replica_task(static_cast<int>(unit.replica));
  dist::ResultMsg result;
  result.point = unit.point;
  result.replica = unit.replica + 2;
  result.slot = campaign.slot(static_cast<int>(unit.replica));
  dist::write_frame(dist::kWorkerOutFd, dist::MsgType::kResult,
                    dist::encode_result(result));
  while (dist::read_frame(dist::kWorkerInFd)) {
  }
}

class RogueWorkerEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    if (std::getenv(kRogueWorkerEnv) == nullptr) return;
    try {
      serve_as_rogue_worker();
    } catch (const std::exception&) {
      // The coordinator hung up mid-frame: a worker just exits.
    }
    std::_Exit(0);
  }
};

[[maybe_unused]] ::testing::Environment* const kRogueWorker =
    ::testing::AddGlobalTestEnvironment(new RogueWorkerEnvironment);

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    journal_ = (std::filesystem::temp_directory_path() /
                ("coopcr_fault_test_" + std::to_string(::getpid()) + "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name() +
                 ".journal"))
                   .string();
    std::filesystem::remove(journal_);
  }
  void TearDown() override { std::filesystem::remove(journal_); }

  std::string journal_;
};

// --- plan grammar -----------------------------------------------------------

TEST(FaultPlanParse, ParsesEveryActionKind) {
  const dist::FaultPlan plan = dist::FaultPlan::parse(
      "kill=1@4,stall=0@2:500,drop=2@3,trunc=0@5,delay=1@2:3,tear=6:32,"
      "flip=7:123,interrupt=9,resize=4@5",
      "--fault-plan");
  ASSERT_EQ(plan.actions().size(), 9u);
  EXPECT_EQ(plan.actions()[0].kind, dist::FaultKind::kKillWorker);
  EXPECT_EQ(plan.actions()[0].worker, 1);
  EXPECT_EQ(plan.actions()[0].after_units, 4);
  EXPECT_EQ(plan.actions()[1].kind, dist::FaultKind::kStallWorker);
  EXPECT_EQ(plan.actions()[1].stall_ms, 500);
  EXPECT_EQ(plan.actions()[2].kind, dist::FaultKind::kDropFrame);
  EXPECT_EQ(plan.actions()[2].frame, 3);
  EXPECT_EQ(plan.actions()[3].kind, dist::FaultKind::kTruncateFrame);
  EXPECT_EQ(plan.actions()[4].kind, dist::FaultKind::kDelayFrame);
  EXPECT_EQ(plan.actions()[4].delay_rounds, 3);
  EXPECT_EQ(plan.actions()[5].kind, dist::FaultKind::kTearJournal);
  EXPECT_EQ(plan.actions()[5].tear_bytes, 32);
  EXPECT_EQ(plan.actions()[6].kind, dist::FaultKind::kFlipJournalByte);
  EXPECT_EQ(plan.actions()[6].offset, 123u);
  EXPECT_EQ(plan.actions()[7].kind, dist::FaultKind::kInterrupt);
  EXPECT_EQ(plan.actions()[8].kind, dist::FaultKind::kResize);
  EXPECT_EQ(plan.actions()[8].shards, 4);
  EXPECT_TRUE(plan.touches_journal());
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(dist::FaultPlan::parse("", "--fault-plan").empty());
  EXPECT_FALSE(
      dist::FaultPlan::parse("kill=0@1", "--fault-plan").touches_journal());
}

TEST(FaultPlanParse, MalformedActionsThrowNamingTheKnob) {
  const std::vector<std::string> bad = {
      "launch=0@1",    // unknown action
      "kill=0",        // missing @trigger
      "kill=x@1",      // non-numeric worker
      "kill=0@",       // empty trigger
      "stall=0@1",     // missing :ms
      "stall=0@0:100",  // result number must be >= 1
      "drop=0@0",      // frame number must be >= 1
      "delay=0@2",     // missing :rounds
      "tear=5",        // missing :bytes
      "tear=5:0",      // bytes out of range
      "resize=0@3",    // zero shards
      "kill=0@1,,interrupt=2",  // empty segment
  };
  for (const std::string& text : bad) {
    try {
      dist::FaultPlan::parse(text, "--fault-plan");
      FAIL() << "expected parse to refuse: " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--fault-plan"), std::string::npos)
          << "error for '" << text << "' must name the knob: " << e.what();
    }
  }
}

TEST(FaultPlanParse, SingleShotHooksFireExactlyOnce) {
  dist::FaultPlan plan;
  plan.interrupt(3).kill_worker(1, 2).stall_worker(0, 1, 100).drop_frame(0, 2);
  EXPECT_TRUE(plan.take_due(1).empty());
  ASSERT_EQ(plan.take_due(3).size(), 2u);  // kill@2 and interrupt@3 both due
  EXPECT_TRUE(plan.take_due(3).empty());   // fired flags stick
  ASSERT_EQ(plan.take_stalls(0).size(), 1u);
  EXPECT_TRUE(plan.take_stalls(0).empty());
  EXPECT_FALSE(plan.take_frame_fault(0, 1).fired);
  EXPECT_TRUE(plan.take_frame_fault(0, 2).fired);
  EXPECT_FALSE(plan.take_frame_fault(0, 2).fired);
}

// --- grammar fuzz -----------------------------------------------------------

/// Seeded mutation fuzz of FaultPlan::parse. Starting from one valid action
/// per verb, each input takes a few random byte flips, inserts, deletes,
/// splices, runs of the grammar's separators and 20-digit integers. The
/// property: every input either parses — into exactly one action per
/// comma-separated segment — or throws coopcr::Error whose message opens
/// with the knob; no other exception type may escape.
class PlanFuzzer {
 public:
  explicit PlanFuzzer(std::uint64_t seed) : rng_(seed) {}

  void run(int inputs) {
    for (int i = 0; i < inputs; ++i) check(next_input());
  }

  int parsed() const { return parsed_; }
  int refused() const { return refused_; }

 private:
  static constexpr const char* kKnob = "--fault-plan";

  std::size_t below(std::size_t n) { return n == 0 ? 0 : rng_() % n; }

  std::string next_input() {
    static const std::vector<std::string> corpus = {
        "kill=1@4",    "stall=0@2:500", "drop=2@3",    "trunc=0@5",
        "delay=1@2:3", "tear=6:32",     "flip=7:123",  "interrupt=9",
        "resize=4@5"};
    std::string text = corpus[below(corpus.size())];
    const std::size_t mutations = 1 + below(4);
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t at = below(text.size() + 1);
      // Every draw is its own statement: argument evaluation order is
      // unspecified, and the pinned seeds must mean the same inputs on
      // every compiler.
      switch (below(6)) {
        case 0:  // flip one bit of one byte
          if (!text.empty()) {
            const std::size_t pos = below(text.size());
            text[pos] ^= static_cast<char>(1u << below(8));
          }
          break;
        case 1:  // insert a byte, biased toward the grammar's own alphabet
          text.insert(at, 1,
                      below(2) == 0 ? "=@:,0123456789ktsdrfiz"[below(22)]
                                    : static_cast<char>(below(256)));
          break;
        case 2:  // delete a run of bytes
          if (!text.empty()) {
            const std::size_t pos = below(text.size());
            text.erase(pos, 1 + below(3));
          }
          break;
        case 3: {  // splice: a prefix of this input onto a suffix of another
          const std::string& other = corpus[below(corpus.size())];
          const std::string joint = below(2) == 0 ? "," : "";
          text = text.substr(0, at) + joint + other.substr(below(other.size()));
          break;
        }
        case 4: {  // a run of one separator
          const std::size_t run = 1 + below(4);
          text.insert(at, run, "@:,="[below(4)]);
          break;
        }
        default: {  // a 20-digit integer
          std::string digits(20, '0');
          for (char& d : digits) d = static_cast<char>('0' + below(10));
          digits[0] = static_cast<char>('1' + below(9));
          text.insert(at, digits);
          break;
        }
      }
    }
    return text;
  }

  void check(const std::string& text) {
    try {
      const dist::FaultPlan plan = dist::FaultPlan::parse(text, kKnob);
      // A trailing comma closes the last action; every other segment is one.
      std::size_t segments = 0;
      if (!text.empty()) {
        segments = 1;
        for (char c : text) segments += c == ',' ? 1 : 0;
        if (text.back() == ',') --segments;
      }
      EXPECT_EQ(plan.actions().size(), segments) << "input: '" << text << "'";
      ++parsed_;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string(" — ") + kKnob + ": "), std::string::npos)
          << "input '" << text << "' refused without naming the knob: "
          << what;
      ++refused_;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "input '" << text << "' escaped as a non-coopcr "
                    << "exception: " << e.what();
    } catch (...) {
      ADD_FAILURE() << "input '" << text << "' escaped as a non-exception";
    }
  }

  std::mt19937_64 rng_;
  int parsed_ = 0;
  int refused_ = 0;
};

TEST(FaultPlanFuzz, PinnedSeedsParseOrNameTheKnob) {
  for (const std::uint64_t seed : {0x1ull, 0xFA17ull, 0x9A75Eull, 0x2018ull}) {
    SCOPED_TRACE(seed);
    PlanFuzzer fuzzer(seed);
    fuzzer.run(20000);
    // Both outcomes are exercised, not just refusals (about 1.7% of the
    // mutated inputs still parse).
    EXPECT_GT(fuzzer.parsed(), 200);
    EXPECT_GT(fuzzer.refused(), 15000);
  }
}

TEST(FaultPlanFuzz, FreshSeedParsesOrNamesTheKnob) {
  // A new seed per run widens coverage over time; it is echoed so a failure
  // can be pinned in the test above.
  const std::uint64_t seed =
      (static_cast<std::uint64_t>(std::random_device{}()) << 32) ^
      std::random_device{}();
  std::cout << "fault plan fuzz fresh seed: 0x" << std::hex << seed
            << std::dec << std::endl;
  SCOPED_TRACE(seed);
  PlanFuzzer fuzzer(seed);
  fuzzer.run(20000);
}

// --- knob interactions (CLI-facing option validation) -----------------------

TEST(FaultKnobs, ResumeWithoutJournalNamesTheKnob) {
  dist::DistOptions options;
  options.shards = 2;
  options.resume = true;
  dist::DistSweepRunner runner(options);
  try {
    runner.run(grid_spec());
    FAIL() << "expected resume without journal to be refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--journal"), std::string::npos)
        << e.what();
  }
}

TEST(FaultKnobs, JournalFaultsWithoutJournalNameTheKnobs) {
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->tear_journal(3, 16);
  dist::DistOptions options;
  options.shards = 2;
  options.fault_plan = plan;
  dist::DistSweepRunner runner(options);
  try {
    runner.run(grid_spec());
    FAIL() << "expected a journal-tearing plan without a journal to refuse";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--fault-plan"), std::string::npos) << what;
    EXPECT_NE(what.find("--journal"), std::string::npos) << what;
  }
}

TEST(FaultKnobs, NegativeBudgetsAreRefused) {
  dist::DistOptions negative_respawn;
  negative_respawn.max_respawns = -1;
  EXPECT_THROW(dist::DistSweepRunner{negative_respawn}, Error);
  dist::DistOptions negative_heartbeat;
  negative_heartbeat.heartbeat_ms = -5;
  EXPECT_THROW(dist::DistSweepRunner{negative_heartbeat}, Error);
}

// --- byte-identity under each recovery mechanism ----------------------------

TEST_F(FaultInjectionTest, RespawnReplacesEveryCasualtyByteIdentically) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  // Both initial workers are murdered mid-campaign; the respawn budget
  // rebuilds the fleet each time and the artifacts must not notice.
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->kill_worker(0, 2).kill_worker(1, 5).kill_worker(2, 9);
  dist::DistOptions options;
  options.shards = 2;
  options.max_respawns = 3;
  options.fault_plan = plan;
  dist::DistSweepRunner runner(options);
  const exp::ExperimentReport survived = runner.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(survived));
  EXPECT_EQ(json_bytes(reference), json_bytes(survived));
  for (const dist::FaultAction& action : plan->actions()) {
    EXPECT_TRUE(action.fired);
  }
}

TEST_F(FaultInjectionTest, ScheduledElasticResizeIsByteIdentical) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  // Grow 1 → 4 early, shrink to 2 mid-run, then down to 1 for the tail —
  // the draining shrink path and the spawn grow path both execute.
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->resize(4, 2).resize(2, 8).resize(1, 14);
  dist::DistOptions options;
  options.shards = 1;
  options.fault_plan = plan;
  dist::DistSweepRunner runner(options);
  const exp::ExperimentReport resized = runner.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(resized));
  EXPECT_EQ(json_bytes(reference), json_bytes(resized));
}

TEST_F(FaultInjectionTest, SignalResizeIsByteIdenticalAndSurvivesShrink) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  dist::DistOptions options;
  options.shards = 2;
  dist::DistSweepRunner runner(options);
  // Operator-style resize: grow twice, shrink once, from a helper thread
  // while the sweep runs. The timing is nondeterministic by nature; the
  // bytes must be identical regardless of when the signals land — including
  // after run() returns, so park the dispositions on SIG_IGN around it
  // (run() installs its own handlers for its own window).
  ::signal(SIGUSR1, SIG_IGN);
  ::signal(SIGUSR2, SIG_IGN);
  std::thread prodder([] {
    for (int i = 0; i < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ::kill(::getpid(), SIGUSR1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ::kill(::getpid(), SIGUSR2);
  });
  const exp::ExperimentReport resized = runner.run(spec);
  prodder.join();
  ::signal(SIGUSR1, SIG_DFL);
  ::signal(SIGUSR2, SIG_DFL);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(resized));
  EXPECT_EQ(json_bytes(reference), json_bytes(resized));
}

TEST_F(FaultInjectionTest, HeartbeatKillsAStalledWorkerAndRecovers) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  // Worker 0 sleeps 60 s before sending its second result — far past the
  // 150 ms heartbeat deadline. The coordinator must kill it, re-run the
  // unit elsewhere, and finish with identical bytes (long before the stall
  // would have ended).
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->stall_worker(0, 2, 60000);
  dist::DistOptions options;
  options.shards = 2;
  options.heartbeat_ms = 150;
  options.max_respawns = 1;
  options.fault_plan = plan;
  dist::DistSweepRunner runner(options);
  const exp::ExperimentReport survived = runner.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(survived));
  EXPECT_EQ(json_bytes(reference), json_bytes(survived));
}

TEST_F(FaultInjectionTest, DroppedTruncatedAndDelayedFramesAreSurvived) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  // Frame 1 is the worker's kHello, so frame 2 is its first result: drop
  // it on worker 0, truncate it on worker 1, and hold worker 2's third
  // frame back for 3 poll rounds. Dropped/truncated streams cost the
  // worker its life; the respawn budget restores the fleet.
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->drop_frame(0, 2).truncate_frame(1, 2).delay_frame(2, 3, 3);
  dist::DistOptions options;
  options.shards = 3;
  options.max_respawns = 2;
  options.fault_plan = plan;
  dist::DistSweepRunner runner(options);
  const exp::ExperimentReport survived = runner.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(survived));
  EXPECT_EQ(json_bytes(reference), json_bytes(survived));
}

TEST_F(FaultInjectionTest,
       ResizeFiredWhileDeliveringDelayedFramesIsByteIdentical) {
  // Regression: every worker's first result is held back one poll round,
  // and delivering the first of them fires a grow to 60 shards. The spawns
  // it asks for must not land while the coordinator is still walking the
  // fleet to deliver the other held frames — that once invalidated the
  // walk (a use-after-free on the worker container).
  const exp::ExperimentSpec spec = grid_spec(20);
  const exp::ExperimentReport reference = reference_report(spec);
  auto plan = std::make_shared<dist::FaultPlan>();
  for (int k = 0; k < 6; ++k) plan->delay_frame(k, 2, 1);
  plan->resize(60, 1);
  dist::DistOptions options;
  options.shards = 6;
  options.fault_plan = plan;
  dist::DistSweepRunner runner(options);
  const exp::ExperimentReport survived = runner.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(survived));
  EXPECT_EQ(json_bytes(reference), json_bytes(survived));
}

// --- two units in flight per worker ----------------------------------------

TEST_F(FaultInjectionTest, KillWithTwoUnitsInFlightRequeuesBoth) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  // One worker: when its first result lands it is topped up to two units,
  // then killed. Both go back to the queue, in order, and its replacement
  // runs them; a lost unit would leave the round unfinished.
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->kill_worker(0, 1);
  dist::DistOptions options;
  options.shards = 1;
  options.max_respawns = 1;
  options.fault_plan = plan;
  dist::DistSweepRunner runner(options);
  const exp::ExperimentReport survived = runner.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(survived));
  EXPECT_EQ(json_bytes(reference), json_bytes(survived));
  EXPECT_TRUE(plan->actions().front().fired);
}

TEST_F(FaultInjectionTest, ShrinkRetiresADrainingWorkerAfterBothUnitsLand) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  // Two workers, each holding two units, shrink to one after the third
  // result: the draining worker gets no new unit and retires only once
  // both of its units have shipped. Retiring it earlier would strand a
  // unit on a dead worker.
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->resize(1, 3);
  dist::DistOptions options;
  options.shards = 2;
  options.fault_plan = plan;
  dist::DistSweepRunner runner(options);
  const exp::ExperimentReport shrunk = runner.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(shrunk));
  EXPECT_EQ(json_bytes(reference), json_bytes(shrunk));
  EXPECT_TRUE(plan->actions().front().fired);
}

TEST_F(FaultInjectionTest, DelayedResultOvertakenByTheWorkersNextIsAccepted) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  // One worker; its first result (frame 2) is held for 3 poll rounds while
  // the result of its second unit, already in flight, arrives and is
  // handled first. A result may match any unit in flight, not only the
  // oldest.
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->delay_frame(0, 2, 3);
  dist::DistOptions options;
  options.shards = 1;
  options.fault_plan = plan;
  dist::DistSweepRunner runner(options);
  const exp::ExperimentReport survived = runner.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(survived));
  EXPECT_EQ(json_bytes(reference), json_bytes(survived));
  EXPECT_TRUE(plan->actions().front().fired);
}

TEST_F(FaultInjectionTest, ResultForAUnitNotInFlightThrowsNamingTheUnit) {
  const exp::ExperimentSpec spec = grid_spec();
  // The rogue worker (above) is handed (point 0, replica 0) and (point 0,
  // replica 1) and answers for replica 2, which is still queued.
  dist::DistOptions options;
  options.shards = 1;
  options.worker_command = {
      std::filesystem::read_symlink("/proc/self/exe").string()};
  ::setenv(kRogueWorkerEnv, "1", 1);
  try {
    dist::DistSweepRunner runner(options);
    runner.run(spec);
    ::unsetenv(kRogueWorkerEnv);
    FAIL() << "expected a result for a unit not in flight to throw";
  } catch (const Error& e) {
    ::unsetenv(kRogueWorkerEnv);
    const std::string what = e.what();
    EXPECT_NE(what.find("point 0, replica 2"), std::string::npos) << what;
    EXPECT_NE(what.find("not in flight"), std::string::npos) << what;
  }
}

TEST_F(FaultInjectionTest, TornJournalResumesByteIdentically) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->tear_journal(5, 48).interrupt(12);
  dist::DistOptions options;
  options.shards = 2;
  options.journal = journal_;
  options.fault_plan = plan;
  // Attempt 1 tears the journal after 5 units and aborts; attempt 2
  // resumes past the truncated tail and aborts again at 12 fresh units;
  // attempt 3 finishes. The fired flags in the shared plan keep each fault
  // single-shot across the retries.
  int attempts = 0;
  exp::ExperimentReport final_report;
  for (;; ++attempts) {
    ASSERT_LT(attempts, 5);
    dist::DistOptions attempt_options = options;
    attempt_options.resume = std::filesystem::exists(journal_);
    dist::DistSweepRunner runner(attempt_options);
    try {
      final_report = runner.run(spec);
      break;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("resume"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_GE(attempts, 2);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(final_report));
  EXPECT_EQ(json_bytes(reference), json_bytes(final_report));
}

TEST_F(FaultInjectionTest, FlippedJournalByteRefusesThenRecoversFresh) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  // Flip a byte inside the first record (the header occupies the first
  // ~56 bytes of this journal), then abort. The resume must refuse the
  // silently corrupted file, naming the offset; the recovery path is to
  // discard the journal and start over — which still converges to
  // byte-identical artifacts.
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->flip_journal_byte(6, 100);
  dist::DistOptions options;
  options.shards = 2;
  options.journal = journal_;
  options.fault_plan = plan;
  {
    dist::DistSweepRunner runner(options);
    EXPECT_THROW(runner.run(spec), Error);
  }
  dist::DistOptions resume_options = options;
  resume_options.resume = true;
  try {
    dist::DistSweepRunner runner(resume_options);
    runner.run(spec);
    FAIL() << "expected the flipped journal to refuse to resume";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("corrupt mid-file"), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
  }
  std::filesystem::remove(journal_);
  dist::DistSweepRunner fresh(options);  // plan is spent — runs fault-free
  const exp::ExperimentReport recovered = fresh.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(recovered));
  EXPECT_EQ(json_bytes(reference), json_bytes(recovered));
}

}  // namespace
}  // namespace coopcr
