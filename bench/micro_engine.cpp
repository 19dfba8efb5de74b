// Micro-benchmarks of the simulator substrate: event queue throughput,
// processor-sharing channel updates, Least-Waste candidate selection and the
// Theorem 1 λ solve. These bound the cost of a Monte Carlo campaign.

#include <benchmark/benchmark.h>

// The facade covers everything here except the sim substrate and the RNG,
// which micro-benchmarks legitimately reach below the facade for.
#include "coopcr.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace coopcr;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    Rng rng(1);
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      engine.at(rng.uniform(0.0, 1000.0), [&fired] { ++fired; });
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    Rng rng(2);
    std::vector<sim::EventId> ids;
    ids.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      ids.push_back(engine.at(rng.uniform(0.0, 1000.0), [] {}));
    }
    // Cancel every other event, then drain.
    for (std::size_t i = 0; i < ids.size(); i += 2) engine.cancel(ids[i]);
    engine.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(10000)->Arg(100000);

void BM_EventQueueChurn(benchmark::State& state) {
  // Steady-state engine pattern: a fixed live population with every fired
  // event scheduling its successor — the shape a Monte Carlo replica
  // actually drives (checkpoint timers, milestones, completion events).
  const auto live = static_cast<std::uint64_t>(state.range(0));
  sim::Engine engine;
  Rng rng(4);
  for (std::uint64_t i = 0; i < live; ++i) {
    engine.at(rng.uniform(0.0, 100.0), [] {});
  }
  std::uint64_t executed = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      auto fired = engine.queue().pop();
      engine.queue().set_now(fired.time);
      engine.queue().schedule(fired.time + rng.uniform(0.0, 100.0), [] {});
      ++executed;
    }
  }
  benchmark::DoNotOptimize(executed);
  state.SetItemsProcessed(1024 * state.iterations());
}
BENCHMARK(BM_EventQueueChurn)->Arg(256)->Arg(4096);

void BM_EventQueueWorkspaceReuse(benchmark::State& state) {
  // Per-replica engine reuse: clear() keeps slab/bucket capacity, so warm
  // runs schedule with zero allocation. Compare against ScheduleRun, which
  // pays the cold-start growth every iteration.
  const auto n = static_cast<std::uint64_t>(state.range(0));
  sim::Engine engine;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    engine.reset();
    Rng rng(1);
    for (std::uint64_t i = 0; i < n; ++i) {
      engine.at(rng.uniform(0.0, 1000.0), [&fired] { ++fired; });
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueueWorkspaceReuse)->Arg(10000);

/// Flow sink that only counts completions.
struct CountingSink final : FlowSink {
  int completed = 0;
  void on_flow_complete(FlowId, std::uint64_t) override { ++completed; }
};

void BM_ChannelProcessorSharing(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    CountingSink sink;
    SharedChannel channel(engine, sink, units::gb_per_s(100));
    for (int i = 0; i < flows; ++i) {
      channel.start(units::gigabytes(1 + i % 7), 16 + i % 64,
                    static_cast<std::uint64_t>(i));
    }
    engine.run();
    benchmark::DoNotOptimize(sink.completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flows) *
                          state.iterations());
}
BENCHMARK(BM_ChannelProcessorSharing)->Arg(8)->Arg(64)->Arg(256);

void BM_IoSubsystemSerialChurn(benchmark::State& state) {
  // Token-queue pressure: `depth` requests outstanding, FCFS-granted one at
  // a time, each completion submitting a replacement — slab record reuse,
  // the callback adapter and the pending-queue pump in one loop.
  const auto depth = static_cast<int>(state.range(0));
  sim::Engine engine;
  IoSubsystem io(engine, units::gb_per_s(100), AdmissionMode::kSerial,
                 InterferenceModel::kLinear, 0.0,
                 std::make_unique<FcfsPolicy>());
  std::uint64_t completed = 0;
  IoRequest req;
  req.kind = IoKind::kCheckpoint;
  req.volume = units::gigabytes(2);
  req.nodes = 128;
  for (int i = 0; i < depth; ++i) {
    io.submit(req, RequestCallbacks{});
  }
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      RequestCallbacks cb;
      cb.on_complete = [&completed](RequestId) { ++completed; };
      io.submit(req, std::move(cb));
      engine.run_steps(1);  // one completion event -> one grant
    }
  }
  benchmark::DoNotOptimize(completed);
  state.SetItemsProcessed(256 * state.iterations());
}
BENCHMARK(BM_IoSubsystemSerialChurn)->Arg(4)->Arg(32);

void BM_NodePoolAllocRelease(benchmark::State& state) {
  // The scheduler's hot pair at Cielo scale: multi-thousand-node jobs
  // starting and finishing. Segment moves + epoch-invalidated release make
  // this O(nodes) once (at allocate) instead of four per-node touches.
  const PlatformSpec cielo = PlatformSpec::cielo();
  NodePool pool(cielo.nodes);
  const std::int64_t job_nodes = state.range(0);
  JobId next = 0;
  std::vector<JobId> held;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      if (!pool.can_allocate(job_nodes)) {
        for (const JobId j : held) pool.release(j);
        held.clear();
      }
      pool.allocate(next, job_nodes);
      held.push_back(next++);
    }
  }
  for (const JobId j : held) pool.release(j);
  state.SetItemsProcessed(64 * state.iterations());
}
BENCHMARK(BM_NodePoolAllocRelease)->Arg(512)->Arg(2048);

void BM_LeastWasteSelect(benchmark::State& state) {
  const auto candidates = static_cast<std::size_t>(state.range(0));
  LeastWastePolicy policy(units::years(2), units::gb_per_s(40));
  std::vector<PendingEntry> pending;
  Rng rng(3);
  for (std::size_t i = 0; i < candidates; ++i) {
    PendingEntry e;
    e.id = i + 1;
    e.request.job = static_cast<JobId>(i);
    e.request.kind = (i % 2 == 0) ? IoKind::kCheckpoint : IoKind::kOutput;
    e.request.volume = units::terabytes(rng.uniform(1.0, 60.0));
    e.request.nodes = 512 << (i % 4);
    e.enqueued_at = rng.uniform(0.0, 1000.0);
    e.last_checkpoint_end = rng.uniform(0.0, 500.0);
    e.recovery_seconds = rng.uniform(100.0, 2000.0);
    pending.push_back(e);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.select(pending, 2000.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(candidates) *
                          state.iterations());
}
BENCHMARK(BM_LeastWasteSelect)->Arg(4)->Arg(16)->Arg(64);

void BM_LowerBoundSolve(benchmark::State& state) {
  const PlatformSpec cielo = PlatformSpec::cielo();
  const auto apps = apex_lanl_classes();
  const double beta = units::gb_per_s(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_lower_bound(cielo, apps, beta));
  }
}
BENCHMARK(BM_LowerBoundSolve)->Arg(40)->Arg(160);

}  // namespace

BENCHMARK_MAIN();
