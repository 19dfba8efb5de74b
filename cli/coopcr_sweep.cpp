// coopcr_sweep — distributed, resumable sweep campaigns from the command
// line.
//
// The CLI runs any exp::spec_registry entry (a fast demo grid, the paper's
// figures 1-4, Table 1 and ablations A1-A5; --list-specs) and prints the
// entry's own console presentation. A driven entry (Figure 3's bisection,
// the closed-form tables) runs its own rounds of grids on the engine and
// refuses --journal, --resume and --exec-workers. It runs through either
// execution engine, selected purely via exp::ExecutorOptions and built
// behind the exp::SweepExecutor interface:
//
//   --shards 0   in-process exp::SweepRunner (the thread-pool reference)
//   --shards N   dist::DistSweepRunner with N worker processes
//
// Both paths produce byte-identical CSV/JSON artifacts — that equivalence
// is what the CI kill-resume smoke job diffs. With --journal the sweep is
// durable: kill it (or a worker) at any point and rerun with --resume to
// finish only the missing units.
//
//   coopcr_sweep --spec fig1 --shards 4 --journal f1.j --out out/
//   ...SIGKILL...
//   coopcr_sweep --spec fig1 --shards 4 --journal f1.j --resume --out out/
//
// --out DIR writes exactly the structured artifacts <experiment>.csv (long
// format) and <experiment>.json, e.g. fig1_bandwidth_sweep.{csv,json}.
//
// --exec-workers spawns workers by re-executing this binary with --worker
// (they rebuild the spec from their own command line and the coordinator
// verifies the spec digest) instead of forking the coordinator's image —
// the mode a future multi-host launcher would use.
//
// Env knobs (flags win): COOPCR_SHARDS, COOPCR_JOURNAL, COOPCR_REPLICAS,
// COOPCR_CSV_DIR, COOPCR_RESPAWN, COOPCR_HEARTBEAT_MS, COOPCR_FAULT_PLAN.
//
// Scripted worker kills and fleet resizes are fault-plan actions
// (--fault-plan kill=0@2,resize=4@6). A running dist campaign also resizes
// elastically on signals: SIGUSR1 grows the fleet by one worker, SIGUSR2
// shrinks it by one (busy workers drain their in-flight units first).

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coopcr.hpp"
// Below the facade: the fault-plan grammar and the worker serve loop with
// its fixed fds.
#include "dist/fault_injection.hpp"
#include "dist/wire.hpp"
#include "dist/worker.hpp"

using namespace coopcr;

namespace {

void usage(std::ostream& os) {
  os << "usage: coopcr_sweep [options]\n"
        "  --spec NAME        registry experiment to run: demo, a paper "
        "figure or an ablation (--list-specs; default demo)\n"
        "  --replicas N       Monte Carlo replicas per grid point "
        "(COOPCR_REPLICAS; default 4)\n"
        "  --shards N         worker processes; 0 = in-process reference "
        "runner (COOPCR_SHARDS; default 2)\n"
        "  --journal PATH     durable campaign journal (COOPCR_JOURNAL)\n"
        "  --resume           replay --journal, run only the missing units\n"
        "  --out DIR          write <experiment>.csv / <experiment>.json "
        "artifacts (COOPCR_CSV_DIR)\n"
        "  --exec-workers     spawn workers by re-executing this binary\n"
        "  --antithetic       simulate replicas in antithetic pairs "
        "(COOPCR_ANTITHETIC; needs even --replicas)\n"
        "  --control-variate  closed-form control-variate estimator "
        "(COOPCR_CONTROL_VARIATE)\n"
        "  --target-ci W      sequential stopping: grow replicas until every "
        "95% CI is <= W, on any backend (COOPCR_TARGET_CI)\n"
        "  --max-replicas N   replica cap for --target-ci; 0 = 64x initial "
        "(COOPCR_MAX_REPLICAS)\n"
        "  --contrast NAME    paired strategy-contrast estimator vs reference "
        "strategy NAME (COOPCR_CONTRAST)\n"
        "  --respawn N        budget for respawning dead workers "
        "(COOPCR_RESPAWN; default 0)\n"
        "  --heartbeat-ms N   kill workers silent past N ms with a unit in "
        "flight (COOPCR_HEARTBEAT_MS; 0 = off)\n"
        "  --fault-plan SPEC  scripted faults and resizes, e.g. "
        "kill=0@3,resize=4@6,interrupt=9 (COOPCR_FAULT_PLAN; see "
        "dist/fault_injection.hpp)\n"
        "  --list-specs       list registry specs and exit\n"
        "  --worker           internal: serve units on fds 3/4\n"
        "  --stall N:MS       internal: worker stalls MS ms before result N\n";
}

int int_arg(const std::string& flag, const char* value) {
  COOPCR_CHECK(value != nullptr, flag + " needs a value");
  return env::parse_int(flag, value, 0);
}

double double_arg(const std::string& flag, const char* value) {
  COOPCR_CHECK(value != nullptr, flag + " needs a value");
  return env::parse_double(flag, value, 0.0);
}

/// Parse one "--stall N:MS" worker directive.
dist::WorkerDirectives::Stall stall_arg(const std::string& flag,
                                        const char* value) {
  COOPCR_CHECK(value != nullptr, flag + " needs a value");
  const std::string text = value;
  const std::size_t at = text.find(':');
  COOPCR_CHECK(at != std::string::npos,
               flag + ": expected N:MS, got \"" + text + "\"");
  dist::WorkerDirectives::Stall stall;
  stall.before_result = int_arg(flag, text.substr(0, at).c_str());
  stall.ms = int_arg(flag, text.substr(at + 1).c_str());
  COOPCR_CHECK(stall.before_result >= 1 && stall.ms >= 1,
               flag + ": N and MS must be >= 1 in \"" + text + "\"");
  return stall;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string spec_name = "demo";
    // Replicas, threads and the variance-reduction knobs, read from the
    // environment exactly as every Monte Carlo driver reads them; the flags
    // below override them.
    MonteCarloOptions mc = MonteCarloOptions::from_env(/*default_replicas=*/4);
    int shards = env::int_knob("COOPCR_SHARDS", 2, 0);
    std::string journal = env::string_knob("COOPCR_JOURNAL").value_or("");
    std::string out_dir;
    bool resume = false;
    bool exec_workers = false;
    bool worker_mode = false;
    int max_respawns = env::int_knob("COOPCR_RESPAWN", 0, 0);
    int heartbeat_ms = env::int_knob("COOPCR_HEARTBEAT_MS", 0, 0);
    std::string fault_plan_text =
        env::string_knob("COOPCR_FAULT_PLAN").value_or("");
    std::string fault_plan_knob = "COOPCR_FAULT_PLAN";
    std::vector<dist::WorkerDirectives::Stall> stalls;

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const char* next = (i + 1 < argc) ? argv[i + 1] : nullptr;
      if (arg == "--spec") {
        COOPCR_CHECK(next, "--spec needs a value");
        spec_name = next;
        ++i;
      } else if (arg == "--replicas") {
        mc.replicas = int_arg(arg, next);
        COOPCR_CHECK(mc.replicas >= 1, "--replicas must be >= 1");
        ++i;
      } else if (arg == "--shards") {
        shards = int_arg(arg, next);
        ++i;
      } else if (arg == "--journal") {
        COOPCR_CHECK(next, "--journal needs a value");
        journal = next;
        ++i;
      } else if (arg == "--out") {
        COOPCR_CHECK(next, "--out needs a value");
        out_dir = next;
        ++i;
      } else if (arg == "--resume") {
        resume = true;
      } else if (arg == "--exec-workers") {
        exec_workers = true;
      } else if (arg == "--antithetic") {
        mc.antithetic = true;
      } else if (arg == "--control-variate") {
        mc.control_variate = true;
      } else if (arg == "--target-ci") {
        mc.target_ci_width = double_arg(arg, next);
        ++i;
      } else if (arg == "--max-replicas") {
        mc.max_replicas = int_arg(arg, next);
        ++i;
      } else if (arg == "--contrast") {
        COOPCR_CHECK(next, "--contrast needs a value");
        mc.contrast_reference = next;
        ++i;
      } else if (arg == "--respawn") {
        max_respawns = int_arg(arg, next);
        ++i;
      } else if (arg == "--heartbeat-ms") {
        heartbeat_ms = int_arg(arg, next);
        ++i;
      } else if (arg == "--fault-plan") {
        COOPCR_CHECK(next, "--fault-plan needs a value");
        fault_plan_text = next;
        fault_plan_knob = "--fault-plan";
        ++i;
      } else if (arg == "--worker") {
        worker_mode = true;
      } else if (arg == "--stall") {
        stalls.push_back(stall_arg(arg, next));
        ++i;
      } else if (arg == "--list-specs") {
        for (const exp::NamedSpec& entry : exp::spec_registry()) {
          std::cout << entry.name << "\t" << entry.blurb << "\n";
        }
        return 0;
      } else if (arg == "--help" || arg == "-h") {
        usage(std::cout);
        return 0;
      } else {
        usage(std::cerr);
        throw Error("unknown argument: " + arg);
      }
    }

    // A driven entry runs its own rounds of grids: none of them can be
    // journaled or resumed, and an exec worker could not rebuild a round
    // from (name, replicas).
    const exp::NamedSpec& entry = exp::named_spec(spec_name);
    COOPCR_CHECK(!entry.drive || (journal.empty() && !resume && !exec_workers),
                 "spec \"" + spec_name + "\" is driven (each round is a fresh "
                 "grid): --journal, --resume and --exec-workers need one grid");

    // Registry specs stay pure functions of (name, replicas); the campaign
    // options are overlaid afterwards — in worker mode too, and *before*
    // worker_serve, because the spec digest folds the pairing options in and
    // both sides must build the same campaign shape.
    exp::ExperimentSpec spec;
    if (!entry.drive || worker_mode) {
      spec = exp::build_named_spec(spec_name, mc.replicas);
      spec.options(mc);
    }

    if (worker_mode) {
      // Exec-mode worker: rebuilt the spec above from --spec/--replicas;
      // serve units on the fixed pipe fds until shutdown.
      dist::WorkerDirectives directives;
      directives.stalls = stalls;
      dist::worker_serve(spec, dist::kWorkerInFd, dist::kWorkerOutFd,
                         directives);
      return 0;
    }

    if (!out_dir.empty()) {
      std::filesystem::create_directories(out_dir);
      ::setenv("COOPCR_CSV_DIR", out_dir.c_str(), 1);
    }

    std::cerr << "[coopcr_sweep] spec " << spec_name << ": "
              << (entry.drive ? std::string("driven rounds")
                              : std::to_string(spec.grid_size()) + " points")
              << " x " << mc.replicas << " replicas, engine "
              << (shards == 0 ? std::string("in-process")
                              : std::to_string(shards) + " shards")
              << (journal.empty() ? "" : ", journal " + journal)
              << (resume ? " (resume)" : "") << "\n";

    exp::ExecutorOptions options;
    if (shards == 0) {
      COOPCR_CHECK(!resume && journal.empty(),
                   "--journal/--resume require --shards >= 1");
      COOPCR_CHECK(max_respawns == 0 && heartbeat_ms == 0 &&
                       fault_plan_text.empty(),
                   "--respawn/--heartbeat-ms/--fault-plan require "
                   "--shards >= 1");
      options.threads = mc.threads;
    } else {
      COOPCR_CHECK(!resume || !journal.empty(),
                   "--resume requires --journal (or COOPCR_JOURNAL)");
      options.dist.shards = shards;
      options.dist.journal = journal;
      options.dist.resume = resume;
      options.dist.max_respawns = max_respawns;
      options.dist.heartbeat_ms = heartbeat_ms;
      if (!fault_plan_text.empty()) {
        options.dist.fault_plan = std::make_shared<dist::FaultPlan>(
            dist::FaultPlan::parse(fault_plan_text, fault_plan_knob));
      }
      if (exec_workers) {
        std::vector<std::string>& command = options.dist.worker_command;
        command = {argv[0],   "--worker",   "--spec",
                   spec_name, "--replicas", std::to_string(mc.replicas)};
        // Forward the options the spec digest covers, so an exec worker
        // rebuilds the exact same campaign shape.
        if (mc.antithetic) command.push_back("--antithetic");
        if (mc.control_variate) command.push_back("--control-variate");
        if (mc.target_ci_width > 0.0) {
          command.push_back("--target-ci");
          // Round-trip formatting: the spec digest folds the exact bit
          // pattern, so the worker must parse back the identical double.
          command.push_back(format_number(mc.target_ci_width));
        }
        if (mc.max_replicas > 0) {
          command.push_back("--max-replicas");
          command.push_back(std::to_string(mc.max_replicas));
        }
        if (!mc.contrast_reference.empty()) {
          command.push_back("--contrast");
          command.push_back(mc.contrast_reference);
        }
      }
    }
    std::unique_ptr<exp::SweepExecutor> executor =
        exp::make_sweep_executor(options);
    if (shards > 0) {
      executor->on_point(
          [](const exp::GridPoint& point, const MonteCarloReport&) {
            std::cerr << "[coopcr_sweep] " << point.label() << " done\n";
          });
    }
    // The entry's presentation on stdout; machine artifacts via --out.
    if (entry.drive) {
      entry.drive(*executor, mc, std::cout);
      return 0;
    }
    exp::ExperimentReport report = executor->run(spec);
    entry.render(report, std::cout);
    if (const auto path = report.emit_csv()) {
      std::cout << "[csv] wrote " << *path << "\n";
    }
    if (const auto path = report.emit_json()) {
      std::cout << "[json] wrote " << *path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "coopcr_sweep: " << e.what() << "\n";
    return 1;
  }
}
