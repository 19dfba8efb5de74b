// coopcr_sweep — distributed, resumable sweep campaigns from the command
// line.
//
// The CLI drives the exp::spec_registry of predefined experiments (a fast
// demo grid plus the paper's Figure 1 / Figure 2 sweeps) through either
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
// shrinks it by one (busy workers drain their in-flight unit first).

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
        "  --spec NAME        experiment to run (--list-specs; default demo)\n"
        "  --replicas N       Monte Carlo replicas per grid point "
        "(COOPCR_REPLICAS; default 4)\n"
        "  --shards N         worker processes; 0 = in-process reference "
        "runner (COOPCR_SHARDS; default 2)\n"
        "  --journal PATH     durable campaign journal (COOPCR_JOURNAL)\n"
        "  --resume           replay --journal, run only the missing units\n"
        "  --out DIR          write <spec>.csv / <spec>.json artifacts "
        "(COOPCR_CSV_DIR)\n"
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
        "  --strata-bins N    post-stratify estimates on N quantile bins of "
        "a workload feature (COOPCR_STRATA_BINS; 0 = off)\n"
        "  --strata-feature F stratification feature: work_total | work_jobs "
        "| work_max_share (COOPCR_STRATA_FEATURE)\n"
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
  try {
    std::size_t used = 0;
    const int parsed = std::stoi(value, &used);
    COOPCR_CHECK(used == std::string(value).size() && parsed >= 0,
                 flag + ": bad value \"" + value + "\"");
    return parsed;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    throw Error(flag + ": bad value \"" + std::string(value) + "\"");
  }
}

double double_arg(const std::string& flag, const char* value) {
  COOPCR_CHECK(value != nullptr, flag + " needs a value");
  try {
    std::size_t used = 0;
    const double parsed = std::stod(value, &used);
    COOPCR_CHECK(used == std::string(value).size() && parsed >= 0.0,
                 flag + ": bad value \"" + value + "\"");
    return parsed;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    throw Error(flag + ": bad value \"" + std::string(value) + "\"");
  }
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
    int replicas = env::int_knob("COOPCR_REPLICAS", 4, 1);
    int shards = env::int_knob("COOPCR_SHARDS", 2, 0);
    std::string journal = env::string_knob("COOPCR_JOURNAL").value_or("");
    std::string out_dir;
    bool resume = false;
    bool exec_workers = false;
    bool worker_mode = false;
    bool antithetic = env::flag_knob("COOPCR_ANTITHETIC");
    bool control_variate = env::flag_knob("COOPCR_CONTROL_VARIATE");
    double target_ci = env::double_knob("COOPCR_TARGET_CI", 0.0, 0.0);
    int max_replicas = env::int_knob("COOPCR_MAX_REPLICAS", 0, 0);
    std::string contrast = env::string_knob("COOPCR_CONTRAST").value_or("");
    int strata_bins = env::int_knob("COOPCR_STRATA_BINS", 0, 0);
    std::string strata_feature =
        env::string_knob("COOPCR_STRATA_FEATURE").value_or("");
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
        replicas = int_arg(arg, next);
        COOPCR_CHECK(replicas >= 1, "--replicas must be >= 1");
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
        antithetic = true;
      } else if (arg == "--control-variate") {
        control_variate = true;
      } else if (arg == "--target-ci") {
        target_ci = double_arg(arg, next);
        ++i;
      } else if (arg == "--max-replicas") {
        max_replicas = int_arg(arg, next);
        ++i;
      } else if (arg == "--contrast") {
        COOPCR_CHECK(next, "--contrast needs a value");
        contrast = next;
        ++i;
      } else if (arg == "--strata-bins") {
        strata_bins = int_arg(arg, next);
        ++i;
      } else if (arg == "--strata-feature") {
        COOPCR_CHECK(next, "--strata-feature needs a value");
        strata_feature = next;
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

    // Registry specs stay pure functions of (name, replicas); the
    // variance-reduction knobs are overlaid afterwards — in worker mode too,
    // and *before* worker_serve, because the spec digest folds the pairing
    // options in and both sides must build the same campaign shape.
    exp::ExperimentSpec spec = exp::build_named_spec(spec_name, replicas);
    {
      MonteCarloOptions mc = spec.campaign_options();
      mc.antithetic = antithetic;
      mc.control_variate = control_variate;
      mc.target_ci_width = target_ci;
      mc.max_replicas = max_replicas;
      mc.contrast_reference = contrast;
      mc.strata_bins = strata_bins;
      if (!strata_feature.empty()) mc.strata_feature = strata_feature;
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

    std::cerr << "[coopcr_sweep] spec " << spec.name() << ": "
              << spec.grid_size() << " points x " << replicas
              << " replicas, engine "
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
      options.backend = exp::ExecutorBackend::kInProcess;
      options.threads = env::int_knob("COOPCR_THREADS", 0, 0);
    } else {
      COOPCR_CHECK(!resume || !journal.empty(),
                   "--resume requires --journal (or COOPCR_JOURNAL)");
      options.backend = exp::ExecutorBackend::kDist;
      options.shards = shards;
      options.journal = journal;
      options.resume = resume;
      options.max_respawns = max_respawns;
      options.heartbeat_ms = heartbeat_ms;
      if (!fault_plan_text.empty()) {
        options.fault_plan = std::make_shared<dist::FaultPlan>(
            dist::FaultPlan::parse(fault_plan_text, fault_plan_knob));
      }
      if (exec_workers) {
        options.worker_command = {argv[0], "--worker", "--spec", spec_name,
                                  "--replicas", std::to_string(replicas)};
        // Forward the options the spec digest covers, so an exec worker
        // rebuilds the exact same campaign shape.
        if (antithetic) options.worker_command.push_back("--antithetic");
        if (control_variate) {
          options.worker_command.push_back("--control-variate");
        }
        if (target_ci > 0.0) {
          options.worker_command.push_back("--target-ci");
          // Round-trip formatting: the spec digest folds the exact bit
          // pattern, so the worker must parse back the identical double.
          options.worker_command.push_back(format_number(target_ci));
        }
        if (max_replicas > 0) {
          options.worker_command.push_back("--max-replicas");
          options.worker_command.push_back(std::to_string(max_replicas));
        }
        if (!contrast.empty()) {
          options.worker_command.push_back("--contrast");
          options.worker_command.push_back(contrast);
        }
        if (strata_bins > 0) {
          options.worker_command.push_back("--strata-bins");
          options.worker_command.push_back(std::to_string(strata_bins));
        }
        if (!strata_feature.empty()) {
          options.worker_command.push_back("--strata-feature");
          options.worker_command.push_back(strata_feature);
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
    exp::ExperimentReport report = executor->run(spec);

    // Human-readable summary on stdout; machine artifacts via --out.
    for (const auto& pr : report.points) {
      std::cout << pr.point.label();
      // Under sequential stopping each point may have grown to a different
      // replica count — surface it next to the label.
      if (pr.report.vr_enabled) {
        std::cout << " [replicas " << pr.report.replicas << "]";
      }
      std::cout << "\n";
      for (const auto& outcome : pr.report.outcomes) {
        std::cout << "  " << outcome.strategy.name()
                  << ": waste ratio mean = "
                  << TablePrinter::fmt(outcome.waste_ratio.mean(), 4) << "\n";
      }
    }
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
