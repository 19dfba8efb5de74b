#include "exp/executor.hpp"

#include <utility>

#include "dist/dist_runner.hpp"
#include "exp/sweep_runner.hpp"
#include "util/error.hpp"

namespace coopcr::exp {

ExecutorBackend executor_backend_from_name(const std::string& name) {
  if (name == "inprocess" || name == "in-process") {
    return ExecutorBackend::kInProcess;
  }
  if (name == "dist") return ExecutorBackend::kDist;
  throw Error("unknown executor backend \"" + name +
              "\" — expected \"inprocess\" or \"dist\"");
}

std::unique_ptr<SweepExecutor> make_sweep_executor(
    const ExecutorOptions& options) {
  switch (options.backend) {
    case ExecutorBackend::kInProcess:
      return std::make_unique<SweepRunner>(options.threads);
    case ExecutorBackend::kDist: {
      dist::DistOptions dist_options;
      dist_options.shards = options.shards;
      dist_options.journal = options.journal;
      dist_options.resume = options.resume;
      dist_options.worker_command = options.worker_command;
      dist_options.max_respawns = options.max_respawns;
      dist_options.heartbeat_ms = options.heartbeat_ms;
      dist_options.fault_plan = options.fault_plan;
      return std::make_unique<dist::DistSweepRunner>(std::move(dist_options));
    }
  }
  throw Error("unknown executor backend");
}

}  // namespace coopcr::exp
