#include "exp/executor.hpp"

#include "dist/dist_runner.hpp"
#include "exp/sweep_runner.hpp"

namespace coopcr::exp {

std::unique_ptr<SweepExecutor> make_sweep_executor(
    const ExecutorOptions& options) {
  if (options.dist.shards == 0) {
    return std::make_unique<SweepRunner>(options.threads);
  }
  return std::make_unique<dist::DistSweepRunner>(options.dist);
}

}  // namespace coopcr::exp
