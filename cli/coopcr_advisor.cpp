// coopcr_advisor — the checkpoint-advisor service from the command line.
//
// Ingest sweep artifacts, then answer structured queries: one single-line
// JSON query per stdin line, one versioned JSON answer per stdout line.
// Answers come from multilinear interpolation over the ingested grids when
// the query point is inside the hull, and from an on-demand fallback
// campaign (through the exp::SweepExecutor engine selected by --shards)
// when it is not. Repeated queries hit the LRU cache, keyed by the
// canonical query text, and return byte-identical answer text.
//
//   coopcr_sweep --spec demo --replicas 8 --out artifacts/
//   echo '{"coords":{"pfs_bandwidth_gbps":80,"interference_alpha":0.5}}' |
//     coopcr_advisor --ingest artifacts/
//
// Determinism contract: answer lines on stdout are a pure function of the
// ingested artifacts, the engine options and the query — all volatile
// output (the {"stats":{...}} block with cache hit/miss counters,
// interpolated-vs-computed counts and per-query latency) goes to stderr.
// Batch mode prints one stats block at EOF; --serve flushes every answer
// and prints a stats block after each query.

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "coopcr.hpp"

using namespace coopcr;

namespace {

void usage(std::ostream& os) {
  os << "usage: coopcr_advisor --ingest PATH [options]\n"
        "  --ingest PATH      artifact .json file or directory of them "
        "(repeatable, at least one)\n"
        "  --metric NAME      default ranking metric (default waste_ratio)\n"
        "  --max-ci W         recompute when the interpolated 95% CI "
        "half-width exceeds W (default: trust the grid)\n"
        "  --replicas N       fallback campaign replicas (default: the "
        "grid's own count)\n"
        "  --target-ci W      fallback campaigns grow replicas until every "
        "95% CI width is <= W, on either backend (default: fixed count)\n"
        "  --shards N         fallback engine: 0 runs in-process, N > 0 "
        "across N worker processes (default 0)\n"
        "  --threads N        in-process engine threads; 0 = hardware "
        "concurrency\n"
        "  --cache N          answer cache capacity; 0 disables (default "
        "256)\n"
        "  --serve            flush each answer; stats block after every "
        "query\n"
        "  --list             print the ingested grids and exit\n";
}

int int_arg(const std::string& flag, const char* value) {
  COOPCR_CHECK(value != nullptr, flag + " needs a value");
  return env::parse_int(flag, value, 0);
}

double double_arg(const std::string& flag, const char* value) {
  COOPCR_CHECK(value != nullptr, flag + " needs a value");
  return env::parse_double(flag, value, 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> ingest_paths;
    serve::AdvisorOptions options;
    bool serve_mode = false;
    bool list_only = false;

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const char* next = (i + 1 < argc) ? argv[i + 1] : nullptr;
      if (arg == "--ingest") {
        COOPCR_CHECK(next, "--ingest needs a value");
        ingest_paths.push_back(next);
        ++i;
      } else if (arg == "--metric") {
        COOPCR_CHECK(next, "--metric needs a value");
        options.engine.default_metric = next;
        ++i;
      } else if (arg == "--max-ci") {
        options.engine.max_ci_halfwidth = double_arg(arg, next);
        ++i;
      } else if (arg == "--replicas") {
        options.engine.fallback_replicas = int_arg(arg, next);
        ++i;
      } else if (arg == "--target-ci") {
        options.engine.fallback_target_ci = double_arg(arg, next);
        ++i;
      } else if (arg == "--shards") {
        options.engine.executor.dist.shards = int_arg(arg, next);
        ++i;
      } else if (arg == "--threads") {
        options.engine.executor.threads = int_arg(arg, next);
        ++i;
      } else if (arg == "--cache") {
        options.cache_capacity = static_cast<std::size_t>(int_arg(arg, next));
        ++i;
      } else if (arg == "--serve") {
        serve_mode = true;
      } else if (arg == "--list") {
        list_only = true;
      } else if (arg == "--help" || arg == "-h") {
        usage(std::cout);
        return 0;
      } else {
        usage(std::cerr);
        throw Error("unknown argument: " + arg);
      }
    }
    COOPCR_CHECK(!ingest_paths.empty(),
                 "nothing to serve — pass --ingest at least once");

    serve::Advisor advisor(options);
    std::size_t fresh = 0;
    for (const std::string& path : ingest_paths) {
      if (std::filesystem::is_directory(path)) {
        fresh += advisor.ingest_dir(path);
      } else {
        fresh += advisor.ingest_file(path) ? 1 : 0;
      }
    }
    std::cerr << "[coopcr_advisor] ingested " << fresh << " artifact"
              << (fresh == 1 ? "" : "s") << " into "
              << advisor.store().grid_count() << " grid"
              << (advisor.store().grid_count() == 1 ? "" : "s") << "\n";

    if (list_only) {
      for (const std::string& name : advisor.store().experiments()) {
        const serve::StoredGrid& grid = *advisor.store().find(name);
        std::cout << name << "\t" << grid.point_count() << "/"
                  << grid.cell_count() << " points\t" << grid.replicas
                  << " replicas\t" << grid.strategies.size()
                  << " strategies" << (grid.complete() ? "" : "\tINCOMPLETE")
                  << "\n";
      }
      return 0;
    }

    // The query loop: bad lines produce a deterministic {"error":...} line
    // and the loop continues — one malformed query must not kill a batch.
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      try {
        std::cout << advisor.answer_json(line) << "\n";
      } catch (const std::exception& e) {
        std::cout << "{\"error\":\"" << json_escape(e.what()) << "\"}\n";
      }
      if (serve_mode) {
        std::cout.flush();
        std::cerr << advisor.stats().to_json() << "\n";
      }
    }
    if (!serve_mode) std::cerr << advisor.stats().to_json() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "coopcr_advisor: " << e.what() << "\n";
    return 1;
  }
}
