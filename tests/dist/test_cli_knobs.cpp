// coopcr_sweep knob-interaction coverage: every bad flag/env combination
// must fail with a non-zero exit and an error that names the offending
// knob, through the real binary — the same COOPCR_CHECK seams the library
// tests exercise, but via argv and the COOPCR_* environment.
//
// ctest runs from the build root, next to the coopcr_sweep binary; set
// COOPCR_SWEEP_BIN to point elsewhere when running by hand.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace coopcr {
namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

std::string sweep_binary() {
  if (const char* bin = std::getenv("COOPCR_SWEEP_BIN")) return bin;
  return "./coopcr_sweep";
}

CliResult run_cli(const std::string& args, const std::string& env = "") {
  const std::string command = (env.empty() ? "" : "env " + env + " ") +
                              sweep_binary() + " " + args + " 2>&1";
  CliResult result;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  result.exit_code = (status >= 0 && WIFEXITED(status))
                         ? WEXITSTATUS(status)
                         : -1;
  return result;
}

class CliKnobsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!std::filesystem::exists(sweep_binary())) {
      GTEST_SKIP() << "coopcr_sweep binary not found at " << sweep_binary()
                   << " — run under ctest from the build root or set "
                      "COOPCR_SWEEP_BIN";
    }
  }

  /// Run a combination that must be refused, and assert the error names
  /// `knob`.
  void expect_refusal(const std::string& args, const std::string& knob,
                      const std::string& env = "") {
    const CliResult result = run_cli(args, env);
    EXPECT_NE(result.exit_code, 0)
        << "expected failure for: " << env << " " << args
        << "\noutput: " << result.output;
    EXPECT_NE(result.output.find(knob), std::string::npos)
        << "error for '" << env << " " << args << "' must name " << knob
        << ", got:\n"
        << result.output;
  }

  /// Run the demo spec in process and with the dist `engine_args`, and
  /// assert both emit byte-identical CSV and JSON artifacts.
  void expect_artifacts_match_in_process(const std::string& engine_args) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
                         ("coopcr_cli_knobs_" + std::to_string(::getpid()) +
                          "_" +
                          ::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name());
    fs::remove_all(dir);
    const std::string ref = (dir / "ref").string();
    const std::string dist = (dir / "dist").string();
    const CliResult reference =
        run_cli("--spec demo --replicas 2 --shards 0 --out " + ref);
    ASSERT_EQ(reference.exit_code, 0) << reference.output;
    const CliResult faulted =
        run_cli("--spec demo --replicas 2 " + engine_args + " --out " + dist);
    ASSERT_EQ(faulted.exit_code, 0) << faulted.output;
    for (const char* name : {"sweep_demo.csv", "sweep_demo.json"}) {
      std::ifstream a(fs::path(ref) / name, std::ios::binary);
      std::ifstream b(fs::path(dist) / name, std::ios::binary);
      ASSERT_TRUE(a.good() && b.good()) << name;
      const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                                std::istreambuf_iterator<char>());
      const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                                std::istreambuf_iterator<char>());
      EXPECT_EQ(bytes_a, bytes_b) << name;
    }
    fs::remove_all(dir);
  }
};

TEST_F(CliKnobsTest, ResumeWithoutJournalNamesTheJournalKnob) {
  expect_refusal("--spec demo --replicas 2 --shards 2 --resume", "--journal");
}

TEST_F(CliKnobsTest, DistOnlyKnobsAreRefusedAtShardsZero) {
  expect_refusal("--spec demo --replicas 2 --shards 0 --fault-plan kill=0@1",
                 "--shards");
  expect_refusal("--spec demo --replicas 2 --shards 0 --respawn 2",
                 "--shards");
  expect_refusal("--spec demo --replicas 2 --shards 0 --heartbeat-ms 100",
                 "--shards");
}

TEST_F(CliKnobsTest, BadKnobValuesNameTheirOwnKnob) {
  expect_refusal("--spec demo --replicas 2 --shards 2 --fault-plan launch=0@1",
                 "--fault-plan");
  expect_refusal("--spec demo --replicas 2 --shards 2 --fault-plan kill=0",
                 "--fault-plan");
  expect_refusal("--spec demo --replicas 2 --shards 2 --fault-plan resize=0@3",
                 "--fault-plan");
  expect_refusal("--spec demo --replicas 2 --shards 2 --strata-bins 2",
                 "unknown argument: --strata-bins");
}

TEST_F(CliKnobsTest, FaultedDistRunMatchesInProcessArtifactBytes) {
  // The positive interaction: respawn, a heartbeat, a scripted kill, a
  // delayed frame and an elastic resize all through real argv — and the
  // artifacts still match the in-process run byte for byte.
  expect_artifacts_match_in_process(
      "--shards 2 --respawn 3 --heartbeat-ms 5000 "
      "--fault-plan kill=0@1,delay=1@2:2,resize=3@2");
}

TEST_F(CliKnobsTest, ExecWorkersUnderAFaultPlanMatchInProcessArtifactBytes) {
  // Exec-mode workers rebuild the spec from argv, so a stall reaches them
  // only as a forwarded --stall flag: worker 1 sleeps 60 s before its second
  // result, the heartbeat kills it, and the respawned fleet finishes with
  // the in-process bytes — long before the stall would have ended.
  expect_artifacts_match_in_process(
      "--shards 2 --exec-workers --respawn 2 --heartbeat-ms 300 "
      "--fault-plan kill=0@1,stall=1@2:60000");
}

TEST_F(CliKnobsTest, EnvKnobFailuresNameTheEnvVariable) {
  // The same knobs through the COOPCR_* environment must name the env
  // variable, not the flag — the operator set the env, not argv.
  expect_refusal("--spec demo --replicas 2 --shards 2", "COOPCR_FAULT_PLAN",
                 "COOPCR_FAULT_PLAN=launch=0@1");
  expect_refusal("--spec demo --replicas 2 --shards 2",
                 "COOPCR_HEARTBEAT_MS", "COOPCR_HEARTBEAT_MS=1o0");
  expect_refusal("--spec demo --replicas 2 --shards 2", "COOPCR_RESPAWN",
                 "COOPCR_RESPAWN=-1");
}

}  // namespace
}  // namespace coopcr
