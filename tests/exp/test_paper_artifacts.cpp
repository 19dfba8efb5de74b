// The paper artifacts that are not one Monte Carlo grid — Figure 3's
// bisection and the two closed-form tables — pinned through coopcr_sweep
// at 2 replicas on both engines: each run's CSV size and FNV-1a digest.
// Re-pin only for a deliberate behaviour change, and say so in the commit
// message.
//
// ctest runs from the build root, next to the coopcr_sweep binary; set
// COOPCR_SWEEP_BIN to point elsewhere when running by hand.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace coopcr {
namespace {

namespace fs = std::filesystem;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) h = (h ^ c) * 1099511628211ull;
  return h;
}

std::string sweep_binary() {
  if (const char* bin = std::getenv("COOPCR_SWEEP_BIN")) return bin;
  return "./coopcr_sweep";
}

struct ArtifactPin {
  const char* key;   ///< registry key
  const char* stem;  ///< <stem>.csv under the output directory
  std::size_t csv_bytes;
  std::uint64_t csv_fnv1a;
};

const std::vector<ArtifactPin> kPins = {
    {"fig3", "fig3_prospective", 3288u, 2302940423539257594ull},
    {"table1", "table1_workload", 446u, 5035453478737982053ull},
    {"ablation_period_formula", "ablation_period_formula", 799u,
     4431924839043883043ull},
};

/// Run `pin`'s entry at 2 replicas on `shards` with its CSV written under
/// `out`; returns the exit code, with stdout and stderr in `output`.
int run_program(const ArtifactPin& pin, int shards, const fs::path& out,
                std::string& output) {
  const std::string command =
      sweep_binary() + " --spec " + pin.key +
      " --replicas 2 --shards " + std::to_string(shards) + " --out " +
      out.string() + " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  return (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
}

TEST(PaperArtifacts, CsvBytesMatchThePins) {
  if (!fs::exists(sweep_binary())) {
    GTEST_SKIP() << "coopcr_sweep binary not found at " << sweep_binary()
                 << " — run under ctest from the build root or set "
                    "COOPCR_SWEEP_BIN";
  }
  for (const ArtifactPin& pin : kPins) {
    for (const int shards : {0, 2}) {
      SCOPED_TRACE(std::string(pin.key) + " at --shards " +
                   std::to_string(shards));
      const fs::path out = fs::temp_directory_path() /
                           ("coopcr_paper_artifacts_" +
                            std::to_string(::getpid()) + "_" + pin.stem);
      fs::remove_all(out);
      fs::create_directories(out);
      std::string output;
      ASSERT_EQ(run_program(pin, shards, out, output), 0) << output;
      std::ifstream in(out / (std::string(pin.stem) + ".csv"),
                       std::ios::binary);
      ASSERT_TRUE(in.good()) << output;
      const std::string bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
      EXPECT_EQ(bytes.size(), pin.csv_bytes);
      EXPECT_EQ(fnv1a(bytes), pin.csv_fnv1a);
      fs::remove_all(out);
    }
  }
}

}  // namespace
}  // namespace coopcr
