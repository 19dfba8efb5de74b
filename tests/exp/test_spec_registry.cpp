// The spec registry, the single definition of every Monte Carlo paper
// artifact. Each paper entry runs at 2 replicas and its JSON artifact's size
// and FNV-1a digest are pinned; the pins were captured from the standalone
// bench programs the entries replaced (COOPCR_REPLICAS=2). Re-pin only for
// a deliberate behaviour change, and say so in the commit message.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "coopcr.hpp"

namespace coopcr {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) h = (h ^ c) * 1099511628211ull;
  return h;
}

struct ArtifactPin {
  const char* key;         ///< registry key
  const char* experiment;  ///< ExperimentSpec::name() of the built spec
  std::size_t json_bytes;
  std::uint64_t json_fnv1a;
};

const std::vector<ArtifactPin> kPins = {
    {"fig1", "fig1_bandwidth_sweep", 78393u, 3359967981512963891ull},
    {"fig2", "fig2_mtbf_sweep", 67595u, 1909634453415915556ull},
    {"fig4", "fig4_energy_tradeoff", 76058u, 5132803127359914513ull},
    {"ablation_interference", "ablation_interference", 33754u,
     2282616291520327433ull},
    {"ablation_token_policy", "ablation_token_policy", 6641u,
     1405037011285846002ull},
    {"ablation_candidate_rule", "ablation_candidate_rule", 6658u,
     10031831858748885041ull},
    {"ablation_burst_buffer", "ablation_burst_buffer", 33432u,
     13001881951189346177ull},
};

/// A registry entry's report at 2 replicas, run once per key and shared by
/// the cases below.
const exp::ExperimentReport& report_at_2(const std::string& key) {
  static std::map<std::string, exp::ExperimentReport> reports;
  auto it = reports.find(key);
  if (it == reports.end()) {
    exp::ExperimentReport report =
        exp::SweepRunner().run(exp::build_named_spec(key, /*replicas=*/2));
    it = reports.emplace(key, std::move(report)).first;
  }
  return it->second;
}

TEST(SpecRegistry, PaperArtifactsMatchPinnedJsonBytes) {
  for (const ArtifactPin& pin : kPins) {
    SCOPED_TRACE(pin.key);
    const exp::ExperimentReport& report = report_at_2(pin.key);
    EXPECT_EQ(report.name, pin.experiment);
    std::ostringstream json;
    report.write_json(json);
    EXPECT_EQ(json.str().size(), pin.json_bytes);
    EXPECT_EQ(fnv1a(json.str()), pin.json_fnv1a);
  }
}

// Figure 2 is the §6.1 setup at a scarce 40 GB/s, with node MTBF on the
// axis; Figure 1 sweeps the bandwidth at a 2-year node MTBF. A Figure 2
// built at Cielo's default 160 GB/s once disagreed with its own bench.
TEST(SpecRegistry, Fig1AndFig2RunAtThePaperOperatingPoints) {
  const std::vector<exp::GridPoint> fig2 =
      exp::build_named_spec("fig2", 1).expand();
  ASSERT_EQ(fig2.size(), 6u);
  for (const exp::GridPoint& point : fig2) {
    SCOPED_TRACE(point.label());
    const PlatformSpec& platform = point.scenario.platform;
    EXPECT_EQ(platform.pfs_bandwidth, units::gb_per_s(40));
    EXPECT_EQ(platform.node_mtbf,
              units::years(point.coord("node_mtbf_years").value));
  }
  const std::vector<exp::GridPoint> fig1 =
      exp::build_named_spec("fig1", 1).expand();
  ASSERT_EQ(fig1.size(), 7u);
  for (const exp::GridPoint& point : fig1) {
    SCOPED_TRACE(point.label());
    const PlatformSpec& platform = point.scenario.platform;
    EXPECT_EQ(platform.pfs_bandwidth,
              units::gb_per_s(point.coord("pfs_bandwidth_gbps").value));
    EXPECT_EQ(platform.node_mtbf, units::years(2));
  }
}

TEST(SpecRegistry, KeysAndExperimentNamesAreUniqueAndRoundTrip) {
  std::set<std::string> keys;
  std::set<std::string> experiments;
  for (const exp::NamedSpec& entry : exp::spec_registry()) {
    SCOPED_TRACE(entry.name);
    const std::string experiment = exp::build_named_spec(entry.name, 1).name();
    EXPECT_TRUE(keys.insert(entry.name).second);
    EXPECT_TRUE(experiments.insert(experiment).second);
    EXPECT_EQ(exp::find_spec_by_experiment(experiment), &entry);
  }
  EXPECT_EQ(exp::find_spec_by_experiment("no_such_experiment"), nullptr);
  EXPECT_THROW(exp::build_named_spec("no_such_key", 1), Error);
}

TEST(SpecRegistry, EveryRendererRunsOnATwoReplicaReport) {
  for (const exp::NamedSpec& entry : exp::spec_registry()) {
    SCOPED_TRACE(entry.name);
    std::ostringstream os;
    EXPECT_NO_THROW(entry.render(report_at_2(entry.name), os));
    EXPECT_FALSE(os.str().empty());
  }
}

}  // namespace
}  // namespace coopcr
