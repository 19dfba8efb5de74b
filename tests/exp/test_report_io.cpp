// exp/report_io.hpp loader: a freshly-emitted v4 artifact parses back into
// the exact summaries the report computed (candlesticks, the per-summary
// standard error, metric emission order), and the strict schema_version
// contract rejects foreign or stale documents with errors naming the file
// and the offending version. A seeded mutation fuzz holds the parser to its
// contract on malformed input: parse, or throw coopcr::Error naming the file.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "coopcr.hpp"

namespace coopcr {
namespace {

exp::ExperimentReport tiny_report() {
  exp::ExperimentSpec spec(ScenarioBuilder::cielo_apex(/*seed=*/31)
                               .min_makespan(units::days(6))
                               .segment(units::days(1), units::days(5)),
                           "io_roundtrip");
  MonteCarloOptions options;
  options.replicas = 3;
  spec.pfs_bandwidth_axis({60, 100})
      .strategies({oblivious_daly(), least_waste()})
      .options(options);
  return exp::SweepRunner(/*threads=*/1).run(spec);
}

std::string json_bytes(const exp::ExperimentReport& report) {
  std::ostringstream oss;
  report.write_json(oss);
  return oss.str();
}

TEST(ReportIo, RoundTripsTheEmittedDocument) {
  const exp::ExperimentReport report = tiny_report();
  const exp::LoadedReport loaded =
      exp::parse_report_json(json_bytes(report), "<mem>");

  EXPECT_EQ(loaded.schema_version, exp::ExperimentReport::kSchemaVersion);
  EXPECT_EQ(loaded.name, "io_roundtrip");
  EXPECT_EQ(loaded.replicas, 3);
  ASSERT_EQ(loaded.axes, std::vector<std::string>{"pfs_bandwidth_gbps"});
  ASSERT_EQ(loaded.points.size(), 2u);

  for (std::size_t p = 0; p < loaded.points.size(); ++p) {
    const exp::LoadedPoint& lp = loaded.points[p];
    const exp::PointResult& pr = report.at(p);
    EXPECT_EQ(lp.index, pr.point.index);
    ASSERT_EQ(lp.coords.size(), 1u);
    EXPECT_EQ(lp.coords[0].axis, "pfs_bandwidth_gbps");
    EXPECT_EQ(lp.coords[0].value, pr.point.coords[0].value);
    ASSERT_EQ(lp.strategies.size(), pr.report.outcomes.size());
    for (std::size_t s = 0; s < lp.strategies.size(); ++s) {
      const StrategyOutcome& outcome = pr.report.outcomes[s];
      EXPECT_EQ(lp.strategies[s].name, outcome.strategy.name());
      // Metrics come back in emission order, all of them.
      ASSERT_EQ(lp.strategies[s].metrics.size(), exp::all_metrics().size());
      for (std::size_t m = 0; m < exp::all_metrics().size(); ++m) {
        EXPECT_EQ(lp.strategies[s].metrics[m].first,
                  exp::metric_name(exp::all_metrics()[m]));
      }
      // Candlestick + se round-trip exactly (17-digit emission).
      const SampleSet& samples =
          exp::metric_samples(outcome, exp::Metric::kWasteRatio);
      const Candlestick expected = samples.candlestick();
      const exp::LoadedSummary& summary =
          lp.strategies[s].metric("waste_ratio");
      EXPECT_EQ(summary.candle.mean, expected.mean);
      EXPECT_EQ(summary.candle.d1, expected.d1);
      EXPECT_EQ(summary.candle.q3, expected.q3);
      EXPECT_EQ(summary.candle.n, expected.n);
      EXPECT_EQ(summary.se,
                samples.stddev() /
                    std::sqrt(static_cast<double>(samples.size())));
      EXPECT_GT(summary.se, 0.0);
    }
    EXPECT_EQ(lp.baseline_useful.candle.mean,
              pr.report.baseline_useful.candlestick().mean);
  }
}

TEST(ReportIo, MetricLookupThrowsOnUnknownNames) {
  const exp::LoadedReport loaded =
      exp::parse_report_json(json_bytes(tiny_report()), "<mem>");
  EXPECT_THROW(loaded.points[0].strategies[0].metric("no_such_metric"),
               Error);
}

TEST(ReportIo, RejectsUnknownSchemaVersionsNamingFileAndVersion) {
  std::string text = json_bytes(tiny_report());
  const std::string needle = "\"schema_version\":5";
  const std::size_t pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"schema_version\":99");
  try {
    exp::parse_report_json(text, "future.json");
    FAIL() << "expected a schema_version rejection";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("future.json"), std::string::npos) << what;
    EXPECT_NE(what.find("99"), std::string::npos) << what;
  }
}

TEST(ReportIo, RejectsDocumentsWithoutSchemaVersion) {
  // A pre-v4 artifact: no schema_version member at all.
  EXPECT_THROW(
      exp::parse_report_json(
          "{\"name\":\"old\",\"replicas\":1,\"axes\":[],\"points\":[]}",
          "old.json"),
      Error);
}

TEST(ReportIo, LoadNamesTheFileOnIoErrors) {
  try {
    exp::load_report_json("/nonexistent/report.json");
    FAIL() << "expected an I/O error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/report.json"),
              std::string::npos);
  }
}

// --- mutation fuzz ----------------------------------------------------------

struct FuzzTally {
  int parsed = 0;
  int refused = 0;
};

/// Seeded mutation fuzz of exp::parse_report_json over one real artifact
/// (the demo grid at 2 replicas). Each input takes 1-3 byte flips, inserts,
/// deletes, self-splices, truncations, duplicated keys or 400-digit
/// numbers. The property: every input parses or throws coopcr::Error naming
/// the artifact; no other exception type may escape.
FuzzTally fuzz_report_parser(std::uint64_t seed, int inputs) {
  static const std::string corpus =
      json_bytes(exp::SweepRunner(1).run(exp::build_named_spec("demo", 2)));
  const char* const keys[] = {"schema_version", "points", "coords", "n"};
  const char* const values[] = {"0", "-1", "\"x\"", "[]", "{}"};
  std::mt19937_64 rng(seed);
  // Every draw is its own statement: argument evaluation order is
  // unspecified, and a pinned seed must mean the same inputs everywhere.
  const auto below = [&rng](std::size_t n) { return n == 0 ? 0 : rng() % n; };
  FuzzTally tally;
  for (int i = 0; i < inputs; ++i) {
    std::string text = corpus;
    for (std::size_t m = 1 + below(3); m > 0; --m) {
      const std::size_t at = below(text.size() + 1);
      switch (below(7)) {
        case 0:  // flip one bit of one byte
          if (at < text.size()) text[at] ^= static_cast<char>(1u << below(8));
          break;
        case 1:  // insert a byte, biased toward the JSON alphabet
          text.insert(at, 1,
                      below(2) == 0 ? "{}[]:,\"\\-.eE0123456789"[below(22)]
                                    : static_cast<char>(below(256)));
          break;
        case 2:  // delete a run of bytes
          text.erase(at, 1 + below(8));
          break;
        case 3:  // splice: a prefix of this input onto a corpus suffix
          text = text.substr(0, at) + corpus.substr(below(corpus.size()));
          break;
        case 4:  // truncate
          text.resize(at);
          break;
        case 5: {  // duplicate a schema key at the front of an object
          const std::size_t brace = text.find('{', at);
          if (brace == std::string::npos) break;
          const std::string key = keys[below(std::size(keys))];
          const std::string value = values[below(std::size(values))];
          text.insert(brace + 1, "\"" + key + "\":" + value + ",");
          break;
        }
        default: {  // a 400-digit number
          std::string digits(400, '0');
          for (char& d : digits) d = static_cast<char>('0' + below(10));
          text.insert(at, digits);
        }
      }
    }
    try {
      exp::parse_report_json(text, "fuzz.json");
      ++tally.parsed;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("fuzz.json"), std::string::npos)
          << "refused without naming the artifact: " << e.what();
      ++tally.refused;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "escaped as a non-coopcr exception: " << e.what()
                    << "\ninput: " << text;
    } catch (...) {
      ADD_FAILURE() << "escaped as a non-exception:\n" << text;
    }
  }
  return tally;
}

TEST(ReportIoFuzz, PinnedSeedsParseOrNameTheArtifact) {
  for (const std::uint64_t seed : {0x1ull, 0x5EEDull, 0xA27F4C7ull}) {
    SCOPED_TRACE(seed);
    const FuzzTally tally = fuzz_report_parser(seed, 1500);
    // Both outcomes are exercised, not just refusals.
    EXPECT_GT(tally.parsed, 150);
    EXPECT_GT(tally.refused, 900);
  }
}

// Regressions found while hardening the parser.

TEST(ReportIoFuzz, IntegerFieldAtTwoToThe63IsRefusedNotWrapped) {
  // 2^63 rounds to the double the int64 range check used as its inclusive
  // upper bound, so it used to pass and convert out of range.
  std::string text = json_bytes(tiny_report());
  const std::string needle = "\"index\":0";
  const std::size_t pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"index\":9223372036854775808");
  EXPECT_THROW(exp::parse_report_json(text, "wide.json"), Error);
}

TEST(ReportIoFuzz, DeepNestingIsRefusedNotAStackOverflow) {
  try {
    exp::parse_report_json(std::string(100000, '['), "deep.json");
    FAIL() << "expected deep nesting to be refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deep.json"), std::string::npos);
  }
}

TEST(ReportIoFuzz, FreshSeedParsesOrNamesTheArtifact) {
  // A new seed per run widens coverage over time; it is echoed so a failure
  // can be pinned in the test above.
  const std::uint64_t seed =
      (static_cast<std::uint64_t>(std::random_device{}()) << 32) ^
      std::random_device{}();
  std::cout << "report artifact fuzz fresh seed: 0x" << std::hex << seed
            << std::dec << std::endl;
  SCOPED_TRACE(seed);
  fuzz_report_parser(seed, 1500);
}

}  // namespace
}  // namespace coopcr
