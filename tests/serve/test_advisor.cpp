// serve::Advisor: the cache determinism contract — the same query (in any
// coordinate order) returns byte-identical answer text, the second from
// the cache without re-evaluating; fallback answers are cached too, so a
// repeated out-of-hull query never spawns a second campaign; a query can
// never be answered from another query's cache entry; and the rendered
// answer/stats documents parse back with the promised shape. A seeded
// mutation fuzz of the real smoke queries holds AdvisorQuery::from_json
// and canonical() to their contract: parse into a query with unique
// coords, or throw coopcr::Error — and distinct queries never share a
// canonical form.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "coopcr.hpp"

namespace coopcr {
namespace {

std::string demo_artifact() {
  exp::ExperimentSpec spec = exp::build_named_spec("demo", 2);
  const exp::ExperimentReport report =
      exp::SweepRunner(/*threads=*/1).run(spec);
  std::ostringstream oss;
  report.write_json(oss);
  return oss.str();
}

serve::AdvisorOptions fast_options() {
  serve::AdvisorOptions options;
  options.engine.fallback_replicas = 2;
  options.engine.executor.threads = 1;
  return options;
}

TEST(Advisor, RepeatedQueriesAreByteIdenticalAndServedFromCache) {
  serve::Advisor advisor(fast_options());
  ASSERT_TRUE(advisor.ingest_text(demo_artifact(), "demo.json"));

  const std::string first = advisor.answer_json(
      "{\"coords\":{\"pfs_bandwidth_gbps\":80,\"interference_alpha\":0.5}}");
  // Same query, coords in the opposite order and different spacing-free
  // member order — canonicalisation must map it to the same cache slot.
  const std::string second = advisor.answer_json(
      "{\"coords\":{\"interference_alpha\":0.5,\"pfs_bandwidth_gbps\":80}}");

  EXPECT_EQ(first, second);  // byte-identical
  EXPECT_EQ(advisor.stats().queries, 2u);
  EXPECT_EQ(advisor.stats().cache_hits, 1u);
  EXPECT_EQ(advisor.stats().cache_misses, 1u);
  // The engine evaluated exactly once — the second answer did no work.
  EXPECT_EQ(advisor.engine_counters().interpolated, 1u);
  EXPECT_EQ(advisor.engine_counters().computed, 0u);
}

TEST(Advisor, CachedFallbackDoesNotSpawnASecondCampaign) {
  serve::Advisor advisor(fast_options());
  ASSERT_TRUE(advisor.ingest_text(demo_artifact(), "demo.json"));

  const std::string query =
      "{\"coords\":{\"pfs_bandwidth_gbps\":160,\"interference_alpha\":0.5}}";
  const std::string first = advisor.answer_json(query);
  EXPECT_EQ(advisor.engine_counters().computed, 1u);

  const std::string second = advisor.answer_json(query);
  EXPECT_EQ(first, second);
  EXPECT_EQ(advisor.engine_counters().computed, 1u);  // still one campaign
  EXPECT_EQ(advisor.stats().cache_hits, 1u);
}

TEST(Advisor, AnswerDocumentHasThePromisedShape) {
  serve::Advisor advisor(fast_options());
  ASSERT_TRUE(advisor.ingest_text(demo_artifact(), "demo.json"));

  const std::string text = advisor.answer_json(
      "{\"experiment\":\"sweep_demo\","
      "\"coords\":{\"pfs_bandwidth_gbps\":80,\"interference_alpha\":0.5},"
      "\"metric\":\"waste_ratio\"}");
  const JsonValue doc = JsonValue::parse(text);
  EXPECT_EQ(doc.at("answer_version").as_int(),
            serve::AdvisorAnswer::kAnswerVersion);
  EXPECT_EQ(doc.at("experiment").as_string(), "sweep_demo");
  EXPECT_EQ(doc.at("metric").as_string(), "waste_ratio");
  EXPECT_EQ(doc.at("source").as_string(), "interpolated");
  EXPECT_FALSE(doc.at("higher_is_better").as_bool());
  // Coords echo in grid axis order.
  const auto& coords = doc.at("coords").as_object();
  ASSERT_EQ(coords.size(), 2u);
  EXPECT_EQ(coords[0].first, "pfs_bandwidth_gbps");
  EXPECT_EQ(coords[0].second.as_double(), 80.0);
  // best mirrors ranking[0] and carries the period recommendations.
  const JsonValue& best = doc.at("best");
  const auto& ranking = doc.at("ranking").as_array();
  ASSERT_EQ(ranking.size(), 2u);
  EXPECT_EQ(best.at("strategy").as_string(),
            ranking[0].at("strategy").as_string());
  EXPECT_EQ(best.at("value").as_double(), ranking[0].at("value").as_double());
  EXPECT_FALSE(best.at("periods").as_array().empty());
  for (const JsonValue& period : best.at("periods").as_array()) {
    EXPECT_GT(period.at("seconds").as_double(), 0.0);
  }
  // Answers carry nothing volatile.
  EXPECT_FALSE(doc.has("stats"));
  EXPECT_EQ(text.find("latency"), std::string::npos);
}

TEST(Advisor, StatsDocumentCarriesTheCounters) {
  serve::Advisor advisor(fast_options());
  ASSERT_TRUE(advisor.ingest_text(demo_artifact(), "demo.json"));
  advisor.answer_json(
      "{\"coords\":{\"pfs_bandwidth_gbps\":80,\"interference_alpha\":0.5}}");

  const JsonValue stats =
      JsonValue::parse(advisor.stats().to_json()).at("stats");
  EXPECT_EQ(stats.at("queries").as_int(), 1);
  EXPECT_EQ(stats.at("cache_misses").as_int(), 1);
  EXPECT_EQ(stats.at("interpolated").as_int(), 1);
  EXPECT_EQ(stats.at("computed").as_int(), 0);
  EXPECT_GT(stats.at("last_latency_ms").as_double(), 0.0);
  EXPECT_GE(stats.at("total_latency_ms").as_double(),
            stats.at("last_latency_ms").as_double());
}

TEST(Advisor, MalformedQueriesThrow) {
  serve::Advisor advisor(fast_options());
  ASSERT_TRUE(advisor.ingest_text(demo_artifact(), "demo.json"));
  EXPECT_THROW(advisor.answer_json("not json"), Error);
  EXPECT_THROW(advisor.answer_json("{\"coords\":{}}"), Error);
  EXPECT_THROW(advisor.answer_json(
                   "{\"coords\":{\"pfs_bandwidth_gbps\":80,"
                   "\"interference_alpha\":0.5},\"surprise\":1}"),
               Error);
}

TEST(Advisor, QueryCanonicalisationAndCacheEviction) {
  serve::AdvisorQuery a;
  a.coords = {{"x", 1.0}, {"y", 2.0}};
  serve::AdvisorQuery b;
  b.coords = {{"y", 2.0}, {"x", 1.0}};
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.digest(), b.digest());
  serve::AdvisorQuery c = a;
  c.metric = "efficiency";
  EXPECT_NE(a.digest(), c.digest());

  serve::QueryCache cache(/*capacity=*/2);
  cache.insert(1, "one");
  cache.insert(2, "two");
  ASSERT_NE(cache.lookup(1), nullptr);  // 1 is now most-recently-used
  cache.insert(3, "three");             // evicts 2
  EXPECT_EQ(cache.lookup(2), nullptr);
  ASSERT_NE(cache.lookup(1), nullptr);
  EXPECT_EQ(*cache.lookup(3), "three");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(Advisor, SeparatorsInAMemberCannotHitAnotherQuerysCacheEntry) {
  // The canonical form used to join members with bare '|' and '=', so a
  // metric that spelled out a coordinate shared the digest of the valid
  // query holding that coordinate — and was answered from its cache entry.
  serve::Advisor advisor(fast_options());
  ASSERT_TRUE(advisor.ingest_text(demo_artifact(), "demo.json"));
  const std::string valid =
      "{\"metric\":\"waste_ratio\",\"coords\":{\"pfs_bandwidth_gbps\":80,"
      "\"interference_alpha\":0.5}}";
  const std::string smuggled =
      "{\"metric\":\"waste_ratio|interference_alpha=0.5\","
      "\"coords\":{\"pfs_bandwidth_gbps\":80}}";
  EXPECT_NE(serve::AdvisorQuery::from_json(valid).canonical(),
            serve::AdvisorQuery::from_json(smuggled).canonical());

  EXPECT_THROW(advisor.answer_json(smuggled), Error);  // cold
  advisor.answer_json(valid);
  EXPECT_THROW(advisor.answer_json(smuggled), Error);  // warm: same refusal
  EXPECT_EQ(advisor.stats().cache_hits, 0u);
}

// --- query parser fuzz ------------------------------------------------------

std::vector<std::string> smoke_queries() {
  std::ifstream in(COOPCR_SOURCE_DIR "/tools/advisor_smoke_queries.jsonl");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// What a canonical form must tell apart: experiment, metric and the coords
/// sorted by axis name.
using QueryKey = std::tuple<std::string, std::string,
                            std::vector<std::pair<std::string, double>>>;

QueryKey key_of(const serve::AdvisorQuery& query) {
  std::vector<std::pair<std::string, double>> coords = query.coords;
  std::sort(coords.begin(), coords.end());
  return {query.experiment, query.metric, std::move(coords)};
}

struct QueryFuzzTally {
  int parsed = 0;
  int refused = 0;
};

/// Seeded mutation fuzz of AdvisorQuery::from_json over the smoke queries.
/// Each input takes 1-3 byte flips, inserts (biased toward JSON and the old
/// '|'/'=' separators), deletes, cross-query splices, truncations, inserted
/// string members, or a coordinate moved into the metric or experiment
/// string as "|axis=value". The unmutated queries join the run. The
/// property: every input throws coopcr::Error or parses into a query with
/// non-empty, unique coords, and no two distinct parsed queries of the run
/// share a canonical() form.
QueryFuzzTally fuzz_query_parser(std::uint64_t seed, int inputs) {
  static const std::vector<std::string> corpus = smoke_queries();
  EXPECT_FALSE(corpus.empty()) << "no smoke queries to mutate";
  if (corpus.empty()) return {};
  const char* const members[] = {"experiment", "metric"};
  const char* const strings[] = {"waste_ratio", "sweep_demo", "",  "|",
                                 "=",           "\\\"",      "a|b=1"};
  std::mt19937_64 rng(seed);
  // Every draw is its own statement: argument evaluation order is
  // unspecified, and a pinned seed must mean the same inputs everywhere.
  const auto below = [&rng](std::size_t n) { return n == 0 ? 0 : rng() % n; };
  std::map<std::string, std::pair<QueryKey, std::string>> seen;
  QueryFuzzTally tally;
  const auto check = [&](const std::string& text) {
    serve::AdvisorQuery query;
    try {
      query = serve::AdvisorQuery::from_json(text);
    } catch (const Error&) {
      ++tally.refused;
      return;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "escaped as a non-coopcr exception: " << e.what()
                    << "\ninput: " << text;
      return;
    } catch (...) {
      ADD_FAILURE() << "escaped as a non-exception:\n" << text;
      return;
    }
    ++tally.parsed;
    QueryKey key = key_of(query);
    const auto& coords = std::get<2>(key);
    EXPECT_FALSE(coords.empty()) << "parsed with no coords: " << text;
    for (std::size_t i = 1; i < coords.size(); ++i) {
      EXPECT_NE(coords[i - 1].first, coords[i].first)
          << "parsed with a duplicate coord: " << text;
    }
    const auto [it, fresh] =
        seen.try_emplace(query.canonical(), std::move(key), text);
    EXPECT_TRUE(fresh || it->second.first == key_of(query))
        << "distinct queries share a canonical form:\n  " << it->second.second
        << "\n  " << text << "\n  canonical: " << it->first;
  };

  for (const std::string& query : corpus) check(query);
  for (int i = 0; i < inputs; ++i) {
    std::string text = corpus[below(corpus.size())];
    for (std::size_t m = 1 + below(3); m > 0; --m) {
      const std::size_t at = below(text.size() + 1);
      switch (below(7)) {
        case 0:  // flip one bit of one byte
          if (at < text.size()) text[at] ^= static_cast<char>(1u << below(8));
          break;
        case 1:  // insert a byte, biased toward JSON and the old separators
          text.insert(at, 1,
                      below(2) == 0 ? "{}[]:,\"\\-.eE0123456789|="[below(24)]
                                    : static_cast<char>(below(256)));
          break;
        case 2:  // delete a run of bytes
          text.erase(at, 1 + below(8));
          break;
        case 3: {  // splice: a prefix of this input onto another query's suffix
          const std::string& other = corpus[below(corpus.size())];
          const std::size_t from = below(other.size());
          text = text.substr(0, at) + other.substr(from);
          break;
        }
        case 4:  // truncate
          text.resize(at);
          break;
        case 5: {  // a string member at the front of an object
          const std::size_t brace = text.find('{', at);
          if (brace == std::string::npos) break;
          const std::string name = members[below(std::size(members))];
          const std::string value = strings[below(std::size(strings))];
          text.insert(brace + 1, "\"" + name + "\":\"" + value + "\",");
          break;
        }
        default: {  // move the first coord into a string member's text
          const std::string coords_key = "\"coords\":{";
          const std::size_t open = text.find(coords_key);
          if (open == std::string::npos) break;
          const std::size_t start = open + coords_key.size();
          const std::size_t end = text.find_first_of(",}", start);
          const std::size_t colon = text.find("\":", start);
          if (end == std::string::npos || colon == std::string::npos ||
              colon >= end || text[start] != '"') {
            break;
          }
          const std::string axis = text.substr(start + 1, colon - start - 1);
          const std::string value = text.substr(colon + 2, end - colon - 2);
          text.erase(start, end - start + (text[end] == ',' ? 1 : 0));
          const std::size_t close = text.rfind('}');
          if (close == std::string::npos) break;
          const std::string name = members[below(std::size(members))];
          text.insert(close, ",\"" + name + "\":\"|" + axis + "=" + value +
                                 "\"");
        }
      }
    }
    check(text);
  }
  return tally;
}

TEST(AdvisorQueryFuzz, PinnedSeedsParseOrRefuseAndNeverCollide) {
  for (const std::uint64_t seed : {0x1ull, 0x5EEDull, 0xA27F4C7ull}) {
    SCOPED_TRACE(seed);
    const QueryFuzzTally tally = fuzz_query_parser(seed, 2000);
    // Both outcomes are exercised, not just refusals.
    EXPECT_GT(tally.parsed, 300);
    EXPECT_GT(tally.refused, 900);
  }
}

TEST(AdvisorQueryFuzz, FreshSeedParsesOrRefusesAndNeverCollides) {
  // A new seed per run widens coverage over time; it is echoed so a failure
  // can be pinned in the test above.
  const std::uint64_t seed =
      (static_cast<std::uint64_t>(std::random_device{}()) << 32) ^
      std::random_device{}();
  std::cout << "advisor query fuzz fresh seed: 0x" << std::hex << seed
            << std::dec << std::endl;
  SCOPED_TRACE(seed);
  fuzz_query_parser(seed, 2000);
}

}  // namespace
}  // namespace coopcr
