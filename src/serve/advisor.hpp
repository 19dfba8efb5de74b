// coopcr/serve/advisor.hpp
//
// The checkpoint advisor: store + engine + cache behind one call.
//
// Advisor owns a GridStore (ingest artifacts once, at startup), a
// QueryEngine (interpolate or fall back to an on-demand campaign) and a
// QueryCache (LRU of rendered answers keyed by canonical query text), and
// exposes the one operation cli/coopcr_advisor loops on: JSON query text
// in, JSON answer text out. Determinism contract: for a fixed ingested
// store and engine options, the same query always returns byte-identical
// answer text — a cache hit returns the first evaluation's exact bytes,
// and answers carry no volatile data. Everything volatile (latencies,
// hit/miss and interpolated/computed counters) accumulates in AdvisorStats,
// rendered as a separate JSON "stats" document for the CLI's stderr.

#pragma once

#include <cstdint>
#include <string>

#include "serve/grid_store.hpp"
#include "serve/query.hpp"
#include "serve/query_cache.hpp"
#include "serve/query_engine.hpp"

namespace coopcr::serve {

/// Volatile service counters — never part of an answer document.
struct AdvisorStats {
  std::uint64_t queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t interpolated = 0;
  std::uint64_t computed = 0;
  double last_latency_ms = 0.0;
  double total_latency_ms = 0.0;

  /// {"stats":{"queries":...,"cache_hits":...,"cache_misses":...,
  ///  "interpolated":...,"computed":...,"last_latency_ms":...,
  ///  "total_latency_ms":...}} — one line, for the CLI's stderr.
  std::string to_json() const;
};

struct AdvisorOptions {
  EngineOptions engine;
  std::size_t cache_capacity = 256;
};

/// One advisor instance: ingest, then answer.
class Advisor {
 public:
  explicit Advisor(AdvisorOptions options = {});

  // The engine holds a reference into the owned store.
  Advisor(const Advisor&) = delete;
  Advisor& operator=(const Advisor&) = delete;

  /// GridStore ingestion pass-throughs (startup phase — ingesting after
  /// queries started would make cached and fresh answers diverge).
  bool ingest_file(const std::string& path);
  bool ingest_text(const std::string& text, const std::string& label);
  std::size_t ingest_dir(const std::string& dir);

  /// Answer a parsed query; cached by its canonical text.
  std::string answer(const AdvisorQuery& query);

  /// Parse one single-line JSON query and answer it.
  std::string answer_json(const std::string& query_json);

  const GridStore& store() const { return store_; }
  const QueryEngine::Counters& engine_counters() const {
    return engine_.counters();
  }
  const AdvisorStats& stats() const { return stats_; }

 private:
  GridStore store_;
  QueryEngine engine_;
  QueryCache cache_;
  AdvisorStats stats_;
};

}  // namespace coopcr::serve
