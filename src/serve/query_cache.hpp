// coopcr/serve/query_cache.hpp
//
// LRU cache of rendered advisor answers, keyed by the canonical query text.
//
// The cache stores the *rendered* answer text, not the AdvisorAnswer
// object: a hit returns the exact bytes the first evaluation produced, so
// repeated queries are byte-identical by construction — the determinism
// contract cli/coopcr_advisor's golden tests pin down. Keys are
// AdvisorQuery::canonical() itself — it sorts coords, so coordinate order
// does not fragment the cache, and two distinct queries can never share an
// entry (a fixed-width digest of the text could collide).

#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

namespace coopcr::serve {

/// Fixed-capacity LRU map: canonical query text -> rendered answer JSON.
class QueryCache {
 public:
  /// `capacity` 0 disables caching (every lookup misses, inserts no-op).
  explicit QueryCache(std::size_t capacity = 256) : capacity_(capacity) {}

  /// The cached answer for `key`, or nullptr on a miss. A hit marks the
  /// entry most-recently-used. Counts toward hits()/misses().
  const std::string* lookup(const std::string& key);

  /// Insert (or refresh) the answer for `key`, evicting the
  /// least-recently-used entry when full.
  void insert(const std::string& key, std::string answer_json);

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    std::string key;
    std::string answer;
  };

  std::size_t capacity_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace coopcr::serve
