#include "serve/query_cache.hpp"

#include <utility>

namespace coopcr::serve {

const std::string* QueryCache::lookup(const std::string& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return &it->second->answer;
}

void QueryCache::insert(const std::string& key, std::string answer_json) {
  if (capacity_ == 0) return;
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second->answer = std::move(answer_json);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (entries_.size() >= capacity_) {
    entries_.erase(lru_.back().key);
    lru_.pop_back();
  }
  lru_.push_front(Entry{key, std::move(answer_json)});
  entries_[key] = lru_.begin();
}

}  // namespace coopcr::serve
