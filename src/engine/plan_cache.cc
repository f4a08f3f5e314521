#include "engine/plan_cache.h"

#include <algorithm>
#include <utility>

namespace conquer {

PlanCache::PlanCache(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

std::optional<BoundQuery> PlanCache::Lookup(const std::string& key,
                                            uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  if (it->second->epoch != epoch) {
    lru_.erase(it->second);
    index_.erase(it);
    ++stats_.invalidated;
    ++stats_.misses;
    return std::nullopt;
  }
  // Move to MRU position; iterators stay valid across splice.
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return it->second->bound.Clone();
}

void PlanCache::Insert(const std::string& key, uint64_t epoch,
                       BoundQuery bound) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Concurrent misses on one key both insert; last writer wins.
    it->second->epoch = epoch;
    it->second->bound = std::move(bound);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, epoch, std::move(bound)});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evicted;
  }
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanCacheStats s = stats_;
  s.entries = lru_.size();
  return s;
}

}  // namespace conquer
