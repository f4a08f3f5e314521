#ifndef CONQUER_ENGINE_PLAN_CACHE_H_
#define CONQUER_ENGINE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "plan/binder.h"

namespace conquer {

/// Cache effectiveness counters (monotone except `entries`).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidated = 0;  ///< entries discarded by a catalog-epoch bump
  uint64_t evicted = 0;      ///< entries discarded by LRU capacity pressure
  size_t entries = 0;

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// \brief Thread-safe LRU cache of bound query templates.
///
/// Keyed on normalized SQL (NormalizeSql), so textual variants of one query
/// share an entry. The cache stores BoundQuery master copies — parse+bind is
/// the work it skips; planning still runs per execution because physical
/// operator trees are stateful and borrow expressions from their BoundQuery.
/// Lookup therefore hands out a deep Clone of the master, never the master
/// itself.
///
/// Entries are tagged with the catalog epoch they were bound under
/// (Database::catalog_version). A cached BoundQuery holds raw Table
/// pointers and reflects the statistics current at bind time, so any
/// CreateTable/DropTable/Analyze makes it stale: lookups carrying a newer
/// epoch drop the stale entry and report a miss.
class PlanCache {
 public:
  /// `capacity` is clamped to at least 1.
  explicit PlanCache(size_t capacity);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns a clone of the cached bound query for `key`, provided the
  /// entry was bound at `epoch`. A stale entry is erased (counted as
  /// `invalidated`) and the lookup reports a miss.
  std::optional<BoundQuery> Lookup(const std::string& key, uint64_t epoch);

  /// Stores (replacing any existing entry for `key`) and evicts the least
  /// recently used entry when over capacity.
  void Insert(const std::string& key, uint64_t epoch, BoundQuery bound);

  PlanCacheStats stats() const;

 private:
  struct Entry {
    std::string key;
    uint64_t epoch = 0;
    BoundQuery bound;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  /// Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  PlanCacheStats stats_;
};

}  // namespace conquer

#endif  // CONQUER_ENGINE_PLAN_CACHE_H_
