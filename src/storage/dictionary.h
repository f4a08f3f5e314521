#ifndef CONQUER_STORAGE_DICTIONARY_H_
#define CONQUER_STORAGE_DICTIONARY_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>

#include "common/flat_hash.h"
#include "types/value.h"

namespace conquer {

/// \brief Per-column string interning pool.
///
/// Every distinct string of a column is stored once; rows carry
/// `Value::Interned` references (stable `const std::string*` plus the
/// precomputed hash), so string equality in joins and group-bys is a pointer
/// compare and hashing is an array lookup instead of a byte scan.
///
/// Codes are dense and assigned in first-intern order; an existing string's
/// code never changes (`AnalyzeStatistics` may re-intern rows freely).
/// Entry storage is a deque so the `std::string*` handed to values stays
/// valid as the dictionary grows.
///
/// Thread-safety: Intern/InternValue/Find/size/MemoryBytes are mutually
/// thread-safe (one mutex). The per-code accessors (StringAt/HashAt/
/// ValueAt) are lock-free and must not run concurrently with interning —
/// they index `hashes_`, which can reallocate on growth. The Database's
/// admission gate enforces exactly that split: writes (which intern) run
/// exclusively, queries (which only Find and decode codes) share. The query path never interns: a literal that misses the
/// dictionary proves no stored row can match it.
class StringDictionary {
 public:
  static constexpr uint32_t kInvalidCode = 0xffffffffu;

  /// Code of `s`, interning it first if absent.
  uint32_t Intern(std::string_view s);

  /// Code of `s` without interning, or kInvalidCode. Predicate constants
  /// resolve through this: a miss proves no row of the column can match.
  uint32_t Find(std::string_view s) const;

  /// Precondition for the accessors: `code < size()` and no concurrent
  /// interning (see class comment).
  const std::string* StringAt(uint32_t code) const { return &entries_[code]; }
  size_t HashAt(uint32_t code) const { return hashes_[code]; }

  /// The interned Value for a code (what scans place into rows).
  Value ValueAt(uint32_t code) const {
    return Value::Interned(&entries_[code], hashes_[code]);
  }

  /// Interns `s` and returns its interned Value in one step (one lock).
  Value InternValue(std::string_view s);

  /// Number of distinct strings interned so far.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  /// Approximate heap footprint (entries + hash array + lookup table).
  uint64_t MemoryBytes() const;

 private:
  /// Requires mu_ held.
  uint32_t InternLocked(std::string_view s);

  mutable std::mutex mu_;            ///< guards all three containers
  std::deque<std::string> entries_;  ///< deque: grow never moves strings
  std::vector<size_t> hashes_;      ///< std::hash<std::string> per entry
  /// Lookup keyed by views into entries_ (stable), valued by code.
  FlatHashMap<std::string_view, uint32_t> lookup_;
};

}  // namespace conquer

#endif  // CONQUER_STORAGE_DICTIONARY_H_
