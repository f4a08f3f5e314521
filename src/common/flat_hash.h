#ifndef CONQUER_COMMON_FLAT_HASH_H_
#define CONQUER_COMMON_FLAT_HASH_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace conquer {

/// Finalizing mixer (splitmix64): spreads entropy of a raw hash over all 64
/// bits. Flat tables index with the *low* bits of the mixed hash while the
/// partitioned parallel operators route with the *high* bits, so bucket
/// choice inside a partition stays independent of partition choice.
inline uint64_t HashMix(uint64_t h) {
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

/// Partition index from a mixed hash: the top bits, so it never correlates
/// with the in-table probe position (low bits). `num_partitions` need not be
/// a power of two.
inline size_t HashPartition(uint64_t mixed, size_t num_partitions) {
  // Multiply-shift map of the high 32 bits onto [0, num_partitions).
  return static_cast<size_t>(((mixed >> 32) * num_partitions) >> 32);
}

/// \brief Open-addressing hash map: linear probing, power-of-two capacity,
/// precomputed 64-bit hashes stored next to the entries.
///
/// The probe directory holds, per slot, an entry index and the high 32 bits
/// of that entry's mixed hash, so a probe passes over other keys without
/// touching the entry array (the low bits pick the slot).
///
/// Designed for the executor's build-then-probe pattern (hash join builds,
/// aggregation group tables, hash indexes):
///   - no erase, hence no tombstones — rehash is a clean reinsertion;
///   - `*Hashed` entry points accept a caller-computed raw hash so a key is
///     hashed exactly once even when the same hash also routes the key to a
///     parallel partition;
///   - pointers to mapped values are stable only while no insert happens,
///     which the operators respect (probe/finalize phases never insert).
///
/// Not thread-safe; each parallel partition owns a private map.
template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class FlatHashMap {
 public:
  struct Entry {
    uint64_t hash;  ///< mixed hash of `key`
    K key;
    V value;
  };

  FlatHashMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Number of slots currently allocated (power of two, or 0).
  size_t capacity() const { return slots_.size(); }

  void clear() {
    slots_.clear();
    entries_.clear();
    size_ = 0;
  }

  /// Pre-sizes the table for `n` entries so inserts never rehash below that
  /// count. Call with table statistics (row counts) before a build phase.
  void Reserve(size_t n) {
    entries_.reserve(n);
    size_t want = NextPow2(n * 4 / 3 + 1);
    if (want > slots_.size()) Rehash(want);
  }

  /// Finds the mapped value, or nullptr.
  V* Find(const K& key) { return FindHashed(hasher_(key), key); }
  const V* Find(const K& key) const {
    return const_cast<FlatHashMap*>(this)->FindHashed(hasher_(key), key);
  }

  /// Find with a caller-computed *raw* hash (the map applies its own mixer).
  V* FindHashed(uint64_t raw_hash, const K& key) {
    return FindHashedAs(raw_hash, key, eq_);
  }

  /// FindHashed for a probe held in another form than K (say, a key laid
  /// out in a caller's flat buffer): `eq(stored_key, probe)` decides
  /// equality, and `raw_hash` must be the hash the probe's K form has.
  template <typename Probe, typename ProbeEq>
  V* FindHashedAs(uint64_t raw_hash, const Probe& probe, const ProbeEq& eq) {
    if (size_ == 0) return nullptr;
    const uint64_t h = HashMix(raw_hash);
    const size_t mask = slots_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      const uint64_t s = slots_[i];
      if (s == kEmptySlot) return nullptr;
      if (!SlotMayHold(s, h)) continue;
      Entry& e = entries_[SlotIndex(s)];
      if (e.hash == h && eq(e.key, probe)) return &e.value;
    }
  }
  const V* FindHashed(uint64_t raw_hash, const K& key) const {
    return const_cast<FlatHashMap*>(this)->FindHashed(raw_hash, key);
  }
  template <typename Probe, typename ProbeEq>
  const V* FindHashedAs(uint64_t raw_hash, const Probe& probe,
                        const ProbeEq& eq) const {
    return const_cast<FlatHashMap*>(this)->FindHashedAs(raw_hash, probe, eq);
  }

  /// Inserts a default-constructed value under `key` unless present.
  /// Returns {value pointer, inserted}. The pointer is invalidated by the
  /// next insert.
  std::pair<V*, bool> TryEmplace(K key) {
    uint64_t raw = hasher_(key);
    return TryEmplaceHashed(raw, std::move(key));
  }

  /// TryEmplace with a caller-computed raw hash (hash-once pattern).
  std::pair<V*, bool> TryEmplaceHashed(uint64_t raw_hash, K key) {
    auto [index, inserted] = FindOrInsertHashedAs(
        raw_hash, key, eq_, [&key] { return std::move(key); });
    return {&entries_[index].value, inserted};
  }

  /// Find-or-insert for a probe held in another form than K (see
  /// FindHashedAs): the probe sequence that misses goes on to place the new
  /// entry, whose key is `make_key()` — it must equal `probe` and hash to
  /// `raw_hash`. Returns {entry index, inserted}; an entry's index is its
  /// insertion rank and never changes.
  template <typename Probe, typename ProbeEq, typename MakeKey>
  std::pair<uint32_t, bool> FindOrInsertHashedAs(uint64_t raw_hash,
                                                 const Probe& probe,
                                                 const ProbeEq& eq,
                                                 const MakeKey& make_key) {
    if (NeedsGrow()) Rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
    const uint64_t h = HashMix(raw_hash);
    const size_t mask = slots_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      const uint64_t s = slots_[i];
      if (s == kEmptySlot) {
        const uint32_t index = static_cast<uint32_t>(entries_.size());
        entries_.push_back(Entry{h, make_key(), V{}});
        slots_[i] = MakeSlot(h, index);
        ++size_;
        return {index, true};
      }
      if (!SlotMayHold(s, h)) continue;
      const Entry& e = entries_[SlotIndex(s)];
      if (e.hash == h && eq(e.key, probe)) return {SlotIndex(s), false};
    }
  }

  /// Entries in insertion order (stable across rehashes: a rehash moves only
  /// the slot directory, never the entry array).
  const std::vector<Entry>& entries() const { return entries_; }
  std::vector<Entry>& mutable_entries() { return entries_; }

  /// Approximate heap footprint of the table structure itself (slot
  /// directory + entry array), excluding key/value payload allocations.
  uint64_t StructureBytes() const {
    return slots_.capacity() * sizeof(uint64_t) +
           entries_.capacity() * sizeof(Entry);
  }

 private:
  /// No entry index is ever 0xffffffff, so no occupied slot is all ones.
  static constexpr uint64_t kEmptySlot = ~uint64_t{0};
  static constexpr uint64_t kHashBits = 0xffffffff00000000ull;
  static constexpr size_t kMinSlots = 16;

  static uint64_t MakeSlot(uint64_t h, uint32_t index) {
    return (h & kHashBits) | index;
  }
  static uint32_t SlotIndex(uint64_t slot) {
    return static_cast<uint32_t>(slot);
  }
  /// False when the slot's entry provably has another hash than `h`.
  static bool SlotMayHold(uint64_t slot, uint64_t h) {
    return ((slot ^ h) & kHashBits) == 0;
  }

  static size_t NextPow2(size_t n) {
    size_t p = kMinSlots;
    while (p < n) p <<= 1;
    return p;
  }

  bool NeedsGrow() const {
    // Max load factor 3/4; entries are indexed by uint32_t below 2^32 - 1.
    assert(entries_.size() < 0xffffffffu);
    return slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3;
  }

  void Rehash(size_t new_slots) {
    slots_.assign(new_slots, kEmptySlot);
    const size_t mask = new_slots - 1;
    // No tombstones to skip: every entry is live, reinsert by stored hash.
    for (uint32_t s = 0; s < entries_.size(); ++s) {
      size_t i = entries_[s].hash & mask;
      while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
      slots_[i] = MakeSlot(entries_[s].hash, s);
    }
  }

  /// Probe directory: entry index (low 32 bits) and hash bits (see class
  /// comment), or kEmptySlot.
  std::vector<uint64_t> slots_;
  std::vector<Entry> entries_;   ///< dense storage in insertion order
  size_t size_ = 0;
  [[no_unique_address]] Hash hasher_;
  [[no_unique_address]] Eq eq_;
};

}  // namespace conquer

#endif  // CONQUER_COMMON_FLAT_HASH_H_
