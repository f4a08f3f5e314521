#ifndef CONQUER_STORAGE_CHUNK_INDEX_H_
#define CONQUER_STORAGE_CHUNK_INDEX_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "catalog/schema.h"
#include "storage/chunk.h"
#include "storage/dictionary.h"
#include "types/value.h"

namespace conquer {

/// \brief Per-chunk secondary index over one column, keyed on the column's
/// physical representation (dictionary codes for strings, raw int64 for
/// integers/dates/bools, normalized bit patterns for doubles).
///
/// Each chunk owns an independent slice: two parallel arrays (normalized
/// key, chunk-local row) sorted by (key, row), probed with binary search.
/// Slices are compact (8 + 4 bytes per row) and stay resident under the
/// buffer pool's budget by design, like zone maps: probing an index must
/// never fault column payloads in.
///
/// Maintenance is incremental:
///   - Append feeds the tail slice (the new entry is queued unsorted and
///     folded in by the next probe).
///   - An in-place write (Table::SetValue) invalidates only the touched
///     chunk's slice; the next probe of that chunk rebuilds it from the
///     pinned column payload (the one probe path that faults I/O).
///   - Rechunk/AdoptChunks drop every slice (positions are chunk-relative).
///
/// Probes return a *superset guarantee*, not exactness: every row whose
/// stored value compares equal to a probe under the engine's scan equality
/// (Value::Compare; NaN handled via a wildcard list) is returned, and
/// callers re-verify candidates — against the full predicate for a point
/// lookup, by the hash join's own key check for an index-seeded join probe.
/// NULL rows are never keyed: scan equality matches NULL with nothing. This
/// keeps the normalization rules simple and makes index-on/index-off
/// execution bit-identical.
///
/// Thread-safety: probes run concurrently from parallel queries while lazy
/// tail sorts and rebuilds mutate slice state, so every slice operation
/// takes the per-index mutex. Writes (which append/invalidate) run behind
/// the engine's exclusive admission ticket but share the same lock for
/// simplicity.
class ChunkIndex {
 public:
  /// What a probe value resolved to against this index's key space.
  struct ProbeSpec {
    enum class Kind {
      kKey,   ///< probe the normalized key
      kNone,  ///< provably no stored value can compare equal
    };
    Kind kind = Kind::kNone;
    uint64_t key = 0;
  };

  ChunkIndex(size_t column, DataType type)
      : column_(column), type_(type) {}

  size_t column() const { return column_; }
  DataType type() const { return type_; }

  /// Resolves `v` (a predicate literal or a join key value) to a probe over
  /// this index under scan equality: NULL matches nothing, and a NaN-valued
  /// row compares equal to every numeric. Sets `*unsupported` when no sound
  /// probe exists (the caller must seed every row instead): NaN probes on
  /// numeric columns, and doubles too large to map to a unique int64 key.
  ProbeSpec ResolveProbe(const Value& v, const StringDictionary* dict,
                         bool* unsupported) const;

  /// Grows the slice vector to cover `n` chunks (new slices empty+valid).
  void EnsureChunks(size_t n);

  /// Feeds one appended row into the tail slice, reading the stored
  /// (post intern/widen) representation straight from the chunk's column
  /// payload, which the caller guarantees is resident.
  void AppendStored(size_t chunk, uint32_t local_row, const ColumnVector& cv);

  /// Marks chunk `c`'s slice stale after an in-place write; the next probe
  /// of that chunk rebuilds it from the pinned payload.
  void InvalidateChunk(size_t c);

  /// True when chunk `c`'s slice is valid (probeable without a rebuild).
  bool ChunkValid(size_t c) const;

  /// Probes chunk `c` for every probe of `probes`. Returns false when the
  /// slice is invalid (caller must pin the chunk and call
  /// RebuildAndLookup); on success appends the chunk-local rows matching
  /// any probe, plus the NaN wildcard rows (rows that compare equal to
  /// every probe under Value::Compare), to `out` in ascending order without
  /// duplicates.
  bool TryLookup(size_t c, const std::vector<ProbeSpec>& probes,
                 std::vector<uint32_t>* out) const;

  /// Rebuilds chunk `c`'s slice from the (pinned) column payload, then
  /// performs the lookup. `cv` must be this index's column of chunk `c`.
  void RebuildAndLookup(size_t c, const ColumnVector& cv,
                        const std::vector<ProbeSpec>& probes,
                        std::vector<uint32_t>* out) const;

  /// Rebuilds every invalid slice from `cv_of(c)` (used by CreateIndex and
  /// test helpers). Caller pins chunks as the callback materializes them.
  void RebuildChunk(size_t c, const ColumnVector& cv) const;

  /// Sum of per-chunk distinct keys at last build/sort — an upper bound on
  /// the column's NDV used as a planner fallback estimate.
  size_t approx_num_keys() const;

  uint64_t MemoryBytes() const;

  /// Normalizes one stored double to its key bit pattern (-0.0 folds into
  /// +0.0 so the two compare-equal zeros share a key). NaNs are not keyed
  /// (they live in the wildcard list); callers must check first.
  static uint64_t DoubleKey(double d) {
    if (d == 0.0) d = 0.0;  // -0.0 -> +0.0
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d), "bit-cast size");
    __builtin_memcpy(&bits, &d, sizeof(bits));
    return bits;
  }

 private:
  /// One chunk's key->rows table: parallel (key, row) arrays sorted by
  /// (key, row), plus the NaN rows binary search cannot serve. NULL rows
  /// are in neither.
  struct Slice {
    std::vector<uint64_t> keys;
    std::vector<uint32_t> rows;       ///< parallel to keys, chunk-local
    std::vector<uint32_t> wildcards;  ///< NaN rows (scan-equal to anything)
    size_t sorted_limit = 0;  ///< prefix of keys/rows in sorted order
    bool valid = true;        ///< false after an in-place write
    size_t distinct = 0;      ///< distinct keys at last sort (estimate)
  };

  /// Requires mu_ held. Folds the unsorted tail in and recounts distinct.
  void SortSliceLocked(Slice* s) const;
  /// Requires mu_ held. Repopulates `s` from the raw column payload.
  void RebuildSliceLocked(Slice* s, const ColumnVector& cv) const;
  /// Requires mu_ held. Appends the matches of `probes` to `out` (see
  /// TryLookup).
  void LookupSliceLocked(const Slice& s, const std::vector<ProbeSpec>& probes,
                         std::vector<uint32_t>* out) const;
  /// Normalizes one stored (non-null) payload entry to its key; false when
  /// the value is a NaN (wildcard, not keyed).
  bool KeyOfStored(const ColumnVector& cv, size_t row, uint64_t* key) const;

  size_t column_;
  DataType type_;
  mutable std::mutex mu_;
  mutable std::vector<Slice> slices_;
};

}  // namespace conquer

#endif  // CONQUER_STORAGE_CHUNK_INDEX_H_
