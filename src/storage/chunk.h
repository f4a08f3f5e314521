#ifndef CONQUER_STORAGE_CHUNK_H_
#define CONQUER_STORAGE_CHUNK_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <list>
#include <memory>
#include <vector>

#include "catalog/schema.h"
#include "storage/dictionary.h"
#include "types/value.h"

namespace conquer {

class BufferPool;
class SegmentCodec;
class SegmentFile;

/// \brief Where an evicted chunk's column payload lives on disk.
///
/// Points into a shared segment file: either the table's persisted `.seg`
/// file (evicted-clean chunks after LoadDatabase) or the buffer pool's
/// anonymous spill file (dirty chunks written back under memory pressure).
struct ChunkBacking {
  std::shared_ptr<SegmentFile> file;  ///< null = payload exists only in RAM
  uint64_t offset = 0;                ///< byte offset of the payload block
  uint64_t length = 0;                ///< serialized payload size in bytes
  /// Allocated extent size (>= length). Spill extents keep their allocated
  /// size across re-spills so a shrinking payload can be rewritten in place;
  /// 0 means "exactly length" (segment-file extents are packed).
  uint64_t alloc = 0;

  bool valid() const { return file != nullptr; }
  uint64_t alloc_length() const { return alloc != 0 ? alloc : length; }
};

/// \brief One tuple: a vector of values aligned with a schema.
using Row = std::vector<Value>;

/// \brief Table-local column positions, ascending and without duplicates:
/// the columns a pin makes resident, and the only ones its holder reads.
using ColumnSet = std::vector<uint32_t>;

/// Adds column `c` to `*cols`, keeping it ascending and without duplicates.
inline void AddColumn(uint32_t c, ColumnSet* cols) {
  auto it = std::lower_bound(cols->begin(), cols->end(), c);
  if (it == cols->end() || *it != c) cols->insert(it, c);
}

/// \brief End-version stamp of a row version that has not been deleted.
inline constexpr uint64_t kVersionMax = UINT64_MAX;

/// \brief Per-chunk, per-column statistics used for scan-time skipping.
///
/// min/max are maintained incrementally on append and only *widened* by
/// in-place writes (Table::SetValue), so they are always a superset of the
/// live value range — pruning against them can never drop a matching chunk.
/// null_count is kept exact. all_distinct is computed by AnalyzeStatistics
/// and cleared pessimistically by any in-place write.
struct ZoneMap {
  Value min;  ///< NULL until the chunk holds a non-null value
  Value max;
  uint32_t null_count = 0;
  bool all_distinct = false;

  bool has_values() const { return !min.is_null(); }

  /// Folds one non-null stored value into min/max.
  void Widen(const Value& v) {
    if (min.is_null() || v.TotalCompare(min) < 0) min = v;
    if (max.is_null() || v.TotalCompare(max) > 0) max = v;
  }
};

/// \brief One column of one chunk: a contiguous typed vector.
///
/// The physical representation is keyed by the schema column type:
/// int64/date/bool share an int64 array, doubles get a double array, and
/// strings store dense dictionary codes. A parallel byte array marks NULLs
/// (the slot in the typed array is a zero placeholder).
class ColumnVector {
 public:
  explicit ColumnVector(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const { return nulls_.size(); }
  bool is_null(size_t i) const { return nulls_[i] != 0; }

  const int64_t* fixed_data() const { return fixed_.data(); }
  const double* double_data() const { return dbl_.data(); }
  const uint32_t* code_data() const { return codes_.data(); }
  const uint8_t* null_data() const { return nulls_.data(); }

  void Reserve(size_t n);

  /// Appends `v`, interning strings through `dict` and widening INT64 into
  /// DOUBLE storage; returns the normalized value as stored (what a reader
  /// will get back), so the caller can fold it into the zone map.
  Value Append(const Value& v, StringDictionary* dict);

  /// Overwrites position `i` (same normalization as Append).
  Value Set(size_t i, const Value& v, StringDictionary* dict);

  /// The stored value at `i`; strings come back interned through `dict`.
  Value GetValue(size_t i, const StringDictionary* dict) const;

  uint64_t MemoryBytes() const {
    return fixed_.capacity() * sizeof(int64_t) +
           dbl_.capacity() * sizeof(double) +
           codes_.capacity() * sizeof(uint32_t) + nulls_.capacity();
  }

 private:
  friend class SegmentCodec;  ///< raw (de)serialization and payload release

  DataType type_;
  std::vector<int64_t> fixed_;   ///< kInt64 / kDate / kBool payloads
  std::vector<double> dbl_;      ///< kDouble payloads
  std::vector<uint32_t> codes_;  ///< kString dictionary codes
  std::vector<uint8_t> nulls_;   ///< 1 = NULL (payload slot is a placeholder)
};

/// \brief A fixed-capacity horizontal partition of a table.
///
/// Columns are stored as independent ColumnVectors; every column of a chunk
/// has exactly num_rows() entries. Each column carries a ZoneMap maintained
/// on append, which scans consult to skip the whole chunk.
class Chunk {
 public:
  Chunk(const TableSchema* schema, size_t capacity);
  /// Deregisters from the owning buffer pool, if any.
  ~Chunk();
  Chunk(const Chunk&) = delete;
  Chunk& operator=(const Chunk&) = delete;

  size_t capacity() const { return capacity_; }
  size_t num_rows() const { return num_rows_; }
  bool full() const { return num_rows_ >= capacity_; }
  size_t num_columns() const { return columns_.size(); }

  /// Column `c`'s payload. Of a pool-managed chunk only the columns the
  /// caller's pin named may be read; reading any other is a bug the
  /// assertion catches whenever that column is not resident.
  const ColumnVector& column(size_t c) const {
    assert(column_resident_[c] != 0);
    return columns_[c];
  }
  const ZoneMap& zone(size_t c) const { return zones_[c]; }

  void Reserve(size_t rows);

  /// Appends one row (caller guarantees arity/types and !full()); interns
  /// strings through the per-column dictionaries and updates zone maps.
  void AppendRow(const Row& row,
                 const std::vector<std::unique_ptr<StringDictionary>>& dicts);

  /// Overwrites one cell, keeping null_count exact, widening min/max and
  /// clearing all_distinct (AnalyzeStatistics restores exact zones).
  void SetValue(size_t row, size_t col, const Value& v, StringDictionary* dict);

  Value GetValue(size_t row, size_t col, const StringDictionary* dict) const {
    return column(col).GetValue(row, dict);
  }

  /// Materializes one row in table-local layout into `*out` (resized to the
  /// chunk arity).
  void MaterializeRow(
      size_t row, Row* out,
      const std::vector<std::unique_ptr<StringDictionary>>& dicts) const;

  /// Recomputes column `c`'s zone map exactly from the stored values
  /// (min/max, null_count, all_distinct). Called by Table::AnalyzeStatistics.
  void RecomputeZone(size_t c, const StringDictionary* dict);

  // ---- MVCC row-version stamps. ----
  //
  // Version vectors are allocated lazily by the first stamped write; a chunk
  // without them holds only rows visible at every snapshot (begin 0, end
  // kVersionMax). Zone maps and dictionaries keep covering dead versions, so
  // pruning stays a conservative superset of any snapshot's visible values.

  bool has_versions() const { return !begin_versions_.empty(); }

  /// Allocates the version vectors, stamping existing rows [0, kVersionMax).
  void EnsureVersions();

  /// Stamps the row's begin version (row becomes visible at `v` and later).
  void StampBegin(size_t row, uint64_t v);

  /// Stamps the row's end version (row is dead at `v` and later).
  void StampEnd(size_t row, uint64_t v);

  uint64_t begin_version(size_t row) const {
    return begin_versions_.empty() ? 0 : begin_versions_[row];
  }
  uint64_t end_version(size_t row) const {
    return end_versions_.empty() ? kVersionMax : end_versions_[row];
  }

  /// True when the row version is live in the given snapshot.
  bool RowVisible(size_t row, uint64_t snapshot) const {
    return begin_version(row) <= snapshot && snapshot < end_version(row);
  }

  // ---- Out-of-core residency (see storage/buffer_pool.h). ----
  //
  // Only the column payloads (typed arrays + null bytes) are evictable, and
  // each column of a chunk is resident or not on its own: a pin faults in
  // just the columns it names. num_rows, capacity, zone maps and MVCC stamps
  // always stay resident so pruning and visibility checks never fault I/O.
  // All residency fields are guarded by the owning pool's mutex; a chunk
  // with no pool is permanently resident. Callers must hold a ChunkPin
  // naming a column before touching that column's data in a pool-managed
  // chunk.

  /// True when every column is in memory (pool mutex required for an
  /// authoritative answer; lock-free reads are for tests/diagnostics only).
  bool payload_resident() const {
    return resident_columns_ == columns_.size();
  }
  /// True when column `c` is in memory (same locking caveat).
  bool column_resident(size_t c) const { return column_resident_[c] != 0; }

  /// Bytes of the resident columns' payloads (what eviction frees and the
  /// budget charges).
  uint64_t PayloadBytes() const {
    uint64_t bytes = 0;
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (column_resident_[c] != 0) bytes += columns_[c].MemoryBytes();
    }
    return bytes;
  }

 private:
  friend class BufferPool;    ///< pin counts, LRU hooks, residency flips
  friend class SegmentCodec;  ///< raw (de)serialization and payload release

  size_t capacity_;
  size_t num_rows_ = 0;
  std::vector<ColumnVector> columns_;
  std::vector<ZoneMap> zones_;
  std::vector<uint64_t> begin_versions_;  ///< empty = all rows begin at 0
  std::vector<uint64_t> end_versions_;    ///< empty = all rows end at kVersionMax

  /// Flags the columns of `cols` resident (their vectors were just filled).
  void MarkResident(const ColumnSet& cols);

  // Residency bookkeeping (owned by the BufferPool; inert without one).
  BufferPool* pool_ = nullptr;
  /// 1 = column resident. Bytes, not vector<bool>: a loader flips one
  /// column's flag while pinned readers test others.
  std::vector<uint8_t> column_resident_;
  size_t resident_columns_ = 0;
  /// Payload diverged from backing_ (or there is none). A dirty chunk is
  /// always fully resident: writes pin every column.
  bool payload_dirty_ = true;
  /// A fault or spill is running its file I/O outside the pool mutex. A
  /// fault owns the non-resident columns it reads, a spill the whole
  /// payload, until it clears the flag (waiters block on the pool's io
  /// condvar).
  bool io_busy_ = false;
  uint32_t pin_count_ = 0;
  uint64_t accounted_bytes_ = 0;  ///< bytes currently charged to the budget
  bool in_lru_ = false;
  std::list<Chunk*>::iterator lru_it_{};
  ChunkBacking backing_;
};

}  // namespace conquer

#endif  // CONQUER_STORAGE_CHUNK_H_
