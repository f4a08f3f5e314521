#ifndef CONQUER_STORAGE_CHUNK_H_
#define CONQUER_STORAGE_CHUNK_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <list>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
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

/// \brief Chunk-local row positions, ascending: the rows a pin's holder
/// reads. A pin makes resident only the blocks that hold them.
using RowSpan = std::span<const uint32_t>;

/// Residency blocks per chunk column: a block holds 1/64 of the chunk's
/// capacity (1,024 rows at the default 65,536), so one bit per block fits a
/// 64-bit mask.
inline constexpr size_t kBlocksPerChunk = 64;

/// The block mask of a column whose every block, for the rows it holds now
/// and any appended later, is resident.
inline constexpr uint64_t kAllBlocks = ~uint64_t{0};

/// \brief One column of a fault: the blocks it reads.
struct ColumnBlocks {
  uint32_t column;
  uint64_t blocks;
};

/// \brief Allocator whose value-less construct default-initializes, so
/// `resize` leaves trivial elements uninitialized: a fault sizes a column's
/// vectors and reads straight into them without zero-filling bytes the read
/// overwrites.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() noexcept = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

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

  /// Bytes one stored value takes (8, or 4 for a dictionary code); a row
  /// of the column takes one more, its null byte.
  uint64_t value_width() const {
    return type_ == DataType::kString ? sizeof(uint32_t) : sizeof(int64_t);
  }

 private:
  friend class SegmentCodec;  ///< raw (de)serialization and payload release

  template <typename T>
  using Array = std::vector<T, DefaultInitAllocator<T>>;

  DataType type_;
  Array<int64_t> fixed_;   ///< kInt64 / kDate / kBool payloads
  Array<double> dbl_;      ///< kDouble payloads
  Array<uint32_t> codes_;  ///< kString dictionary codes
  Array<uint8_t> nulls_;   ///< 1 = NULL (payload slot is a placeholder)
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
  /// caller's pin named may be read, and only at the rows it named;
  /// the assertion catches a column with no resident block, and
  /// `row_resident` a row outside them.
  const ColumnVector& column(size_t c) const {
    assert(block_mask(c) != 0);
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
    assert(row_resident(col, row));
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
  // the unit of residency is one block of one column: block b holds the
  // rows [b * block_rows(), (b + 1) * block_rows()), and a 64-bit mask per
  // column records the resident ones. A pin faults in just the blocks of
  // the columns and rows it names. num_rows, capacity, zone maps and MVCC
  // stamps always stay resident so pruning and visibility checks never
  // fault I/O. Masks change only under the owning pool's mutex but are
  // atomic, so a pinned reader may test its own blocks while a loader
  // publishes others; a chunk with no pool is permanently resident. Callers
  // must hold a ChunkPin naming a column and row before touching that
  // row's data in a pool-managed chunk.

  /// Rows per residency block: ceil(capacity / 64), at least 1.
  size_t block_rows() const { return block_rows_; }

  /// The blocks of the rows [0, num_rows), block 0 at least: the blocks a
  /// pin of every row needs.
  uint64_t BlocksOfAllRows() const {
    const size_t n = std::max<size_t>(
        1, (num_rows_ + block_rows_ - 1) / block_rows_);
    return n >= kBlocksPerChunk ? kAllBlocks : (uint64_t{1} << n) - 1;
  }

  /// The blocks holding `rows` (ascending chunk-local positions).
  uint64_t BlocksOf(RowSpan rows) const;

  /// Column `c`'s resident blocks (kAllBlocks once every block is).
  uint64_t block_mask(size_t c) const {
    return block_masks_[c].load();
  }
  /// True when row `row` of column `c` lies in a resident block.
  bool row_resident(size_t c, size_t row) const {
    return ((block_mask(c) >> (row / block_rows_)) & 1) != 0;
  }
  /// True when every block of column `c` is resident.
  bool column_resident(size_t c) const {
    return block_mask(c) == kAllBlocks;
  }
  /// True when every block of every column is resident (pool mutex
  /// required for an authoritative answer; lock-free reads are for
  /// assertions and tests).
  bool payload_resident() const;
  /// True when any block of any column is resident (same caveat).
  bool any_resident() const;

  /// Memory bytes of the blocks `blocks` of column `c`: their rows'
  /// values and null bytes.
  uint64_t BlockBytes(size_t c, uint64_t blocks) const;

  /// Bytes of the resident blocks' payloads (what eviction frees and the
  /// budget charges): a fully resident column counts its vectors'
  /// capacity, which appends may have grown.
  uint64_t PayloadBytes() const;

 private:
  friend class BufferPool;    ///< pin counts, LRU hooks, residency flips
  friend class SegmentCodec;  ///< raw (de)serialization and payload release

  size_t capacity_;
  size_t num_rows_ = 0;
  std::vector<ColumnVector> columns_;
  std::vector<ZoneMap> zones_;
  std::vector<uint64_t> begin_versions_;  ///< empty = all rows begin at 0
  std::vector<uint64_t> end_versions_;    ///< empty = all rows end at kVersionMax

  /// Flags the blocks `blocks` of column `c` resident (a fault just filled
  /// them); a column holding every block of its rows becomes kAllBlocks.
  void PublishBlocks(size_t c, uint64_t blocks);
  /// Sets every column's mask to `mask` (0 = evicted, kAllBlocks =
  /// resident).
  void SetAllMasks(uint64_t mask);

  size_t block_rows_;  ///< rows per residency block

  // Residency bookkeeping (owned by the BufferPool; inert without one).
  BufferPool* pool_ = nullptr;
  /// Per column, bit b set = block b resident.
  std::vector<std::atomic<uint64_t>> block_masks_;
  /// Payload diverged from backing_ (or there is none). A dirty chunk is
  /// always fully resident: writes pin every block of every column.
  bool payload_dirty_ = true;
  /// A fault or spill is running its file I/O outside the pool mutex. A
  /// fault owns the non-resident blocks it reads, a spill the whole
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
