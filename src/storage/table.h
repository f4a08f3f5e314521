#ifndef CONQUER_STORAGE_TABLE_H_
#define CONQUER_STORAGE_TABLE_H_

#include <atomic>
#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/flat_hash.h"
#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/chunk.h"
#include "storage/chunk_index.h"
#include "storage/dictionary.h"
#include "storage/histogram.h"
#include "types/value.h"

namespace conquer {

/// \brief Per-column statistics gathered by Table::AnalyzeStatistics
/// (the RUNSTATS analogue from the paper's experimental setup).
struct ColumnStats {
  size_t num_distinct = 0;
  size_t num_nulls = 0;
  /// Equi-depth value distribution for numeric columns (empty for strings
  /// and never-analyzed columns); drives planner selectivity estimates.
  Histogram histogram;
};

/// \brief In-memory chunked columnar table.
///
/// Rows are stored across fixed-capacity chunks (kDefaultChunkCapacity rows
/// each; all chunks except the last are full, so a global row position maps
/// to (pos / capacity, pos % capacity)). Within a chunk every column is a
/// contiguous typed vector: strings as dense dictionary codes into the
/// per-column StringDictionary, numerics/dates as raw arrays. Each
/// chunk×column carries a ZoneMap (min/max, null count, all-distinct flag)
/// maintained on insert, which scans use to skip whole chunks.
///
/// All writes intern strings eagerly — including in-place SetValue — so
/// dictionaries, zone maps and the dictionary fast path of filters are never
/// stale. Secondary indexes are per-chunk (see ChunkIndex): appends feed the
/// tail chunk's slice and SetValue invalidates only the touched chunk, which
/// the next probe lazily rebuilds; a stale slice is never consultable.
class Table {
 public:
  static constexpr size_t kDefaultChunkCapacity = 64 * 1024;

  explicit Table(TableSchema schema,
                 size_t chunk_capacity = kDefaultChunkCapacity);

  // Movable for construction-time handoff (tests, loaders). The atomic
  // committed-version counter transfers with relaxed ordering: a move must
  // not race with concurrent readers or in-flight writes.
  Table(Table&& other) noexcept;
  Table& operator=(Table&& other) noexcept;

  const TableSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.table_name(); }

  size_t num_rows() const { return num_rows_; }

  // ---- Chunk-level access (vectorized scans). ----
  size_t num_chunks() const { return chunks_.size(); }
  /// Raw chunk reference: resident metadata (num_rows, zone maps, MVCC
  /// stamps) is always safe to read; column payloads of a pool-managed
  /// chunk require a ChunkPin (see PinChunk).
  const Chunk& chunk(size_t i) const { return *chunks_[i]; }
  /// Persistence-side mutable access (the segment writer re-points chunk
  /// backings after a save); executor code must go through PinChunk.
  Chunk* mutable_chunk(size_t i) { return chunks_[i].get(); }
  size_t chunk_capacity() const { return chunk_capacity_; }

  // ---- Out-of-core management. ----

  /// Hands residency management of every chunk (current and future) to
  /// `pool`. Call once, right after construction (the engine attaches its
  /// per-database pool in CreateTable). Pass nullptr for standalone
  /// always-resident tables.
  void AttachBufferPool(BufferPool* pool);
  BufferPool* buffer_pool() const { return pool_; }

  /// Pins the blocks that hold `rows` (chunk-local positions, ascending)
  /// of the columns `cols` of chunk `i` into memory (faulting in the
  /// evicted ones) for the lifetime of the returned pin; its holder reads
  /// only those rows of those columns. Without an attached pool this is a
  /// cheap no-op wrapper. `stats`, when non-null, receives the I/O this pin
  /// performed (scan counters).
  ChunkPin PinChunk(size_t i, const ColumnSet& cols, RowSpan rows,
                    PinStats* stats = nullptr) const {
    Chunk* ch = chunks_[i].get();
    return pool_ != nullptr ? pool_->Pin(ch, cols, rows, stats)
                            : ChunkPin(nullptr, ch);
  }

  /// Pins every block of the columns `cols` of chunk `i` (index, slice and
  /// statistics builds, the maintenance id walk).
  ChunkPin PinChunk(size_t i, const ColumnSet& cols,
                    PinStats* stats = nullptr) const {
    Chunk* ch = chunks_[i].get();
    return pool_ != nullptr ? pool_->Pin(ch, cols, stats)
                            : ChunkPin(nullptr, ch);
  }

  /// Pins every block of every column of chunk `i` (writes, saves,
  /// whole-row loops).
  ChunkPin PinChunk(size_t i, PinStats* stats = nullptr) const {
    Chunk* ch = chunks_[i].get();
    return pool_ != nullptr ? pool_->Pin(ch, stats) : ChunkPin(nullptr, ch);
  }

  /// Binary-loader handoff: replaces the (empty) storage with pre-built
  /// chunks — possibly evicted ones backed by a segment file — and restores
  /// the committed-version watermark. Indexes and statistics reset;
  /// dictionaries must already be populated (codes in the chunks reference
  /// them). Registers every chunk with the attached pool.
  void AdoptChunks(std::vector<std::unique_ptr<Chunk>> chunks,
                   size_t chunk_capacity, size_t num_rows,
                   uint64_t committed_version);

  /// Dictionary of column `c` for loaders that must repopulate it before
  /// AdoptChunks; nullptr for non-string columns.
  StringDictionary* mutable_dictionary(size_t column) {
    return dicts_[column].get();
  }

  // ---- Row-level access (one-off readers and writers, tests). ----
  //
  // Each call pins the row's chunk for itself — readers only the row's
  // block, of the columns they read; loops over rows go through a
  // RowCursor instead, which pins each chunk once.

  /// Materializes row `i` BY VALUE (the storage is columnar; there is no
  /// resident Row to reference). Strings come back interned.
  Row row(size_t i) const;
  /// Materializes row `i` into a caller-owned buffer (no allocation when
  /// the buffer already has the right arity).
  void GetRowInto(size_t i, Row* out) const;
  /// The single value at (row, col); cheaper than materializing the row.
  Value ValueAt(size_t row, size_t col) const;

  /// Overwrites one cell in place (maintenance passes: identifier
  /// propagation, probability assignment). Strings are re-interned
  /// immediately and the zone map stays conservative (null count exact,
  /// min/max widened), so scans never consult stale statistics. An index on
  /// `col` invalidates only the touched chunk's slice; the next probe of
  /// that chunk rebuilds it lazily.
  void SetValue(size_t row, size_t col, const Value& v);

  /// Appends a row after arity and type checks (numeric widening allowed:
  /// an INT64 value may populate a DOUBLE column). Storage normalizes the
  /// values: widened numerics are stored as doubles and strings interned.
  Status Insert(Row row);

  /// Appends without validation (caller guarantees schema conformance);
  /// still interns string values so bulk generators feed the dictionary.
  void InsertUnchecked(const Row& row);

  void Reserve(size_t n) { reserve_hint_ = n; }
  void Clear();

  // ---- MVCC write versioning. ----
  //
  // Writes run exclusively (behind the engine's exclusive admission ticket),
  // so version stamping itself needs no synchronization; only the committed
  // version counter is atomic so readers can pin a snapshot without a lock.
  // A scan admitted at snapshot S sees exactly the row versions with
  // begin <= S < end; bulk-loaded rows carry the implicit range
  // [0, kVersionMax) and are visible everywhere.

  /// The latest committed version; scans pin this as their snapshot.
  uint64_t committed_version() const {
    return committed_version_.load(std::memory_order_acquire);
  }

  /// The version a new write should stamp (committed + 1). The write is
  /// invisible to concurrent snapshots until CommitWrite publishes it.
  uint64_t BeginWrite() const {
    return committed_version_.load(std::memory_order_relaxed) + 1;
  }

  /// Publishes version `v`; subsequent snapshots include its rows.
  void CommitWrite(uint64_t v) {
    committed_version_.store(v, std::memory_order_release);
  }

  /// Physically reverts every stamp made at version `v` after a failed
  /// write: rows inserted at `v` become permanent tombstones (begin pushed
  /// to kVersionMax, visible at no snapshot) and rows stamped dead at `v`
  /// are resurrected (end restored to kVersionMax). Without this, the next
  /// write would reuse `v` — BeginWrite is committed+1 and the abort never
  /// advanced it — and its commit would publish the aborted stamps. Runs
  /// under the same exclusive ticket as the write it aborts.
  void AbortWrite(uint64_t v);

  /// Inserts a row version first visible at `begin_version` (same checks
  /// and index maintenance as Insert).
  Status InsertVersioned(Row row, uint64_t begin_version);

  /// Stamps row `pos` dead as of version `v` (DELETE, or the old version
  /// under UPDATE).
  void MarkRowDead(size_t pos, uint64_t v);

  /// True when global row position `pos` is visible at `snapshot`.
  bool RowVisibleAt(size_t pos, uint64_t snapshot) const {
    return chunks_[pos / chunk_capacity_]->RowVisible(pos % chunk_capacity_,
                                                      snapshot);
  }

  /// All row positions visible at `snapshot`, in position order.
  std::vector<size_t> VisibleRowPositions(uint64_t snapshot) const;

  /// Rebuilds the chunked storage with a new per-chunk capacity (row order,
  /// positions and dictionaries are preserved; zone maps are recomputed
  /// exactly and per-chunk index slices are rebuilt against the new chunk
  /// geometry). Used by tests to sweep chunk geometries.
  void Rechunk(size_t capacity);

  /// Builds (or rebuilds) a per-chunk secondary index on the named column.
  Status CreateIndex(std::string_view column_name);

  /// Index on the given column position, or nullptr.
  const ChunkIndex* GetIndex(size_t column) const;

  /// Probes chunk `c` of `column`'s index for every probe of `probes` and
  /// appends the candidate chunk-local rows (ascending, no duplicates) to
  /// `out` (ChunkIndex::TryLookup). The fast path reads only the resident
  /// slice; a slice invalidated by SetValue (or appended without
  /// maintenance) pins the chunk — faulting its payload, counted in
  /// `stats` — and rebuilds first. The index must exist.
  void IndexProbeChunk(size_t column,
                       const std::vector<ChunkIndex::ProbeSpec>& probes,
                       size_t c, std::vector<uint32_t>* out,
                       PinStats* stats) const;

  /// Recomputes per-column distinct/null counts, builds equi-depth
  /// histograms for numeric columns, and re-tightens every chunk's zone
  /// maps (min/max exact again after in-place writes, and the all-distinct
  /// flags are restored).
  void AnalyzeStatistics();

  /// Statistics for a column; zeros if AnalyzeStatistics was never run.
  const ColumnStats& column_stats(size_t column) const;

  /// The string dictionary of a column (created with the table for string
  /// columns), or nullptr for non-string columns. Scans use it to resolve
  /// predicate constants to interned pointers/codes.
  const StringDictionary* dictionary(size_t column) const {
    return dicts_[column].get();
  }

 private:
  friend class RowCursor;

  /// SetValue's write into a chunk the caller has pinned whole.
  void SetPinnedValue(size_t row, size_t col, const Value& v);
  /// The chunk accepting the next append (created on demand).
  Chunk* AppendChunk();
  /// Appends one schema-conforming row to storage (no index maintenance).
  void AppendToStorage(const Row& row);
  /// Feeds the freshly appended row at global position `pos` into every
  /// index's tail slice (reads the resident append chunk's payload).
  void MaintainIndexesOnAppend(size_t pos);

  TableSchema schema_;
  BufferPool* pool_ = nullptr;  ///< residency manager (may be null)
  size_t chunk_capacity_ = kDefaultChunkCapacity;
  std::atomic<uint64_t> committed_version_{0};
  size_t num_rows_ = 0;
  size_t reserve_hint_ = 0;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::unique_ptr<ChunkIndex>> indexes_;
  std::vector<ColumnStats> stats_;
  std::vector<std::unique_ptr<StringDictionary>> dicts_;
  /// Keeps the chunk under active append resident between inserts: without
  /// it a sub-chunk budget evicts (spills) the tail after every row and
  /// bulk loads degrade to one write + one read of the whole payload per
  /// row. Moving to the next tail chunk releases the previous pin; declared
  /// after chunks_ so destruction unpins before the chunk dies.
  ChunkPin append_pin_;
};

/// \brief Keeps the chunk containing the most recently touched row pinned.
///
/// Row-sequential loops (maintenance passes, persistence, oracles) call
/// `Touch(row)` and then read and write that row through the cursor's own
/// `ValueAt`/`GetRowInto`/`SetValue`, which use the cursor's pin instead of
/// taking one per call. The cursor pins every column of the current chunk
/// and holds the pin until the loop crosses a chunk boundary, so a loop
/// takes one pin per chunk: without it each per-row call pins and unpins,
/// and a budget smaller than one chunk evicts (spilling if dirty) and
/// refaults the whole payload per row — quadratic I/O. Stack-local,
/// single-threaded use only.
class RowCursor {
 public:
  explicit RowCursor(const Table* table) : table_(table) {}
  /// A cursor that may also write (SetValue).
  explicit RowCursor(Table* table) : table_(table), writable_(table) {}

  void Touch(size_t row) {
    const size_t c = row / table_->chunk_capacity();
    if (c != chunk_) {
      pin_ = table_->PinChunk(c);
      chunk_ = c;
    }
  }

  void Reset() {
    pin_.Reset();
    chunk_ = static_cast<size_t>(-1);
  }

  // The accessors below read or write through the pinned chunk: `row` must
  // lie in the chunk the last Touch pinned.

  /// The value at (row, col).
  Value ValueAt(size_t row, size_t col) const {
    assert(row / table_->chunk_capacity() == chunk_);
    return pin_->GetValue(row % table_->chunk_capacity(), col,
                          table_->dictionary(col));
  }

  /// A raw cell, for readers that decode stored data themselves: the
  /// pinned vector of column `col` holding `row`, the row's index in it and
  /// the column's dictionary (null unless the column is STRING).
  struct Cell {
    const ColumnVector& column;
    size_t index;
    const StringDictionary* dict;
  };
  Cell CellAt(size_t row, size_t col) const {
    assert(row / table_->chunk_capacity() == chunk_);
    return {pin_->column(col), row % table_->chunk_capacity(),
            table_->dictionary(col)};
  }

  /// Materializes the row into `*out`, as Table::GetRowInto does.
  void GetRowInto(size_t row, Row* out) const {
    assert(row / table_->chunk_capacity() == chunk_);
    pin_->MaterializeRow(row % table_->chunk_capacity(), out, table_->dicts_);
  }

  /// Overwrites one cell, as Table::SetValue does (the cursor must have
  /// been made from a mutable table).
  void SetValue(size_t row, size_t col, const Value& v) {
    assert(writable_ != nullptr && row / table_->chunk_capacity() == chunk_);
    writable_->SetPinnedValue(row, col, v);
  }

 private:
  const Table* table_;
  Table* writable_ = nullptr;
  ChunkPin pin_;
  size_t chunk_ = static_cast<size_t>(-1);
};

}  // namespace conquer

#endif  // CONQUER_STORAGE_TABLE_H_
