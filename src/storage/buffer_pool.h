#ifndef CONQUER_STORAGE_BUFFER_POOL_H_
#define CONQUER_STORAGE_BUFFER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/chunk.h"

namespace conquer {

class Table;

/// \brief I/O work one pin (or the evictions it forced) performed.
///
/// Accumulated into caller-owned counters so scans can surface
/// `chunks_loaded=` / `columns_loaded=` / `bytes_read=` / `chunks_evicted=`
/// / `io_read_ms=` in EXPLAIN ANALYZE.
struct PinStats {
  uint64_t chunks_loaded = 0;   ///< pins that read from a backing file
  uint64_t columns_loaded = 0;  ///< columns those pins read blocks of
  uint64_t bytes_read = 0;      ///< payload bytes those pins read
  uint64_t chunks_evicted = 0;
  double io_read_seconds = 0;
};

/// \brief RAII pin keeping the blocks it named of one chunk resident.
///
/// A pin names columns and rows — every column when it is given no column
/// set, every row when it is given no rows — and makes resident the blocks
/// that hold those rows of those columns; its holder reads only those rows
/// of those columns. While any pin on a
/// chunk is alive the buffer pool will not evict it, so raw column
/// pointers (`fixed_data()` etc.) of the named columns stay valid.
/// Obtained through `Table::PinChunk` (or `BufferPool::Pin`); destruction
/// unpins. A pin from a table with no pool attached is a no-op wrapper
/// around the chunk.
class ChunkPin {
 public:
  ChunkPin() = default;
  ChunkPin(ChunkPin&& other) noexcept
      : pool_(other.pool_), chunk_(other.chunk_) {
    other.pool_ = nullptr;
    other.chunk_ = nullptr;
  }
  ChunkPin& operator=(ChunkPin&& other) noexcept;
  ChunkPin(const ChunkPin&) = delete;
  ChunkPin& operator=(const ChunkPin&) = delete;
  ~ChunkPin() { Reset(); }

  /// Releases the pin early (idempotent).
  void Reset();

  const Chunk* get() const { return chunk_; }
  const Chunk& operator*() const { return *chunk_; }
  const Chunk* operator->() const { return chunk_; }
  explicit operator bool() const { return chunk_ != nullptr; }

 private:
  friend class BufferPool;
  friend class Table;
  ChunkPin(BufferPool* pool, Chunk* chunk) : pool_(pool), chunk_(chunk) {}

  BufferPool* pool_ = nullptr;  ///< null = unmanaged (no pool attached)
  Chunk* chunk_ = nullptr;
};

/// \brief Pin/evict buffer manager enforcing a hard byte budget over the
/// column payloads of every registered chunk.
///
/// The unit of residency is one block of one column of one chunk — 1/64 of
/// the chunk's capacity, 1,024 rows at the default — so a point lookup
/// reads one block per column it names, not the column's every row. A pin
/// names the columns and rows its holder reads and faults in only the
/// missing blocks, reading each run of them from the chunk's payload extent
/// straight into the column's vectors; a pin given no rows takes every
/// block. The unit of eviction stays the chunk: the LRU list holds unpinned
/// chunks with any resident block, and evicting one drops every resident
/// block. Evicted blocks are always clean (re-readable from the backing
/// extent): a dirty chunk is fully resident — writes pin every block of
/// every column — and is spilled whole to the pool's anonymous spill file
/// at eviction time. Eviction prefers chunks with a still-valid backing
/// (drop, no write) over dirty ones (serialize + spill, then drop).
///
/// What the budget covers: column payloads only, charged per resident
/// block (its rows' values and null bytes). Zone maps, MVCC stamps,
/// dictionaries and per-chunk secondary index slices (ChunkIndex) stay
/// resident by design — pruning, visibility checks and index probes must
/// never fault I/O (the one exception is rebuilding a slice invalidated by
/// an in-place write, which pins its chunk), and interned string Values
/// point into the dictionaries. Pinned chunks and a chunk larger than the whole
/// budget are exempt while needed, so the budget is hard for the steady
/// state but allows transient overshoot equal to the pinned working set.
///
/// Thread-safety: pool state (LRU list, accounting, block masks) lives
/// behind a single mutex, but block loads and dirty spills run their file
/// I/O *outside* it: the operation marks its chunk io-busy under the lock,
/// releases the lock for the read (or serialize/write), and re-acquires it
/// to publish the result. A pin takes its chunk off the LRU list and counts
/// itself *before* it faults, so no evictor can drop the chunk's resident
/// blocks — which other pins may be reading — during the unlocked read; a
/// load touches only blocks that were not resident, and charges the budget
/// for exactly those when it publishes. Concurrent pins of distinct chunks
/// therefore fault in parallel; faults of the same chunk serialize (waiters
/// block on a pool condvar until the busy flag clears), while a pin whose
/// blocks are all resident proceeds past a fault of other blocks. The pin
/// count is what makes concurrently scanning morsels safe: column data is
/// only read between Pin and Reset.
class BufferPool {
 public:
  struct Stats {
    uint64_t pins = 0;            ///< Pin calls
    uint64_t chunks_loaded = 0;   ///< pins that read from backing files
    uint64_t columns_loaded = 0;  ///< columns those pins read
    uint64_t bytes_read = 0;      ///< payload bytes those pins read
    uint64_t chunks_evicted = 0;  ///< payload drops (clean + spilled)
    uint64_t chunks_spilled = 0;  ///< dirty evictions that wrote the spill file
    uint64_t spill_file_bytes = 0;  ///< bytes allocated in the spill file
    uint64_t resident_bytes = 0;  ///< payload bytes currently charged
    uint64_t peak_resident_bytes = 0;  ///< high-water mark of resident_bytes
    uint64_t budget_bytes = 0;    ///< 0 = unlimited
    uint64_t registered_chunks = 0;
    double io_read_seconds = 0;
    double io_write_seconds = 0;
  };

  /// `budget_bytes` of 0 means unlimited (nothing is ever evicted).
  explicit BufferPool(uint64_t budget_bytes = 0);
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Installs a new budget and immediately evicts down to it (0 disables
  /// eviction; already-evicted chunks stay on disk until pinned).
  void SetBudget(uint64_t bytes);
  uint64_t budget() const;

  Stats stats() const;

  /// Takes ownership of residency management for `chunk` (called by Table
  /// when a chunk is created or adopted). The chunk may already be evicted
  /// (binary loader hands over segment-backed chunks).
  void Register(Chunk* chunk);

  /// Severs the pool link (called by ~Chunk). The chunk must be unpinned.
  void Unregister(Chunk* chunk);

  /// Pins the chunk after making resident the blocks that hold `rows`
  /// (chunk-local positions, ascending) of the columns `cols` (faulting
  /// each missing run in from the chunk's backing extent). The holder may
  /// read only those rows of those columns. Deltas of any load/eviction
  /// this call performed are added to `*stats` when non-null. I/O failure
  /// on the pool's own files is unrecoverable and aborts with a diagnostic.
  ChunkPin Pin(Chunk* chunk, const ColumnSet& cols, RowSpan rows,
               PinStats* stats = nullptr) {
    return PinBlocks(chunk, &cols, &rows, stats);
  }

  /// Pins every block of the columns `cols` (index, slice and statistics
  /// builds, the maintenance id walk).
  ChunkPin Pin(Chunk* chunk, const ColumnSet& cols, PinStats* stats = nullptr) {
    return PinBlocks(chunk, &cols, nullptr, stats);
  }

  /// Pins the blocks that hold `rows` of every column (one-row readers).
  ChunkPin PinRows(Chunk* chunk, RowSpan rows, PinStats* stats = nullptr) {
    return PinBlocks(chunk, nullptr, &rows, stats);
  }

  /// Pins every block of every column (writes, saves, spills, RowCursor).
  ChunkPin Pin(Chunk* chunk, PinStats* stats = nullptr) {
    return PinBlocks(chunk, nullptr, nullptr, stats);
  }

  /// Marks the chunk's payload as diverged from its backing block; the next
  /// eviction must spill it again. Call after any column mutation (append or
  /// in-place write) of a registered chunk, under a pin of every block of
  /// every column.
  void MarkDirty(Chunk* chunk);

  /// Re-points `chunk`'s backing at `backing` — an extent the caller
  /// guarantees holds exactly the chunk's current payload bytes — and marks
  /// it clean. Used by the segment writer to checkpoint a table after a
  /// save. Waits out any in-flight fault/spill on the chunk and releases a
  /// previous spill extent. Caller must ensure no concurrent writers.
  void RebindBacking(Chunk* chunk, ChunkBacking backing);

  /// Default budget for new databases: the CONQUER_MEMORY_BUDGET environment
  /// variable (accepts ParseByteSize forms), or 0 (unlimited) when unset.
  /// Lets CI force evictions across an entire test suite.
  static uint64_t DefaultBudgetFromEnv();

 private:
  friend class ChunkPin;

  /// A released spill extent available for reuse by a later spill.
  struct SpillExtent {
    uint64_t offset;
    uint64_t alloc;
  };

  /// Pin with `cols` == nullptr meaning every column and `rows` ==
  /// nullptr every block.
  ChunkPin PinBlocks(Chunk* chunk, const ColumnSet* cols, const RowSpan* rows,
                     PinStats* stats);
  void Unpin(Chunk* chunk);

  /// Faults the non-resident blocks `blocks` of the pinned `chunk` in from
  /// backing_. Enters with `lk` held, drops it for the read, exits with it
  /// re-acquired after publishing the blocks and charging their bytes.
  void LoadBlocks(std::unique_lock<std::mutex>& lk, Chunk* chunk,
                  const std::vector<ColumnBlocks>& blocks, PinStats* stats);
  /// Evicts LRU victims (clean first) until the charged bytes fit the
  /// budget or nothing evictable remains. `lk` must be held; dirty spills
  /// release it for their file I/O.
  void EnforceBudget(std::unique_lock<std::mutex>& lk, PinStats* stats);
  /// Serializes `chunk` and writes it to the spill file, reusing its
  /// previous spill extent (or a freed one) when the payload fits. Enters
  /// and exits with `lk` held, drops it for the serialize/write.
  void SpillChunk(std::unique_lock<std::mutex>& lk, Chunk* chunk);
  /// Requires mu_ held and no fault in flight on `chunk`. Re-measures the
  /// bytes of its resident blocks.
  void RefreshAccountingLocked(Chunk* chunk);
  /// Requires mu_ held. Adds `bytes` to the charge and the high-water mark.
  void ChargeLocked(Chunk* chunk, uint64_t bytes);
  /// Requires mu_ held. Lazily creates the anonymous spill file.
  std::shared_ptr<SegmentFile> SpillFileLocked();
  /// Requires mu_ held. Returns `backing`'s extent to the spill free list
  /// when it points into the spill file (no-op otherwise).
  void ReleaseSpillExtentLocked(const ChunkBacking& backing);
  /// Requires mu_ held. First-fit grab of a freed spill extent that holds
  /// `need` bytes; false when none fits (caller reserves fresh space).
  bool TakeSpillExtentLocked(uint64_t need, uint64_t* offset,
                             uint64_t* alloc);

  mutable std::mutex mu_;
  /// Signalled whenever a chunk's io-busy flag clears; Pin and
  /// RebindBacking wait on it to serialize same-chunk operations.
  std::condition_variable io_cv_;
  uint64_t budget_ = 0;
  uint64_t resident_bytes_ = 0;
  uint64_t registered_chunks_ = 0;
  Stats stats_{};
  /// Unpinned chunks with a resident block, least-recently-unpinned first.
  std::list<Chunk*> lru_;
  std::shared_ptr<SegmentFile> spill_;
  /// Spill extents no longer referenced by any chunk (their owner died,
  /// re-spilled elsewhere, or was checkpointed to a segment file). Extents
  /// are reused whole — payloads are near-uniform chunk serializations, so
  /// first-fit without splitting keeps the file bounded.
  std::vector<SpillExtent> spill_free_;
};

/// Parses a human byte size: plain bytes or a k/m/g suffix (binary units,
/// case-insensitive, optional trailing "b"), or "unlimited"/"none" for 0.
/// Returns false on malformed input.
bool ParseByteSize(std::string_view text, uint64_t* bytes);

}  // namespace conquer

#endif  // CONQUER_STORAGE_BUFFER_POOL_H_
