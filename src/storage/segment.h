#ifndef CONQUER_STORAGE_SEGMENT_H_
#define CONQUER_STORAGE_SEGMENT_H_

#include <sys/uio.h>

#include <atomic>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "storage/table.h"

namespace conquer {

/// \brief Random-access segment file shared by every chunk backed by it.
///
/// Reads use pread so concurrent faults never share a file position;
/// appends serialize through an atomic end offset. Byte order is the
/// host's — segment files are a local store, not an interchange format.
class SegmentFile {
 public:
  /// Creates (truncating) a writable segment file. With
  /// `unlink_immediately` the name is removed right away, so the spill
  /// storage is anonymous and cannot outlive the process.
  static Result<std::shared_ptr<SegmentFile>> Create(
      const std::string& path, bool unlink_immediately = false);

  /// Opens an existing segment file read-only.
  static Result<std::shared_ptr<SegmentFile>> OpenReadOnly(
      const std::string& path);

  ~SegmentFile();
  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;

  /// Reads exactly `n` bytes at `offset` (short reads are errors).
  Status ReadAt(uint64_t offset, void* buf, size_t n) const;

  /// Reads the contiguous bytes at `offset` into the `count` buffers of
  /// `iov` in order, with one preadv (more only after a short read, which
  /// advances `iov` in place). Reaching the end of the file is an error.
  Status ReadVAt(uint64_t offset, struct iovec* iov, int count) const;

  /// Writes exactly `n` bytes at `offset` (existing or reserved space).
  Status WriteAt(uint64_t offset, const void* data, size_t n);

  /// Atomically reserves `n` bytes at the end of the file; `*offset`
  /// receives where the extent starts (nothing is written).
  void Reserve(size_t n, uint64_t* offset) {
    *offset = end_.fetch_add(n, std::memory_order_acq_rel);
  }

  /// Appends `n` bytes; `*offset` receives where they landed.
  Status Append(const void* data, size_t n, uint64_t* offset);

  /// Flushes written data to stable storage (fsync).
  Status Sync();

  uint64_t size() const { return end_.load(std::memory_order_acquire); }
  const std::string& path() const { return path_; }

 private:
  SegmentFile(int fd, std::string path, uint64_t end)
      : fd_(fd), path_(std::move(path)), end_(end) {}

  int fd_;
  std::string path_;
  std::atomic<uint64_t> end_;
};

/// \brief The single gateway to a chunk's raw column storage.
///
/// Everything that serializes, restores or frees column payloads goes
/// through here (the buffer pool's spill/fault path and the table segment
/// writer/loader below), so Chunk and ColumnVector expose their vectors to
/// exactly one friend. Payload bytes cover the typed arrays and null bytes
/// only — zone maps and MVCC stamps are resident metadata and travel in the
/// segment's meta section instead.
///
/// Payload layout: u32 row count n, then per column a u8 physical tag, n
/// typed values (8-byte int64/double or 4-byte dictionary code) and n null
/// bytes. Every column's offset, and every row's value and null byte within
/// it, follows from n and the column types, so one block of one column
/// reads without touching anything else.
class SegmentCodec {
 public:
  /// Serializes the column payloads of `chunk` (appends to `*out`).
  static void SerializePayload(const Chunk& chunk, std::string* out);

  /// Reads the blocks `cols` names of each listed column (ascending,
  /// non-resident blocks the caller owns) of `chunk` from its payload
  /// extent `backing` straight into the column's vectors: per run of
  /// consecutive blocks, its values and its null bytes (one preadv with the
  /// tag when the run covers every row). A column's first fault sizes its
  /// vectors without initializing them and checks its tag. Checks first
  /// that the extent length equals the layout's total for the resident row
  /// count (which pins the row count too). Residency masks are left to the
  /// caller to publish. Adds the bytes read to `*bytes_read`.
  static Status ReadBlocks(const ChunkBacking& backing,
                           const std::vector<ColumnBlocks>& cols, Chunk* chunk,
                           uint64_t* bytes_read);

  /// Reads every column of a pool-less chunk from its backing and marks
  /// the chunk resident and clean (the eager load without a buffer pool).
  static Status FaultInAll(Chunk* chunk);

  /// Frees the column payloads; num_rows, zones and stamps survive.
  static void ReleasePayload(Chunk* chunk);

  /// Loader-side constructor: marks `chunk` as holding `num_rows` rows
  /// whose payload lives at `backing` (chunk starts evicted-clean).
  static void InitEvicted(Chunk* chunk, size_t num_rows, ChunkBacking backing);

  /// Re-points a pool-less chunk's backing at a new extent known to hold
  /// exactly its current payload bytes, marking it clean. Pool-managed
  /// chunks must go through BufferPool::RebindBacking instead (locking).
  static void Rebind(Chunk* chunk, ChunkBacking backing);

  static void SetZone(Chunk* chunk, size_t col, ZoneMap zone);
  static void SetVersions(Chunk* chunk, std::vector<uint64_t> begin,
                          std::vector<uint64_t> end);
};

/// \brief Binary table persistence: one self-contained `.seg` file per table.
///
/// Layout (host byte order; see DESIGN.md §14 for the full diagram):
///
///   "CQSEG001"            8-byte magic
///   payload blocks        SegmentCodec payloads, one per chunk, in order
///   meta section          committed version, chunk capacity, row count,
///                         per-column dictionaries (entries in code order),
///                         then per chunk: payload extent, row count, zone
///                         maps, MVCC begin/end stamps
///   footer                u64 meta offset, u64 meta length, magic again
///
/// Everything the binary format stores round-trips bit-exactly: doubles are
/// written as raw bits, NULLs as the null byte array (so NULL and empty
/// string stay distinct), and version stamps verbatim.
/// \{

/// Writes every chunk of `table` (faulting evicted payloads in one at a
/// time, so saving respects the memory budget) plus all resident metadata.
///
/// The segment is written to a sibling temp file and rename()d over `path`
/// only after the footer lands, so a save can never destroy the previous
/// segment — crucially including the file the table's own evicted chunks
/// are backed by when saving to the directory it was loaded from. After a
/// successful save the table is checkpointed: every chunk's backing is
/// re-pointed at its freshly written extent and marked clean, releasing
/// any spill extents. Requires no concurrent writers (concurrent readers
/// are fine), the same exclusivity the metadata walk already assumes;
/// SaveDatabase enforces it by holding a Database read slot.
Status WriteTableSegment(Table* table, const std::string& path);

/// Writes `bytes` to `path` the way WriteTableSegment writes a segment: to
/// a sibling temp file, fsync'd, then rename()d over `path`, so a failure
/// leaves the previous file in place.
Status WriteFileAtomically(const std::string& path, std::string_view bytes);

/// Replaces `table`'s storage with the segment's contents. Dictionaries,
/// zone maps, stamps and the committed-version watermark load eagerly;
/// chunk payloads stay on disk (evicted-clean) and fault in through the
/// table's buffer pool on first pin. Without a pool attached, payloads are
/// loaded eagerly instead. The table must have the matching schema and be
/// empty.
Status LoadTableSegment(Table* table, const std::string& path);

/// \}

}  // namespace conquer

#endif  // CONQUER_STORAGE_SEGMENT_H_
