#include "storage/buffer_pool.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/str_util.h"
#include "storage/segment.h"

namespace conquer {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The pool owns its spill and backing files; an I/O failure on them leaves
/// evicted payloads unreachable — there is no meaningful recovery, so fail
/// loudly instead of returning rows with silently missing chunks.
void DieOnIoError(const Status& s, const char* what) {
  if (s.ok()) return;
  std::fprintf(stderr, "conquer: unrecoverable buffer pool %s failure: %s\n",
               what, s.ToString().c_str());
  std::abort();
}

}  // namespace

ChunkPin& ChunkPin::operator=(ChunkPin&& other) noexcept {
  if (this != &other) {
    Reset();
    pool_ = other.pool_;
    chunk_ = other.chunk_;
    other.pool_ = nullptr;
    other.chunk_ = nullptr;
  }
  return *this;
}

void ChunkPin::Reset() {
  if (pool_ != nullptr && chunk_ != nullptr) pool_->Unpin(chunk_);
  pool_ = nullptr;
  chunk_ = nullptr;
}

BufferPool::BufferPool(uint64_t budget_bytes) : budget_(budget_bytes) {}

BufferPool::~BufferPool() {
  // Every registered chunk must have been destroyed first (Database declares
  // the pool before the catalog for exactly this reason).
  assert(registered_chunks_ == 0);
}

void BufferPool::SetBudget(uint64_t bytes) {
  std::unique_lock<std::mutex> lock(mu_);
  budget_ = bytes;
  EnforceBudget(lock, nullptr);
}

uint64_t BufferPool::budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_;
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.resident_bytes = resident_bytes_;
  out.budget_bytes = budget_;
  out.registered_chunks = registered_chunks_;
  out.spill_file_bytes = spill_ != nullptr ? spill_->size() : 0;
  return out;
}

void BufferPool::Register(Chunk* chunk) {
  std::unique_lock<std::mutex> lock(mu_);
  assert(chunk->pool_ == nullptr);
  chunk->pool_ = this;
  ++registered_chunks_;
  if (chunk->any_resident()) {
    RefreshAccountingLocked(chunk);
    lru_.push_back(chunk);
    chunk->lru_it_ = std::prev(lru_.end());
    chunk->in_lru_ = true;
    EnforceBudget(lock, nullptr);
  }
}

void BufferPool::Unregister(Chunk* chunk) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(chunk->pin_count_ == 0 && !chunk->io_busy_);
  if (chunk->in_lru_) {
    lru_.erase(chunk->lru_it_);
    chunk->in_lru_ = false;
  }
  // The dying chunk's spill extent (if any) becomes reusable.
  ReleaseSpillExtentLocked(chunk->backing_);
  resident_bytes_ -= chunk->accounted_bytes_;
  chunk->accounted_bytes_ = 0;
  chunk->pool_ = nullptr;
  --registered_chunks_;
}

ChunkPin BufferPool::PinBlocks(Chunk* chunk, const ColumnSet* cols,
                               const RowSpan* rows, PinStats* stats) {
  std::unique_lock<std::mutex> lock(mu_);
  assert(chunk->pool_ == this);
  ++stats_.pins;
  // A spill (the only I/O on an unpinned chunk) owns the whole payload and
  // is about to drop it: wait it out before counting ourselves.
  while (chunk->io_busy_ && chunk->pin_count_ == 0) io_cv_.wait(lock);
  // Pin before faulting: off the LRU list and counted, the chunk keeps its
  // resident blocks — which other pins may be reading — while the read
  // below runs unlocked.
  if (chunk->in_lru_) {
    lru_.erase(chunk->lru_it_);
    chunk->in_lru_ = false;
  }
  ++chunk->pin_count_;
  // The blocks the holder reads are computed only once a named column
  // turns out not to be fully resident: a pin of resident columns (every
  // pin of an in-memory database) never looks at its rows.
  uint64_t want = 0;
  bool want_known = false;
  std::vector<ColumnBlocks> missing;
  auto add_missing = [&](uint32_t c) {
    const uint64_t have = chunk->block_mask(c);
    if (have == kAllBlocks) return;
    if (!want_known) {
      want = rows != nullptr ? chunk->BlocksOf(*rows)
                             : chunk->BlocksOfAllRows();
      want_known = true;
    }
    if ((want & ~have) != 0) missing.push_back({c, want & ~have});
  };
  bool faulted = false;
  for (;;) {
    missing.clear();
    if (cols == nullptr) {
      for (uint32_t c = 0; c < chunk->num_columns(); ++c) add_missing(c);
    } else {
      for (uint32_t c : *cols) add_missing(c);
    }
    if (missing.empty()) break;
    // Another pin is faulting blocks of this chunk (perhaps ours too):
    // faults of one chunk serialize.
    if (chunk->io_busy_) {
      io_cv_.wait(lock);
      continue;
    }
    LoadBlocks(lock, chunk, missing, stats);
    faulted = true;
  }
  if (faulted) {
    // Make room for what the fault brought in — but never by evicting the
    // chunk itself: it is pinned and off the LRU list.
    EnforceBudget(lock, stats);
  }
  return ChunkPin(this, chunk);
}

void BufferPool::Unpin(Chunk* chunk) {
  std::unique_lock<std::mutex> lock(mu_);
  assert(chunk->pin_count_ > 0);
  if (--chunk->pin_count_ > 0) return;
  // Appends may have grown the payload while pinned; re-measure now that no
  // writer can be touching it (and no fault: faults hold a pin), then
  // recheck the budget.
  RefreshAccountingLocked(chunk);
  if (!chunk->any_resident()) return;  // nothing to evict
  lru_.push_back(chunk);
  chunk->lru_it_ = std::prev(lru_.end());
  chunk->in_lru_ = true;
  EnforceBudget(lock, nullptr);
}

void BufferPool::MarkDirty(Chunk* chunk) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(chunk->payload_resident() && chunk->pin_count_ > 0);
  chunk->payload_dirty_ = true;
}

void BufferPool::RebindBacking(Chunk* chunk, ChunkBacking backing) {
  std::unique_lock<std::mutex> lock(mu_);
  assert(chunk->pool_ == this);
  // A fault mid-flight copied the old backing and keeps its file alive; a
  // spill mid-flight would overwrite backing_ after us. Either way, wait.
  while (chunk->io_busy_) io_cv_.wait(lock);
  ReleaseSpillExtentLocked(chunk->backing_);
  chunk->backing_ = std::move(backing);
  chunk->payload_dirty_ = false;
}

void BufferPool::LoadBlocks(std::unique_lock<std::mutex>& lk, Chunk* chunk,
                            const std::vector<ColumnBlocks>& blocks,
                            PinStats* stats) {
  assert(chunk->backing_.valid() && !chunk->io_busy_);
  assert(chunk->pin_count_ > 0 && !chunk->in_lru_);
  chunk->io_busy_ = true;
  // Copy the backing: RebindBacking may re-point it while we read, and the
  // copy keeps the (possibly replaced) file alive and readable.
  const ChunkBacking backing = chunk->backing_;
  lk.unlock();
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t bytes_read = 0;
  DieOnIoError(SegmentCodec::ReadBlocks(backing, blocks, chunk, &bytes_read),
               "read");
  const double secs = SecondsSince(t0);
  uint64_t bytes = 0;
  for (const ColumnBlocks& cb : blocks) {
    bytes += chunk->BlockBytes(cb.column, cb.blocks);
  }
  lk.lock();
  chunk->io_busy_ = false;
  for (const ColumnBlocks& cb : blocks) {
    chunk->PublishBlocks(cb.column, cb.blocks);
  }
  ChargeLocked(chunk, bytes);
  ++stats_.chunks_loaded;
  stats_.columns_loaded += blocks.size();
  stats_.bytes_read += bytes_read;
  stats_.io_read_seconds += secs;
  if (stats != nullptr) {
    ++stats->chunks_loaded;
    stats->columns_loaded += blocks.size();
    stats->bytes_read += bytes_read;
    stats->io_read_seconds += secs;
  }
  io_cv_.notify_all();
}

void BufferPool::EnforceBudget(std::unique_lock<std::mutex>& lk,
                               PinStats* stats) {
  if (budget_ == 0) return;
  while (resident_bytes_ > budget_ && !lru_.empty()) {
    // Cold clean chunks first: their payload is re-readable from its backing
    // block for free. Only when everything evictable is dirty do we pay a
    // spill write for the coldest chunk.
    Chunk* victim = nullptr;
    for (Chunk* ch : lru_) {
      if (!ch->payload_dirty_) {
        victim = ch;
        break;
      }
    }
    if (victim == nullptr) victim = lru_.front();
    assert(victim->any_resident() && victim->pin_count_ == 0);
    lru_.erase(victim->lru_it_);
    victim->in_lru_ = false;
    if (victim->payload_dirty_) SpillChunk(lk, victim);
    SegmentCodec::ReleasePayload(victim);
    resident_bytes_ -= victim->accounted_bytes_;
    victim->accounted_bytes_ = 0;
    ++stats_.chunks_evicted;
    if (stats != nullptr) ++stats->chunks_evicted;
  }
}

void BufferPool::SpillChunk(std::unique_lock<std::mutex>& lk, Chunk* chunk) {
  // Writes pin every block of every column, so a dirty chunk is always
  // fully resident.
  assert(!chunk->io_busy_ && chunk->payload_resident());
  // The busy flag makes us the payload's exclusive owner (the chunk is off
  // the LRU list, so no other evictor picks it; pinners wait): serialize
  // and write without holding the pool lock.
  chunk->io_busy_ = true;
  std::shared_ptr<SegmentFile> spill = SpillFileLocked();
  lk.unlock();
  std::string buf;
  SegmentCodec::SerializePayload(*chunk, &buf);
  lk.lock();
  // Pick the destination extent under the lock (the free list is shared):
  // in place when the previous spill extent fits, else a freed extent,
  // else fresh space at the end of the file.
  uint64_t offset = 0;
  uint64_t alloc = 0;
  if (chunk->backing_.file == spill &&
      chunk->backing_.alloc_length() >= buf.size()) {
    offset = chunk->backing_.offset;
    alloc = chunk->backing_.alloc_length();
  } else {
    ReleaseSpillExtentLocked(chunk->backing_);
    if (!TakeSpillExtentLocked(buf.size(), &offset, &alloc)) {
      spill->Reserve(buf.size(), &offset);
      alloc = buf.size();
    }
  }
  lk.unlock();
  const auto t0 = std::chrono::steady_clock::now();
  DieOnIoError(spill->WriteAt(offset, buf.data(), buf.size()), "spill");
  const double secs = SecondsSince(t0);
  lk.lock();
  stats_.io_write_seconds += secs;
  chunk->backing_ = ChunkBacking{std::move(spill), offset, buf.size(), alloc};
  chunk->payload_dirty_ = false;
  chunk->io_busy_ = false;
  ++stats_.chunks_spilled;
  io_cv_.notify_all();
}

void BufferPool::RefreshAccountingLocked(Chunk* chunk) {
  assert(!chunk->io_busy_);
  resident_bytes_ -= chunk->accounted_bytes_;
  chunk->accounted_bytes_ = 0;
  ChargeLocked(chunk, chunk->PayloadBytes());
}

void BufferPool::ChargeLocked(Chunk* chunk, uint64_t bytes) {
  chunk->accounted_bytes_ += bytes;
  resident_bytes_ += bytes;
  // The high-water mark is the budget proof benchmarks record: RSS is
  // noisy (allocator retention), pool accounting is exact.
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, resident_bytes_);
}

void BufferPool::ReleaseSpillExtentLocked(const ChunkBacking& backing) {
  if (backing.file == nullptr || backing.file != spill_) return;
  spill_free_.push_back({backing.offset, backing.alloc_length()});
}

bool BufferPool::TakeSpillExtentLocked(uint64_t need, uint64_t* offset,
                                       uint64_t* alloc) {
  for (size_t i = 0; i < spill_free_.size(); ++i) {
    if (spill_free_[i].alloc >= need) {
      *offset = spill_free_[i].offset;
      *alloc = spill_free_[i].alloc;
      spill_free_[i] = spill_free_.back();
      spill_free_.pop_back();
      return true;
    }
  }
  return false;
}

std::shared_ptr<SegmentFile> BufferPool::SpillFileLocked() {
  if (spill_ == nullptr) {
    static std::atomic<uint64_t> counter{0};
    std::error_code ec;
    std::filesystem::path dir = std::filesystem::temp_directory_path(ec);
    if (ec) dir = ".";
    const std::string path =
        (dir / StringPrintf("conquer-spill-%ld-%llu.bin",
                            static_cast<long>(::getpid()),
                            static_cast<unsigned long long>(
                                counter.fetch_add(1))))
            .string();
    // Unlinked immediately: the spill store is anonymous and vanishes with
    // the process, even on a crash.
    Result<std::shared_ptr<SegmentFile>> file =
        SegmentFile::Create(path, /*unlink_immediately=*/true);
    DieOnIoError(file.status(), "spill file creation");
    spill_ = std::move(file).value();
  }
  return spill_;
}

uint64_t BufferPool::DefaultBudgetFromEnv() {
  const char* env = std::getenv("CONQUER_MEMORY_BUDGET");
  if (env == nullptr || *env == '\0') return 0;
  uint64_t bytes = 0;
  if (!ParseByteSize(env, &bytes)) {
    std::fprintf(stderr,
                 "conquer: ignoring malformed CONQUER_MEMORY_BUDGET '%s'\n",
                 env);
    return 0;
  }
  return bytes;
}

bool ParseByteSize(std::string_view text, uint64_t* bytes) {
  std::string t(Trim(text));
  for (char& c : t) c = static_cast<char>(std::tolower(c));
  if (t == "unlimited" || t == "none" || t == "off") {
    *bytes = 0;
    return true;
  }
  if (t.empty()) return false;
  size_t i = 0;
  uint64_t n = 0;
  while (i < t.size() && t[i] >= '0' && t[i] <= '9') {
    const uint64_t digit = static_cast<uint64_t>(t[i] - '0');
    // Reject overflow instead of silently wrapping to a tiny budget.
    if (n > (UINT64_MAX - digit) / 10) return false;
    n = n * 10 + digit;
    ++i;
  }
  if (i == 0) return false;
  uint64_t mult = 1;
  if (i < t.size()) {
    switch (t[i]) {
      case 'k':
        mult = 1ull << 10;
        ++i;
        break;
      case 'm':
        mult = 1ull << 20;
        ++i;
        break;
      case 'g':
        mult = 1ull << 30;
        ++i;
        break;
      default:
        break;
    }
    if (i < t.size() && t[i] == 'b') ++i;
    if (i != t.size()) return false;
  }
  if (n > UINT64_MAX / mult) return false;
  *bytes = n * mult;
  return true;
}

}  // namespace conquer
