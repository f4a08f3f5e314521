#include "exec/operators.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <functional>
#include <numeric>

#include "common/str_util.h"
#include "common/task_pool.h"
#include "exec/eval_batch.h"

namespace conquer {

namespace {
size_t HashValues(const Value* vals, size_t n) {
  size_t h = 0x811c9dc5u;
  for (size_t i = 0; i < n; ++i) {
    h ^= vals[i].Hash();
    h *= 0x01000193u;
  }
  return h;
}

size_t HashValues(const std::vector<Value>& vals) {
  return HashValues(vals.data(), vals.size());
}

bool ValuesEqual(const std::vector<Value>& a, const std::vector<Value>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].TotalCompare(b[i]) != 0) return false;
  }
  return true;
}

/// Raw hash of a key of fixed-width words (a HashAggregateOp group key).
/// Each word is multiplied in and its high bits folded back down; the
/// tables' HashMix then spreads the result over all 64 bits.
uint64_t HashWords(const uint64_t* words, size_t n) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ words[i]) * 0xff51afd7ed558ccdull;
    h ^= h >> 32;
  }
  return h;
}

/// The raw hash of an InputWindow key, by key form.
uint64_t HashKey(const Value* key, size_t n) { return HashValues(key, n); }
uint64_t HashKey(const uint64_t* key, size_t n) { return HashWords(key, n); }

/// A key stored in an InputWindow's flat buffer: probes the hash tables
/// without being copied first.
template <typename Word>
struct KeySpan {
  const Word* data;
  size_t size;

  std::vector<Word> ToVector() const { return {data, data + size}; }
};

bool KeyMatches(const std::vector<Value>& stored,
                const KeySpan<Value>& probe) {
  for (size_t i = 0; i < probe.size; ++i) {
    if (stored[i].TotalCompare(probe.data[i]) != 0) return false;
  }
  return true;
}

/// Shifts every column-reference slot in the tree by `delta` (used to rebase
/// a wide-layout predicate onto raw table rows: slot -= slot_offset).
void ShiftSlots(Expr* e, int delta) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::kColumnRef) e->slot += delta;
  ShiftSlots(e->left.get(), delta);
  ShiftSlots(e->right.get(), delta);
}

ExprPtr RebaseFilter(const Expr* filter, size_t slot_offset) {
  if (filter == nullptr) return nullptr;
  ExprPtr local = filter->Clone();
  ShiftSlots(local.get(), -static_cast<int>(slot_offset));
  return local;
}

/// Heap bytes of a Value beyond its inline footprint. Interned strings are
/// shared with the table dictionary, so they cost the holder nothing.
uint64_t ValueHeapBytes(const Value& v) {
  if (v.type() == DataType::kString && !v.is_interned()) {
    return v.string_value().capacity();
  }
  return 0;
}

/// The MVCC snapshot a scan of `table` reads: the test override when set,
/// else the table's latest committed version.
uint64_t ScanSnapshot(const ExecContext& exec, const Table& table) {
  return exec.snapshot_override != ExecContext::kSnapshotLatest
             ? exec.snapshot_override
             : table.committed_version();
}

/// Folds faulting I/O counters into an operator's metrics.
void AddPinStats(const PinStats& ps, OperatorMetrics* m) {
  m->chunks_loaded += ps.chunks_loaded;
  m->columns_loaded += ps.columns_loaded;
  m->bytes_read += ps.bytes_read;
  m->chunks_evicted += ps.chunks_evicted;
  m->io_read_seconds += ps.io_read_seconds;
}

/// Records that a morsel-driven phase ran `workers` tasks.
void NoteWorkers(size_t workers, OperatorMetrics* m) {
  m->parallel_degree =
      std::max(m->parallel_degree, static_cast<uint32_t>(workers));
  if (m->worker_rows.size() < workers) m->worker_rows.resize(workers, 0);
}

/// Runs `task(w)` for every worker w in [0, workers): on the pool when
/// there is more than one, inline on the caller (TaskGroup(nullptr))
/// otherwise. Returns the first error.
Status RunWorkers(const ExecContext& exec, size_t workers,
                  const std::function<Status(size_t)>& task) {
  TaskGroup group(workers > 1 ? exec.pool : nullptr);
  for (size_t w = 0; w < workers; ++w) {
    group.Submit([&task, w] { return task(w); });
  }
  return group.Wait();
}

/// Hash partitions of a join build or an aggregation at `degree` workers.
/// Partitions only split the work: every bucket or group lives in one
/// partition and is filled in global input order, so the count never
/// changes results. One worker fills one table; more share 32.
constexpr size_t kMaxPartitions = 32;
size_t NumPartitions(size_t degree) {
  return degree > 1 ? kMaxPartitions : 1;
}

/// \brief One bounded window of an operator's input, read in place from the
/// child's own batches, plus the scratch of the morsel-then-partition pass
/// over it (HashJoinOp's build, HashAggregateOp's accumulate). Reused
/// across windows, so steady-state passes allocate nothing here. `Word` is
/// the key form: Values for the join build (whose two sides intern strings
/// in different dictionaries), 64-bit words for the aggregate.
template <typename Word>
struct InputWindow {
  static constexpr uint8_t kDropped = 0xff;
  static_assert(kMaxPartitions < kDropped, "partition ids fit in a byte");

  InputWindow(size_t key_width, size_t num_partitions)
      : width(key_width), partitions(num_partitions) {}

  const size_t width;       ///< words per key
  const size_t partitions;  ///< hash partitions rows are routed to
  std::vector<RowBatch> batches;
  std::vector<Row*> rows;        ///< window rows in input order
  std::vector<Word> keys;        ///< row r's key: [r * width, (r+1) * width)
  std::vector<uint64_t> hashes;  ///< raw key hash per window row
  std::vector<uint8_t> parts;    ///< partition per window row, or kDropped
  bool drained = false;          ///< the child reported end of stream

  /// Refills the window with about parallelism() * morsel_size rows (at
  /// least one batch). False once the child is drained.
  Result<bool> Fill(const ExecContext& exec, Operator* child) {
    rows.clear();
    const size_t target =
        exec.parallelism() * std::max<size_t>(1, exec.morsel_size);
    for (size_t b = 0; !drained && rows.size() < target; ++b) {
      if (b == batches.size()) batches.emplace_back();
      RowBatch& batch = batches[b];
      batch.capacity = std::max<size_t>(1, exec.batch_size);
      CONQUER_ASSIGN_OR_RETURN(bool more, child->NextBatch(&batch));
      drained = !more;
      if (more) {
        for (Row& row : batch.rows) rows.push_back(&row);
      }
    }
    return !rows.empty();
  }

  /// The two-phase pass over the window. Phase 1 (morsel-parallel):
  /// `key_fn(w, r, key)` writes row r's `width` key words, or returns
  /// false to drop the row; the key is hashed once and the row goes to the
  /// partition named by the hash's high mixed bits, leaving the low bits to
  /// index the partition's flat table. Phase 2 (partition-parallel): worker
  /// w walks the window in input order and runs `apply(w, p, r, KeySpan)`
  /// for the rows of the partitions it owns (p % workers == w). Windows run in
  /// input order, so every partition sees its rows in global input order
  /// whatever the degree. A window holding fewer than two full morsels
  /// runs both phases inline.
  template <typename KeyFn, typename ApplyFn>
  Status Run(const ExecContext& exec, const KeyFn& key_fn,
             const ApplyFn& apply, OperatorMetrics* m) {
    const size_t n = rows.size();
    const size_t morsel = std::max<size_t>(1, exec.morsel_size);
    const size_t num_morsels = (n + morsel - 1) / morsel;
    // Only full morsels are worth a worker: under two, the window runs
    // inline.
    const size_t workers =
        std::clamp<size_t>(n / morsel, 1, exec.parallelism());
    NoteWorkers(workers, m);
    keys.resize(n * width);
    hashes.resize(n);
    parts.resize(n);
    std::atomic<size_t> next_morsel{0};
    CONQUER_RETURN_NOT_OK(RunWorkers(exec, workers, [&](size_t w) -> Status {
      size_t mo;
      while ((mo = next_morsel.fetch_add(1, std::memory_order_relaxed)) <
             num_morsels) {
        const size_t end = std::min(n, (mo + 1) * morsel);
        for (size_t r = mo * morsel; r < end; ++r) {
          Word* key = keys.data() + r * width;
          CONQUER_ASSIGN_OR_RETURN(bool keep, key_fn(w, r, key));
          if (!keep) {
            parts[r] = kDropped;
            continue;
          }
          hashes[r] = HashKey(key, width);
          parts[r] = static_cast<uint8_t>(
              HashPartition(HashMix(hashes[r]), partitions));
        }
      }
      return Status::OK();
    }));
    std::array<size_t, kMaxPartitions> owner;  // partition -> worker
    for (size_t p = 0; p < partitions; ++p) owner[p] = p % workers;
    return RunWorkers(exec, workers, [&](size_t w) -> Status {
      uint64_t applied = 0;
      for (size_t r = 0; r < n; ++r) {
        if (parts[r] == kDropped || owner[parts[r]] != w) continue;
        CONQUER_RETURN_NOT_OK(apply(
            w, parts[r], r, KeySpan<Word>{keys.data() + r * width, width}));
        ++applied;
      }
      m->worker_rows[w] += applied;
      return Status::OK();
    });
  }
};
}  // namespace

uint64_t EstimateRowBytes(const Row& row) {
  uint64_t bytes = sizeof(Row) + row.capacity() * sizeof(Value);
  for (const Value& v : row) bytes += ValueHeapBytes(v);
  return bytes;
}

std::string ExplainPlan(const Operator& root) {
  std::string out;
  struct Frame {
    const Operator* op;
    int depth;
  };
  std::vector<Frame> stack = {{&root, 0}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    out += std::string(static_cast<size_t>(f.depth) * 2, ' ') +
           f.op->Describe() + "\n";
    auto children = f.op->Children();
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back({*it, f.depth + 1});
    }
  }
  return out;
}

// ---------------------------------------------------------------- SeqScanOp

SeqScanOp::SeqScanOp(const Table* table, size_t slot_offset,
                     size_t total_slots, ExprPtr pushed_filter,
                     const ExecContext& exec,
                     const std::vector<bool>* referenced_slots)
    : table_(table),
      filter_(std::move(pushed_filter)),
      exec_(exec),
      slot_offset_(slot_offset),
      total_slots_(total_slots),
      local_filter_(RebaseFilter(filter_.get(), slot_offset)) {
  const size_t num_columns = table_->schema().num_columns();
  if (referenced_slots != nullptr) {
    prune_ = true;
    for (size_t c = 0; c < num_columns; ++c) {
      if ((*referenced_slots)[slot_offset_ + c]) {
        materialize_cols_.push_back(static_cast<uint32_t>(c));
      }
    }
    pin_cols_ = materialize_cols_;
  } else {
    pin_cols_.resize(num_columns);
    std::iota(pin_cols_.begin(), pin_cols_.end(), 0u);
  }
  if (local_filter_) AddExprColumns(*local_filter_, num_columns, &pin_cols_);
}

void SeqScanOp::AddRuntimeFilter(RuntimeFilterPtr filter, size_t column) {
  runtime_filters_.push_back({std::move(filter), column});
  AddColumn(static_cast<uint32_t>(column), &pin_cols_);
}

void SeqScanOp::MaterializeWide(size_t chunk_index, uint32_t row,
                                Row* out) const {
  const Chunk& ch = table_->chunk(chunk_index);
  // A recycled row of the right width only ever held this scan's
  // materialized slots; the NULLs elsewhere are intact, so only those
  // slots are rewritten.
  if (out->size() != total_slots_) out->assign(total_slots_, Value::Null());
  if (prune_) {
    for (uint32_t c : materialize_cols_) {
      (*out)[slot_offset_ + c] = ch.GetValue(row, c, table_->dictionary(c));
    }
    return;
  }
  for (size_t c = 0; c < ch.num_columns(); ++c) {
    (*out)[slot_offset_ + c] = ch.GetValue(row, c, table_->dictionary(c));
  }
}

void SeqScanOp::SeedChunk(size_t chunk_index, SelVector* sel,
                          ScanCounters* /*counters*/) const {
  const Chunk& ch = table_->chunk(chunk_index);
  sel->resize(ch.num_rows());
  std::iota(sel->begin(), sel->end(), 0u);
  // Snapshot visibility before predicates: a stamped chunk may hold dead
  // (deleted / superseded) versions or rows newer than the snapshot.
  KeepVisible(ch, snapshot_, sel);
}

Status SeqScanOp::FilterChunk(size_t chunk_index, SelVector* sel,
                              ChunkPin* pin, ScanCounters* counters) const {
  const Chunk& ch = table_->chunk(chunk_index);
  sel->clear();
  pin->Reset();
  // Zone maps are resident metadata: the skip test runs before the payload
  // pin, so a pruned chunk never faults its columns in from disk.
  if (local_filter_ && exec_.enable_zone_pruning &&
      ZoneMapCanSkip(*local_filter_, *table_, ch)) {
    ++counters->chunks_skipped;
    return Status::OK();
  }
  SeedChunk(chunk_index, sel, counters);
  counters->rows += sel->size();
  if (sel->empty()) return Status::OK();
  // The seeded rows (visible, or an index's candidates) are the only ones
  // the filters and the emission below read: pin just their blocks.
  *pin = table_->PinChunk(chunk_index, pin_cols_, *sel, &counters->pins);
  assert(std::all_of(pin_cols_.begin(), pin_cols_.end(), [&](uint32_t c) {
    return std::all_of(sel->begin(), sel->end(),
                       [&](uint32_t r) { return ch.row_resident(c, r); });
  }));
  if (local_filter_) {
    CONQUER_RETURN_NOT_OK(FilterChunkSelection(
        *local_filter_, *table_, chunk_index, sel, &counters->dict_hits));
  }
  // Runtime semi-join filters: drop rows whose join key provably cannot be
  // in the build side (NULL keys can never join either). Order among
  // survivors is preserved, so output is bit-identical with filters off.
  for (const ScanFilter& rf : runtime_filters_) {
    if (sel->empty()) break;
    if (!rf.filter->ready.load(std::memory_order_acquire)) continue;
    const ColumnVector& cv = ch.column(rf.column);
    const StringDictionary* dict = table_->dictionary(rf.column);
    size_t out = 0;
    for (uint32_t i : *sel) {
      if (!cv.is_null(i) &&
          rf.filter->bloom.MayContain(cv.GetValue(i, dict).Hash())) {
        (*sel)[out++] = i;
      } else {
        ++counters->bloom_filtered;
      }
    }
    sel->resize(out);
  }
  if (sel->empty()) pin->Reset();
  return Status::OK();
}

Status SeqScanOp::FilterWindow() {
  const size_t count = std::min(exec_.parallelism(), end_chunk_ - next_chunk_);
  window_.resize(count);
  for (size_t i = 0; i < count; ++i) window_[i].chunk = next_chunk_ + i;
  next_chunk_ += count;
  window_cursor_ = 0;
  match_cursor_ = 0;
  OperatorMetrics& m = mutable_metrics();
  NoteWorkers(count, &m);
  // A morsel is a whole chunk: zone-map pruning decides per claim, and only
  // surviving positions are ever materialized into wide rows.
  std::vector<ScanCounters> counters(count);
  std::atomic<size_t> next{0};
  Status s = RunWorkers(exec_, count, [&](size_t w) -> Status {
    size_t i;
    while ((i = next.fetch_add(1, std::memory_order_relaxed)) < count) {
      WindowChunk& wc = window_[i];
      CONQUER_RETURN_NOT_OK(
          FilterChunk(wc.chunk, &wc.sel, &wc.pin, &counters[w]));
    }
    return Status::OK();
  });
  for (size_t w = 0; w < count; ++w) {
    const ScanCounters& c = counters[w];
    m.worker_rows[w] += c.rows;
    m.dict_hits += c.dict_hits;
    m.chunks_skipped += c.chunks_skipped;
    m.bloom_filtered += c.bloom_filtered;
    m.index_probes += c.index_probes;
    m.index_rows += c.index_rows;
    AddPinStats(c.pins, &m);
  }
  return s;
}

Status SeqScanOp::OpenImpl() {
  snapshot_ = ScanSnapshot(exec_, *table_);
  window_.clear();
  window_cursor_ = 0;
  match_cursor_ = 0;
  next_chunk_ = 0;
  end_chunk_ = table_->num_chunks();
  return Status::OK();
}

Result<bool> SeqScanOp::NextBatchImpl(RowBatch* out) {
  // Rows are materialized in place (recycling each wide row's buffer when
  // the consumer left it behind) instead of cleared and re-pushed.
  size_t filled = 0;
  while (filled < out->capacity) {
    if (window_cursor_ == window_.size()) {
      if (next_chunk_ >= end_chunk_) break;
      CONQUER_RETURN_NOT_OK(FilterWindow());
      continue;
    }
    WindowChunk& wc = window_[window_cursor_];
    const size_t take =
        std::min(out->capacity - filled, wc.sel.size() - match_cursor_);
    if (out->rows.size() < filled + take) out->rows.resize(filled + take);
    for (size_t i = 0; i < take; ++i) {
      MaterializeWide(wc.chunk, wc.sel[match_cursor_ + i],
                      &out->rows[filled + i]);
    }
    filled += take;
    match_cursor_ += take;
    if (match_cursor_ == wc.sel.size()) {
      wc.pin.Reset();  // emission left the chunk
      ++window_cursor_;
      match_cursor_ = 0;
    }
  }
  out->rows.resize(filled);
  return filled > 0;
}

void SeqScanOp::CloseImpl() {
  window_.clear();
  window_cursor_ = 0;
}

std::string SeqScanOp::Describe() const {
  std::string out = "SeqScan(" + table_->name();
  if (filter_) out += ", filter: " + filter_->ToString();
  out += ")";
  return out;
}

// --------------------------------------------------------------- IndexScanOp

IndexScanOp::IndexScanOp(const Table* table, size_t column, Value key,
                         size_t slot_offset, size_t total_slots,
                         ExprPtr filter, const ExecContext& exec,
                         const std::vector<bool>* referenced_slots)
    : SeqScanOp(table, slot_offset, total_slots, std::move(filter), exec,
                referenced_slots),
      column_(column),
      keys_{std::move(key)} {}

IndexScanOp::IndexScanOp(const Table* table, size_t column,
                         RuntimeFilterPtr join_keys, size_t slot_offset,
                         size_t total_slots, ExprPtr filter,
                         const ExecContext& exec,
                         const std::vector<bool>* referenced_slots)
    : SeqScanOp(table, slot_offset, total_slots, std::move(filter), exec,
                referenced_slots),
      column_(column),
      join_keys_(std::move(join_keys)) {}

Status IndexScanOp::OpenImpl() {
  const ChunkIndex* idx = table_->GetIndex(column_);
  if (idx == nullptr) {
    return Status::Internal("IndexScanOp: column is not indexed");
  }
  if (join_keys_ && !join_keys_->ready.load(std::memory_order_acquire)) {
    return Status::Internal("IndexScanOp: opened before its join's build");
  }
  const std::vector<Value>& keys = join_keys_ ? join_keys_->keys : keys_;
  probes_.clear();
  seed_all_ = false;
  for (const Value& key : keys) {
    bool unsupported = false;
    const ChunkIndex::ProbeSpec probe =
        idx->ResolveProbe(key, table_->dictionary(column_), &unsupported);
    seed_all_ = seed_all_ || unsupported;
    if (probe.kind == ChunkIndex::ProbeSpec::Kind::kKey) {
      probes_.push_back(probe);
    }
  }
  CONQUER_RETURN_NOT_OK(SeqScanOp::OpenImpl());
  // No stored value can match any key: there is no chunk worth probing.
  if (probes_.empty() && !seed_all_) end_chunk_ = 0;
  return Status::OK();
}

void IndexScanOp::SeedChunk(size_t chunk_index, SelVector* sel,
                            ScanCounters* counters) const {
  if (seed_all_) {
    SeqScanOp::SeedChunk(chunk_index, sel, counters);
    return;
  }
  const Chunk& ch = table_->chunk(chunk_index);
  if (ch.num_rows() == 0) return;
  // The index slice is resident; only an invalidated slice faults the
  // payload in (to rebuild it).
  table_->IndexProbeChunk(column_, probes_, chunk_index, sel, &counters->pins);
  ++counters->index_probes;
  counters->index_rows += sel->size();
  KeepVisible(ch, snapshot_, sel);
}

std::string IndexScanOp::Describe() const {
  std::string out = "IndexScan(" + table_->name() + ", " +
                    table_->schema().column(column_).name + " = " +
                    (join_keys_ ? "build keys" : keys_[0].ToSqlLiteral());
  if (filter_) out += ", filter: " + filter_->ToString();
  out += ")";
  return out;
}

// ------------------------------------------------------------------ FilterOp

FilterOp::FilterOp(OperatorPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

Status FilterOp::OpenImpl() { return child_->Open(); }

Result<bool> FilterOp::NextBatchImpl(RowBatch* out) {
  out->rows.clear();
  while (out->rows.empty()) {
    child_batch_.capacity = out->capacity;
    CONQUER_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&child_batch_));
    if (!more) return false;
    for (Row& row : child_batch_.rows) {
      CONQUER_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*predicate_, row));
      if (pass) out->rows.push_back(std::move(row));
    }
  }
  return true;
}

void FilterOp::CloseImpl() { child_->Close(); }

std::string FilterOp::Describe() const {
  return "Filter(" + predicate_->ToString() + ")";
}

std::vector<const Operator*> FilterOp::Children() const {
  return {child_.get()};
}

// ---------------------------------------------------------------- HashJoinOp

size_t HashJoinOp::KeyHash::operator()(const std::vector<Value>& key) const {
  return HashValues(key);
}
bool HashJoinOp::KeyEq::operator()(const std::vector<Value>& a,
                                   const std::vector<Value>& b) const {
  return ValuesEqual(a, b);
}

HashJoinOp::HashJoinOp(OperatorPtr build, OperatorPtr probe,
                       std::vector<int> build_key_slots,
                       std::vector<int> probe_key_slots,
                       std::vector<uint32_t> build_slots,
                       std::vector<uint32_t> probe_slots,
                       const ExecContext& exec)
    : build_(std::move(build)),
      probe_(std::move(probe)),
      build_keys_(std::move(build_key_slots)),
      probe_keys_(std::move(probe_key_slots)),
      build_slots_(std::move(build_slots)),
      probe_slots_(std::move(probe_slots)),
      exec_(exec) {
  assert(build_keys_.size() == probe_keys_.size());
}

void HashJoinOp::EmitRow(const Row& probe_row, const Row& build_row,
                         Row* dst) const {
  // Only the referenced probe/build slots ever hold values; everything else
  // is NULL in probe_row and (by this invariant) a recycled dst.
  if (dst->size() != probe_row.size()) dst->assign(probe_row.size(), Value());
  for (uint32_t s : probe_slots_) (*dst)[s] = probe_row[s];
  for (size_t i = 0; i < build_slots_.size(); ++i) {
    (*dst)[build_slots_[i]] = build_row[i];
  }
}

Status HashJoinOp::Build() {
  partitions_.assign(NumPartitions(exec_.parallelism()), BuildTable{});
  // Per-worker counters: the two phases never overlap, so every slot has
  // one writer at a time.
  std::vector<uint64_t> bytes(exec_.parallelism(), 0);
  std::vector<uint64_t> rows(exec_.parallelism(), 0);
  InputWindow<Value> window(build_keys_.size(), partitions_.size());
  auto key_fn = [&](size_t /*w*/, size_t r, Value* key) -> Result<bool> {
    const Row& row = *window.rows[r];
    for (int slot : build_keys_) {
      // NULL join keys never match anything in SQL; drop them at build.
      if (row[slot].is_null()) return false;
      *key++ = row[slot];
    }
    return true;
  };
  auto apply = [&](size_t w, size_t p, size_t r,
                   KeySpan<Value> key) -> Status {
    // Only the first row of a key copies it into the table.
    BuildTable& table = partitions_[p];
    std::vector<Row>* bucket =
        table.FindHashedAs(window.hashes[r], key, KeyMatches);
    if (bucket == nullptr) {
      bucket = table.TryEmplaceHashed(window.hashes[r], key.ToVector()).first;
      bytes[w] += key.size * sizeof(Value);
    }
    ++rows[w];
    // Keep only the build slots a match emits; the wide row stays in the
    // child's batch, which recycles its buffer.
    const Row& row = *window.rows[r];
    Row& stored = bucket->emplace_back();
    stored.reserve(build_slots_.size());
    for (uint32_t s : build_slots_) stored.push_back(row[s]);
    bytes[w] += EstimateRowBytes(stored);
    return Status::OK();
  };
  while (true) {
    CONQUER_ASSIGN_OR_RETURN(bool more, window.Fill(exec_, build_.get()));
    if (!more) break;
    mutable_metrics().build_rows += window.rows.size();
    CONQUER_RETURN_NOT_OK(
        window.Run(exec_, key_fn, apply, &mutable_metrics()));
  }
  uint64_t table_bytes = 0;
  for (const BuildTable& table : partitions_) {
    table_bytes += table.StructureBytes();
  }
  mutable_metrics().hash_entries =
      std::accumulate(rows.begin(), rows.end(), uint64_t{0});
  mutable_metrics().peak_memory_bytes =
      std::accumulate(bytes.begin(), bytes.end(), table_bytes);
  return Status::OK();
}

void HashJoinOp::FillRuntimeFilters() {
  if (filter_targets_.empty()) return;
  size_t total_keys = 0;
  for (const BuildTable& part : partitions_) total_keys += part.size();
  for (FilterTarget& target : filter_targets_) {
    RuntimeFilter& filter = *target.filter;
    const bool publish_keys = filter.kind == RuntimeFilter::Kind::kKeys;
    if (publish_keys) {
      filter.keys.clear();
      filter.keys.reserve(total_keys);
    } else {
      filter.bloom.Init(total_keys);
    }
    for (const BuildTable& part : partitions_) {
      for (const auto& entry : part.entries()) {
        const Value& key = entry.key[target.key_index];
        if (publish_keys) {
          filter.keys.push_back(key);
        } else {
          // Single-column hash: the consuming scan hashes its key column
          // the same way, so membership tests line up even for composite
          // joins.
          filter.bloom.Add(key.Hash());
        }
      }
    }
    filter.ready.store(true, std::memory_order_release);
  }
}

Status HashJoinOp::OpenImpl() {
  // Re-execution starts from a clean slate: consumers must not observe a
  // stale filter from the previous run while this build is in progress.
  for (FilterTarget& target : filter_targets_) {
    target.filter->ready.store(false, std::memory_order_release);
  }
  CONQUER_RETURN_NOT_OK(build_->Open());
  CONQUER_RETURN_NOT_OK(Build());
  build_->Close();
  // The build side is final; publish its keys to any probe-side scans
  // before they open (scans in the probe subtree open strictly after this).
  FillRuntimeFilters();
  CONQUER_RETURN_NOT_OK(probe_->Open());
  current_matches_ = nullptr;
  probe_current_ = nullptr;
  match_cursor_ = 0;
  probe_batch_.clear();
  probe_cursor_ = 0;
  return Status::OK();
}

const std::vector<Row>* HashJoinOp::ProbeLookup(const Row& probe_row) {
  probe_key_.clear();
  bool has_null_key = false;
  for (int slot : probe_keys_) {
    probe_key_.push_back(probe_row[slot]);
    has_null_key = has_null_key || probe_row[slot].is_null();
  }
  if (has_null_key) return nullptr;
  // Hash once: the raw hash routes to the partition (high mixed bits) and
  // probes its flat table (low mixed bits).
  const uint64_t raw = HashValues(probe_key_);
  const size_t p = HashPartition(HashMix(raw), partitions_.size());
  return partitions_[p].FindHashed(raw, probe_key_);
}

Result<bool> HashJoinOp::NextBatchImpl(RowBatch* out) {
  // Assign output rows in place instead of clear()+push_back: a consumer
  // that reads the batch without moving rows out (e.g. a streaming
  // aggregate) lets each wide row's buffer be recycled across calls, so the
  // steady state emits with zero per-row allocation.
  size_t n = 0;
  while (n < out->capacity) {
    if (current_matches_ != nullptr &&
        match_cursor_ < current_matches_->size()) {
      const Row& build_row = (*current_matches_)[match_cursor_++];
      if (n == out->rows.size()) out->rows.emplace_back();
      EmitRow(*probe_current_, build_row, &out->rows[n++]);
      continue;
    }
    current_matches_ = nullptr;
    if (probe_cursor_ >= probe_batch_.rows.size()) {
      probe_batch_.capacity = out->capacity;
      CONQUER_ASSIGN_OR_RETURN(bool more, probe_->NextBatch(&probe_batch_));
      if (!more) break;
      probe_cursor_ = 0;
    }
    // Probe in place: the row stays inside probe_batch_ (so the child can
    // recycle its buffer on the next fill) and is read via pointer while
    // its matches are emitted.
    const Row& pr = probe_batch_.rows[probe_cursor_++];
    mutable_metrics().probe_rows += 1;
    const std::vector<Row>* hit = ProbeLookup(pr);
    if (hit == nullptr) continue;
    probe_current_ = &pr;
    current_matches_ = hit;
    match_cursor_ = 0;
  }
  out->rows.resize(n);
  return n > 0;
}

void HashJoinOp::CloseImpl() {
  partitions_.clear();
  probe_->Close();
}

std::string HashJoinOp::Describe() const {
  if (build_keys_.empty()) return "CrossJoin()";
  std::string out = "HashJoin(build slots: ";
  for (size_t i = 0; i < build_keys_.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(build_keys_[i]);
  }
  out += " = probe slots: ";
  for (size_t i = 0; i < probe_keys_.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(probe_keys_[i]);
  }
  out += ")";
  return out;
}

std::vector<const Operator*> HashJoinOp::Children() const {
  return {build_.get(), probe_.get()};
}

// ----------------------------------------------------------------- ProjectOp

ProjectOp::ProjectOp(OperatorPtr child, std::vector<const Expr*> exprs)
    : child_(std::move(child)), exprs_(std::move(exprs)) {}

Status ProjectOp::OpenImpl() { return child_->Open(); }

Result<bool> ProjectOp::NextBatchImpl(RowBatch* out) {
  out->rows.clear();
  child_batch_.capacity = out->capacity;
  CONQUER_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&child_batch_));
  if (!more) return false;
  out->rows.reserve(child_batch_.rows.size());
  for (const Row& wide : child_batch_.rows) {
    Row narrow;
    narrow.reserve(exprs_.size());
    for (const Expr* e : exprs_) {
      CONQUER_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, wide));
      narrow.push_back(std::move(v));
    }
    // Projection is the boundary where dictionary-interned strings leave
    // the executor: decode them into owning values.
    DecodeRowInPlace(&narrow);
    out->rows.push_back(std::move(narrow));
  }
  return true;
}

void ProjectOp::CloseImpl() { child_->Close(); }

std::string ProjectOp::Describe() const {
  std::string out = "Project(";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs_[i]->ToString();
  }
  out += ")";
  return out;
}

std::vector<const Operator*> ProjectOp::Children() const {
  return {child_.get()};
}

// ----------------------------------------------------------- HashAggregateOp

namespace {
void CollectAggCalls(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::kAggregate) {
    out->push_back(e);
    return;  // no nested aggregates (binder enforces)
  }
  CollectAggCalls(e->left.get(), out);
  CollectAggCalls(e->right.get(), out);
}

/// True when `e` has a column reference outside any aggregate call — the
/// case where finalization must re-evaluate against a stored group row.
bool HasColumnRefOutsideAggregate(const Expr& e) {
  if (e.kind == Expr::Kind::kAggregate) return false;
  if (e.kind == Expr::Kind::kColumnRef) return true;
  if (e.left && HasColumnRefOutsideAggregate(*e.left)) return true;
  if (e.right && HasColumnRefOutsideAggregate(*e.right)) return true;
  return false;
}

/// Appends the slots of a left-deep product of DOUBLE column references,
/// leftmost factor first — EvalBinary's multiplication order. False for
/// any other shape.
bool CollectDoubleFactors(const Expr& e, std::vector<int>* slots) {
  if (e.kind == Expr::Kind::kColumnRef) {
    if (e.resolved_type != DataType::kDouble) return false;
    slots->push_back(e.slot);
    return true;
  }
  return e.kind == Expr::Kind::kBinary && e.bop == BinaryOp::kMul &&
         e.resolved_type == DataType::kDouble &&
         e.right->kind == Expr::Kind::kColumnRef &&
         CollectDoubleFactors(*e.left, slots) &&
         CollectDoubleFactors(*e.right, slots);
}

Status TypeMismatch(const char* what, DataType bound, const Value& v) {
  return Status::Internal(StringPrintf("%s: %s value where %s is bound", what,
                                       DataTypeToString(v.type()),
                                       DataTypeToString(bound)));
}
}  // namespace

HashAggregateOp::HashAggregateOp(OperatorPtr child,
                                 std::vector<const Expr*> group_exprs,
                                 std::vector<const Expr*> select_items,
                                 const ExecContext& exec)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      select_items_(std::move(select_items)),
      exec_(exec) {
  key_columns_.reserve(group_exprs_.size());
  for (const Expr* g : group_exprs_) {
    KeyColumn key{KeyColumn::Kind::kNull, g->resolved_type, -1, g};
    const bool column = g->kind == Expr::Kind::kColumnRef;
    if (column) key.slot = g->slot;
    switch (g->resolved_type) {
      case DataType::kNull:
        break;
      case DataType::kInt64:
      case DataType::kDate:
        key.kind = KeyColumn::Kind::kInt;
        break;
      case DataType::kBool:
        key.kind = KeyColumn::Kind::kBool;
        break;
      case DataType::kDouble:
        key.kind = KeyColumn::Kind::kDouble;
        has_double_key_ = true;
        break;
      case DataType::kString:
        key.kind = column ? KeyColumn::Kind::kColumnString
                          : KeyColumn::Kind::kLocalString;
        break;
    }
    key_columns_.push_back(key);
  }
  mask_words_ = (key_columns_.size() + 63) / 64;
  key_width_ = key_columns_.size() + mask_words_;

  // Plan each output item: serve it from the group key when it matches a
  // grouping expression (the common case for the clean-answer rewriting,
  // which groups by exactly the SELECT attributes), evaluate it once per
  // group when group-invariant, or finalize it from aggregate state.
  std::vector<const Expr*> aggregates;
  for (const Expr* item : select_items_) {
    if (item->ContainsAggregate()) {
      item_plans_.push_back({ItemPlan::Source::kFinalize, aggregates.size()});
      CollectAggCalls(item, &aggregates);
      if (HasColumnRefOutsideAggregate(*item)) needs_representative_ = true;
      continue;
    }
    bool matched = false;
    for (size_t g = 0; g < group_exprs_.size() && !matched; ++g) {
      if (item->StructurallyEquals(*group_exprs_[g])) {
        item_plans_.push_back({ItemPlan::Source::kFromKey, g});
        matched = true;
      }
    }
    if (!matched) {
      item_plans_.push_back(
          {ItemPlan::Source::kInvariantEval, num_invariant_evals_++});
    }
  }
  // Compile each argument: a column or a DOUBLE product reads the row's
  // slots directly; anything else keeps the scalar evaluator.
  calls_.reserve(aggregates.size());
  for (const Expr* node : aggregates) {
    AggCall call{node, AggCall::Arg::kEval,
                 node->agg == AggFunc::kSum &&
                     node->resolved_type == DataType::kInt64,
                 {}};
    const Expr* arg = node->left.get();
    if (arg == nullptr) {
      call.arg = AggCall::Arg::kNone;
    } else if (CollectDoubleFactors(*arg, &call.factors)) {
      call.arg = AggCall::Arg::kProduct;  // a DOUBLE column is one factor
      call.product = num_products_++;
    } else if (arg->kind == Expr::Kind::kColumnRef) {
      call.arg = AggCall::Arg::kColumn;
      call.factors = {arg->slot};
    } else {
      call.factors.clear();
    }
    calls_.push_back(std::move(call));
  }
}

Status HashAggregateOp::EncodeKey(const Row& row, uint64_t* key,
                                  uint64_t* negative_zeros) const {
  const size_t n = key_columns_.size();
  uint64_t* nulls = key + n;
  std::fill(nulls, nulls + mask_words_, 0);
  if (has_double_key_) {
    std::fill(negative_zeros, negative_zeros + mask_words_, 0);
  }
  Value computed;
  for (size_t k = 0; k < n; ++k) {
    const KeyColumn& col = key_columns_[k];
    // Column keys (the rewriting groups by the SELECT attributes) are read
    // in place; only computed keys go through the evaluator.
    const Value* v = &computed;
    if (col.slot >= 0) {
      v = &row[col.slot];
    } else {
      CONQUER_ASSIGN_OR_RETURN(computed, EvalExpr(*col.expr, row));
    }
    const uint64_t bit = uint64_t{1} << (k % 64);
    if (v->is_null()) {
      key[k] = 0;
      nulls[k / 64] |= bit;
      continue;
    }
    if (v->type() != col.type) return TypeMismatch("group key", col.type, *v);
    switch (col.kind) {
      case KeyColumn::Kind::kNull:
        break;  // unreachable: a NULL-typed key admits only NULL
      case KeyColumn::Kind::kInt:
        key[k] = static_cast<uint64_t>(v->int_value());  // DATE: its days
        break;
      case KeyColumn::Kind::kBool:
        key[k] = v->bool_value() ? 1 : 0;
        break;
      case KeyColumn::Kind::kDouble: {
        double d = v->double_value();
        if (d == 0.0) {  // -0.0 groups with +0.0; remember which came first
          if (std::signbit(d)) negative_zeros[k / 64] |= bit;
          d = 0.0;
        }
        key[k] = std::bit_cast<uint64_t>(d);
        break;
      }
      case KeyColumn::Kind::kColumnString: {
        // One dictionary per column stores each text once and every write
        // interns eagerly, so equal texts share one pointer.
        const std::string* s = v->interned_ptr();
        assert(s != nullptr && "column strings are dictionary-interned");
        if (s == nullptr) {
          return Status::Internal("group key: column string not interned");
        }
        key[k] = reinterpret_cast<uintptr_t>(s);
        break;
      }
      case KeyColumn::Kind::kLocalString:
        key[k] = reinterpret_cast<uintptr_t>(
            local_strings_->InternValue(v->string_value()).interned_ptr());
        break;
    }
  }
  return Status::OK();
}

Status HashAggregateOp::ComputeProducts(
    const Row& row, std::optional<double>* products) const {
  for (const AggCall& call : calls_) {
    if (call.arg != AggCall::Arg::kProduct) continue;
    // ((f0 * f1) * f2) ...: EvalBinary's order, so sums stay bit-identical;
    // a NULL factor makes the product NULL.
    std::optional<double>& product = products[call.product];
    product = 1.0;
    for (size_t f = 0; f < call.factors.size(); ++f) {
      const Value& x = row[call.factors[f]];
      if (x.is_null()) {
        product.reset();
        break;
      }
      if (x.type() != DataType::kDouble) {
        return TypeMismatch("aggregate factor", DataType::kDouble, x);
      }
      *product = f == 0 ? x.double_value() : *product * x.double_value();
    }
  }
  return Status::OK();
}

Result<uint64_t> HashAggregateOp::Accumulate() {
  InputWindow<uint64_t> window(key_width_, partitions_.size());
  uint64_t consumed = 0;  // global input position of the window's first row
  auto negative_zeros = [&](size_t r) {
    return has_double_key_ ? window_negative_zeros_.data() + r * mask_words_
                           : nullptr;
  };
  auto products = [&](size_t r) {
    return window_products_.data() + r * num_products_;
  };
  // Phase 1 reads each row once: its key and its products.
  auto key_fn = [&](size_t /*w*/, size_t r, uint64_t* key) -> Result<bool> {
    const Row& row = *window.rows[r];
    CONQUER_RETURN_NOT_OK(EncodeKey(row, key, negative_zeros(r)));
    CONQUER_RETURN_NOT_OK(ComputeProducts(row, products(r)));
    return true;
  };
  auto apply = [&](size_t w, size_t p, size_t r,
                   KeySpan<uint64_t> key) -> Status {
    if (partitions_[p] == nullptr) {
      partitions_[p] = std::make_unique<Partition>();
    }
    Partition& part = *partitions_[p];
    auto same_key = [&part, &key](uint32_t g, const uint64_t* probe) {
      const uint64_t* stored = part.keys.data() + size_t{g} * key.size;
      for (size_t i = 0; i < key.size; ++i) {
        if (stored[i] != probe[i]) return false;
      }
      return true;
    };
    // One probe finds the group or, on a miss, places the new one; only a
    // new group copies its key words.
    const auto [g, inserted] = part.directory.FindOrInsertHashedAs(
        window.hashes[r], key.data, same_key,
        [&part] { return part.num_groups(); });
    const Row& row = *window.rows[r];
    if (inserted) {
      created_[w].push_back({static_cast<uint32_t>(p), g});
      CONQUER_RETURN_NOT_OK(
          AddGroup(&part, key.data, negative_zeros(r), row, consumed + r));
    }
    return UpdateGroup(&part, g, row, products(r));
  };
  while (true) {
    CONQUER_ASSIGN_OR_RETURN(bool more, window.Fill(exec_, child_.get()));
    if (!more) break;
    if (has_double_key_) {
      window_negative_zeros_.resize(window.rows.size() * mask_words_);
    }
    window_products_.resize(window.rows.size() * num_products_);
    CONQUER_RETURN_NOT_OK(
        window.Run(exec_, key_fn, apply, &mutable_metrics()));
    consumed += window.rows.size();
  }
  return consumed;
}

Status HashAggregateOp::AddGroup(Partition* part, const uint64_t* key,
                                 const uint64_t* negative_zeros,
                                 const Row& row, uint64_t row_index) {
  const size_t at = part->keys.size();
  part->keys.resize(at + key_width_);
  std::copy(key, key + key_width_, part->keys.begin() + at);
  part->directory.mutable_entries().back().value = row_index;
  for (size_t i = 0; has_double_key_ && i < mask_words_; ++i) {
    part->negative_zeros.push_back(negative_zeros[i]);
  }
  if (part->aggs.size() != calls_.size()) part->aggs.resize(calls_.size());
  for (size_t i = 0; i < calls_.size(); ++i) {
    AggColumn& col = part->aggs[i];
    switch (calls_[i].expr->agg) {
      case AggFunc::kCount:
        col.count.push_back(0);
        break;
      case AggFunc::kSum:
        if (calls_[i].int_sum) {
          col.isum.push_back(0);
        } else {
          col.sum.push_back(0.0);
        }
        col.saw.push_back(0);
        break;
      case AggFunc::kAvg:
        col.sum.push_back(0.0);
        col.count.push_back(0);
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        col.min_max.emplace_back();
        break;
      case AggFunc::kNone:
        return Status::Internal("kNone aggregate call");
    }
  }
  for (size_t i = 0; i < select_items_.size(); ++i) {
    if (item_plans_[i].source == ItemPlan::Source::kInvariantEval) {
      CONQUER_ASSIGN_OR_RETURN(Value v, EvalExpr(*select_items_[i], row));
      part->invariants.push_back(std::move(v));
    }
  }
  if (needs_representative_) part->representatives.push_back(row);
  return Status::OK();
}

Status HashAggregateOp::UpdateGroup(
    Partition* part, uint32_t g, const Row& row,
    const std::optional<double>* products) const {
  Value computed;
  for (size_t i = 0; i < calls_.size(); ++i) {
    const AggCall& call = calls_[i];
    const AggFunc fn = call.expr->agg;
    AggColumn& col = part->aggs[i];
    const Value* v = &computed;
    switch (call.arg) {
      case AggCall::Arg::kNone:  // COUNT(*)
        ++col.count[g];
        continue;
      case AggCall::Arg::kColumn:
        v = &row[call.factors[0]];
        break;
      case AggCall::Arg::kProduct: {
        const std::optional<double>& product = products[call.product];
        if (!product) continue;  // SQL aggregates skip NULLs
        if (fn == AggFunc::kSum || fn == AggFunc::kAvg) {
          col.sum[g] += *product;
          if (fn == AggFunc::kSum) {
            col.saw[g] = 1;
          } else {
            ++col.count[g];
          }
          continue;
        }
        computed = Value::Double(*product);
        break;
      }
      case AggCall::Arg::kEval:
        CONQUER_ASSIGN_OR_RETURN(computed, EvalExpr(*call.expr->left, row));
        break;
    }
    if (v->is_null()) continue;  // SQL aggregates skip NULLs
    switch (fn) {
      case AggFunc::kCount:
        ++col.count[g];
        break;
      case AggFunc::kSum:
        col.saw[g] = 1;
        if (!call.int_sum) {
          col.sum[g] += v->AsDouble();
        } else if (v->type() != DataType::kInt64) {
          return TypeMismatch("SUM argument", DataType::kInt64, *v);
        } else if (__builtin_add_overflow(col.isum[g], v->int_value(),
                                          &col.isum[g])) {
          return Status::OutOfRange("integer overflow in '" +
                                    call.expr->ToString() + "'");
        }
        break;
      case AggFunc::kAvg:
        ++col.count[g];
        col.sum[g] += v->AsDouble();
        break;
      case AggFunc::kMin:
        if (col.min_max[g].is_null() || v->Compare(col.min_max[g]) < 0) {
          col.min_max[g] = *v;
        }
        break;
      case AggFunc::kMax:
        if (col.min_max[g].is_null() || v->Compare(col.min_max[g]) > 0) {
          col.min_max[g] = *v;
        }
        break;
      case AggFunc::kNone:
        return Status::Internal("kNone aggregate call");
    }
  }
  return Status::OK();
}

Result<Value> HashAggregateOp::Finalize(const Expr& e, const Partition* part,
                                        uint32_t g,
                                        size_t* next_call) const {
  static const Row kNoRow;
  if (e.kind == Expr::Kind::kAggregate) {
    const size_t i = (*next_call)++;
    assert(i < calls_.size() && calls_[i].expr == &e);
    // A null partition is the one group of an empty input.
    const AggColumn* col = part != nullptr ? &part->aggs[i] : nullptr;
    switch (e.agg) {
      case AggFunc::kCount:
        return Value::Int(col != nullptr ? col->count[g] : 0);
      case AggFunc::kSum:
        if (col == nullptr || col->saw[g] == 0) return Value::Null();
        if (calls_[i].int_sum) return Value::Int(col->isum[g]);
        return Value::Double(col->sum[g]);
      case AggFunc::kAvg:
        if (col == nullptr || col->count[g] == 0) return Value::Null();
        return Value::Double(col->sum[g] / static_cast<double>(col->count[g]));
      case AggFunc::kMin:
      case AggFunc::kMax:
        // NULL when the group had only NULLs
        return col != nullptr ? col->min_max[g] : Value::Null();
      case AggFunc::kNone:
        break;
    }
    return Status::Internal("unhandled aggregate finalize");
  }
  if (!e.ContainsAggregate()) {
    // The group of an empty input has no row: its columns read as NULL.
    if (part == nullptr && HasColumnRefOutsideAggregate(e)) {
      return Value::Null();
    }
    return EvalExpr(e, part != nullptr && needs_representative_
                           ? part->representatives[g]
                           : kNoRow);
  }
  // Composite expression over aggregates / group keys: recurse and combine.
  if (e.kind == Expr::Kind::kBinary || e.kind == Expr::Kind::kUnary) {
    // Rebuild a literal-only copy with the children replaced by their
    // finalized values, then evaluate.
    Expr copy;
    copy.kind = e.kind;
    copy.bop = e.bop;
    copy.uop = e.uop;
    copy.resolved_type = e.resolved_type;
    CONQUER_ASSIGN_OR_RETURN(Value lv, Finalize(*e.left, part, g, next_call));
    copy.left = Expr::MakeLiteral(std::move(lv));
    if (e.right) {
      CONQUER_ASSIGN_OR_RETURN(Value rv,
                               Finalize(*e.right, part, g, next_call));
      copy.right = Expr::MakeLiteral(std::move(rv));
    }
    return EvalExpr(copy, kNoRow);
  }
  return Status::Internal("unhandled select item in aggregate finalize");
}

void HashAggregateOp::BuildOutputOrder() {
  // A worker walks every window in input order, so its creation log is
  // sorted by first_row; merging the logs restores the global first-seen
  // order. At degree 1 the one log is the order.
  output_order_ = std::move(created_[0]);
  auto first_row = [this](GroupRef ref) {
    return partitions_[ref.partition]->first_row(ref.index);
  };
  for (size_t w = 1; w < created_.size(); ++w) {
    const size_t mid = output_order_.size();
    output_order_.insert(output_order_.end(), created_[w].begin(),
                         created_[w].end());
    std::inplace_merge(output_order_.begin(), output_order_.begin() + mid,
                       output_order_.end(), [&](GroupRef a, GroupRef b) {
                         return first_row(a) < first_row(b);
                       });
  }
  created_.clear();
}

uint64_t HashAggregateOp::StateBytes() const {
  uint64_t bytes = partitions_.capacity() * sizeof(partitions_[0]);
  if (local_strings_) bytes += local_strings_->MemoryBytes();
  for (const auto& partition : partitions_) {
    if (partition == nullptr) continue;
    const Partition& part = *partition;
    bytes += sizeof(Partition) + part.directory.StructureBytes() +
             (part.keys.capacity() + part.negative_zeros.capacity()) *
                 sizeof(uint64_t) +
             part.aggs.capacity() * sizeof(AggColumn) +
             part.invariants.capacity() * sizeof(Value) +
             part.representatives.capacity() * sizeof(Row);
    for (const AggColumn& col : part.aggs) {
      bytes += col.sum.capacity() * sizeof(double) +
               (col.isum.capacity() + col.count.capacity()) * sizeof(int64_t) +
               col.saw.capacity() + col.min_max.capacity() * sizeof(Value);
      for (const Value& v : col.min_max) bytes += ValueHeapBytes(v);
    }
    for (const Value& v : part.invariants) bytes += ValueHeapBytes(v);
    for (const Row& r : part.representatives) {
      bytes += EstimateRowBytes(r) - sizeof(Row);
    }
  }
  return bytes;
}

Status HashAggregateOp::OpenImpl() {
  partitions_.clear();
  partitions_.resize(NumPartitions(exec_.parallelism()));  // all null
  created_.assign(exec_.parallelism(), {});
  output_order_.clear();
  cursor_ = 0;
  local_strings_.reset();
  for (const KeyColumn& key : key_columns_) {
    if (key.kind == KeyColumn::Kind::kLocalString) {
      local_strings_ = std::make_unique<StringDictionary>();
      break;
    }
  }
  CONQUER_RETURN_NOT_OK(child_->Open());
  CONQUER_ASSIGN_OR_RETURN(uint64_t n, Accumulate());
  child_->Close();
  no_input_ = (n == 0);
  BuildOutputOrder();
  uint64_t num_groups = 0;
  for (const auto& part : partitions_) {
    if (part != nullptr) num_groups += part->num_groups();
  }
  mutable_metrics().hash_entries = num_groups;
  mutable_metrics().peak_memory_bytes = StateBytes();
  return Status::OK();
}

Value HashAggregateOp::DecodeKey(const Partition& part, uint32_t g,
                                 size_t k) const {
  const uint64_t* key = part.keys.data() + size_t{g} * key_width_;
  const uint64_t bit = uint64_t{1} << (k % 64);
  if ((key[key_columns_.size() + k / 64] & bit) != 0) return Value::Null();
  const uint64_t word = key[k];
  switch (key_columns_[k].kind) {
    case KeyColumn::Kind::kNull:
      break;
    case KeyColumn::Kind::kInt:
      return key_columns_[k].type == DataType::kDate
                 ? Value::Date(static_cast<int64_t>(word))
                 : Value::Int(static_cast<int64_t>(word));
    case KeyColumn::Kind::kBool:
      return Value::Bool(word != 0);
    case KeyColumn::Kind::kDouble: {
      const bool negative_zero =
          (part.negative_zeros[size_t{g} * mask_words_ + k / 64] & bit) != 0;
      return Value::Double(negative_zero ? -0.0 : std::bit_cast<double>(word));
    }
    case KeyColumn::Kind::kColumnString:
    case KeyColumn::Kind::kLocalString:
      return Value::String(*reinterpret_cast<const std::string*>(word));
  }
  return Value::Null();
}

Status HashAggregateOp::OutputRow(GroupRef ref, Row* out) const {
  const Partition& part = *partitions_[ref.partition];
  out->clear();
  out->reserve(select_items_.size());
  for (size_t i = 0; i < select_items_.size(); ++i) {
    const ItemPlan& plan = item_plans_[i];
    switch (plan.source) {
      case ItemPlan::Source::kFromKey:
        out->push_back(DecodeKey(part, ref.index, plan.index));
        break;
      case ItemPlan::Source::kInvariantEval:
        out->push_back(
            part.invariants[ref.index * num_invariant_evals_ + plan.index]);
        break;
      case ItemPlan::Source::kFinalize: {
        size_t next_call = plan.index;
        CONQUER_ASSIGN_OR_RETURN(
            Value v,
            Finalize(*select_items_[i], &part, ref.index, &next_call));
        out->push_back(std::move(v));
        break;
      }
    }
  }
  // Aggregation produces narrow output rows: the boundary where interned
  // strings (MIN/MAX, invariant items) leave the executor.
  DecodeRowInPlace(out);
  return Status::OK();
}

Result<bool> HashAggregateOp::NextBatchImpl(RowBatch* out) {
  out->rows.clear();
  // SQL corner case: an aggregate query with no GROUP BY produces exactly one
  // row even on empty input (SUM -> NULL, COUNT -> 0).
  if (no_input_ && group_exprs_.empty() && cursor_ == 0) {
    ++cursor_;
    Row row;
    for (size_t i = 0; i < select_items_.size(); ++i) {
      size_t next_call = item_plans_[i].index;
      CONQUER_ASSIGN_OR_RETURN(
          Value v, Finalize(*select_items_[i], nullptr, 0, &next_call));
      row.push_back(std::move(v));
    }
    DecodeRowInPlace(&row);
    out->rows.push_back(std::move(row));
    return true;
  }
  while (out->rows.size() < out->capacity && cursor_ < output_order_.size()) {
    out->rows.emplace_back();
    CONQUER_RETURN_NOT_OK(
        OutputRow(output_order_[cursor_++], &out->rows.back()));
  }
  return !out->rows.empty();
}

void HashAggregateOp::CloseImpl() {
  partitions_.clear();
  local_strings_.reset();
  window_negative_zeros_ = {};
  window_products_ = {};
  created_.clear();
  output_order_.clear();
}

std::string HashAggregateOp::Describe() const {
  std::string out = "HashAggregate(keys: ";
  for (size_t i = 0; i < group_exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += group_exprs_[i]->ToString();
  }
  out += "; aggs: " + std::to_string(calls_.size()) + ")";
  return out;
}

std::vector<const Operator*> HashAggregateOp::Children() const {
  return {child_.get()};
}

// -------------------------------------------------------------------- SortOp

SortOp::SortOp(OperatorPtr child, std::vector<SortKey> keys)
    : child_(std::move(child)), keys_(std::move(keys)) {}

Status SortOp::OpenImpl() {
  rows_.clear();
  cursor_ = 0;
  CONQUER_RETURN_NOT_OK(child_->Open());
  RowBatch batch;
  while (true) {
    CONQUER_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&batch));
    if (!more) break;
    for (Row& row : batch.rows) rows_.push_back(std::move(row));
  }
  child_->Close();
  uint64_t buffered = 0;
  for (const Row& r : rows_) buffered += EstimateRowBytes(r);
  mutable_metrics().peak_memory_bytes = buffered;
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Row& a, const Row& b) {
                     for (const SortKey& k : keys_) {
                       int c = a[k.column].TotalCompare(b[k.column]);
                       if (c != 0) return k.descending ? c > 0 : c < 0;
                     }
                     return false;
                   });
  return Status::OK();
}

Result<bool> SortOp::NextBatchImpl(RowBatch* out) {
  out->rows.clear();
  while (out->rows.size() < out->capacity && cursor_ < rows_.size()) {
    out->rows.push_back(std::move(rows_[cursor_++]));
  }
  return !out->rows.empty();
}

void SortOp::CloseImpl() { rows_.clear(); }

std::string SortOp::Describe() const {
  std::string out = "Sort(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "#" + std::to_string(keys_[i].column) +
           (keys_[i].descending ? " DESC" : " ASC");
  }
  out += ")";
  return out;
}

std::vector<const Operator*> SortOp::Children() const {
  return {child_.get()};
}

// ---------------------------------------------------------------- DistinctOp

size_t DistinctOp::RowHash::operator()(const Row& r) const {
  return HashValues(r);
}
bool DistinctOp::RowEq::operator()(const Row& a, const Row& b) const {
  return ValuesEqual(a, b);
}

DistinctOp::DistinctOp(OperatorPtr child) : child_(std::move(child)) {}

Status DistinctOp::OpenImpl() {
  seen_.clear();
  return child_->Open();
}

Result<bool> DistinctOp::NextBatchImpl(RowBatch* out) {
  out->rows.clear();
  while (out->rows.empty()) {
    child_batch_.capacity = out->capacity;
    CONQUER_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&child_batch_));
    if (!more) return false;
    for (Row& row : child_batch_.rows) {
      auto [value_ptr, inserted] = seen_.TryEmplace(row);
      (void)value_ptr;
      if (!inserted) continue;
      mutable_metrics().hash_entries = seen_.size();
      mutable_metrics().peak_memory_bytes += EstimateRowBytes(row);
      out->rows.push_back(std::move(row));
    }
  }
  return true;
}

void DistinctOp::CloseImpl() {
  seen_.clear();
  child_->Close();
}

std::string DistinctOp::Describe() const { return "Distinct()"; }

std::vector<const Operator*> DistinctOp::Children() const {
  return {child_.get()};
}

// ------------------------------------------------------------------- LimitOp

LimitOp::LimitOp(OperatorPtr child, int64_t limit)
    : child_(std::move(child)), limit_(limit) {}

Status LimitOp::OpenImpl() {
  produced_ = 0;
  return child_->Open();
}

Result<bool> LimitOp::NextBatchImpl(RowBatch* out) {
  out->rows.clear();
  if (produced_ >= limit_) return false;
  // Cap the child pull at the remaining budget so no extra rows are drawn.
  child_batch_.capacity =
      std::min(out->capacity, static_cast<size_t>(limit_ - produced_));
  CONQUER_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&child_batch_));
  if (!more) return false;
  const size_t take = std::min(child_batch_.rows.size(),
                               static_cast<size_t>(limit_ - produced_));
  for (size_t i = 0; i < take; ++i) {
    out->rows.push_back(std::move(child_batch_.rows[i]));
  }
  produced_ += static_cast<int64_t>(take);
  return !out->rows.empty();
}

void LimitOp::CloseImpl() { child_->Close(); }

std::string LimitOp::Describe() const {
  return "Limit(" + std::to_string(limit_) + ")";
}

std::vector<const Operator*> LimitOp::Children() const {
  return {child_.get()};
}

// ------------------------------------------------------------ StripColumnsOp

StripColumnsOp::StripColumnsOp(OperatorPtr child, size_t num_visible)
    : child_(std::move(child)), num_visible_(num_visible) {}

Status StripColumnsOp::OpenImpl() { return child_->Open(); }

Result<bool> StripColumnsOp::NextBatchImpl(RowBatch* out) {
  CONQUER_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
  if (!more) return false;
  for (Row& row : out->rows) row.resize(num_visible_);
  return true;
}

void StripColumnsOp::CloseImpl() { child_->Close(); }

std::string StripColumnsOp::Describe() const {
  return "StripColumns(keep " + std::to_string(num_visible_) + ")";
}

std::vector<const Operator*> StripColumnsOp::Children() const {
  return {child_.get()};
}

}  // namespace conquer
