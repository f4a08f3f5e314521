#include "storage/table.h"

#include <algorithm>
#include <unordered_set>

#include "common/str_util.h"

namespace conquer {

namespace {
bool ValueFitsColumn(const Value& v, DataType col_type) {
  if (v.is_null()) return true;
  if (v.type() == col_type) return true;
  // Numeric widening.
  if (col_type == DataType::kDouble && v.type() == DataType::kInt64) return true;
  return false;
}
}  // namespace

Table::Table(TableSchema schema, size_t chunk_capacity)
    : schema_(std::move(schema)),
      chunk_capacity_(std::max<size_t>(1, chunk_capacity)) {
  dicts_.resize(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    if (schema_.column(c).type == DataType::kString) {
      dicts_[c] = std::make_unique<StringDictionary>();
    }
  }
}

Table::Table(Table&& other) noexcept
    : schema_(std::move(other.schema_)),
      pool_(other.pool_),
      chunk_capacity_(other.chunk_capacity_),
      committed_version_(
          other.committed_version_.load(std::memory_order_relaxed)),
      num_rows_(other.num_rows_),
      reserve_hint_(other.reserve_hint_),
      chunks_(std::move(other.chunks_)),
      indexes_(std::move(other.indexes_)),
      stats_(std::move(other.stats_)),
      dicts_(std::move(other.dicts_)),
      append_pin_(std::move(other.append_pin_)) {
  other.num_rows_ = 0;
}

Table& Table::operator=(Table&& other) noexcept {
  if (this != &other) {
    schema_ = std::move(other.schema_);
    pool_ = other.pool_;
    chunk_capacity_ = other.chunk_capacity_;
    committed_version_.store(
        other.committed_version_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    num_rows_ = other.num_rows_;
    reserve_hint_ = other.reserve_hint_;
    append_pin_.Reset();
    chunks_ = std::move(other.chunks_);
    indexes_ = std::move(other.indexes_);
    stats_ = std::move(other.stats_);
    dicts_ = std::move(other.dicts_);
    append_pin_ = std::move(other.append_pin_);
    other.num_rows_ = 0;
  }
  return *this;
}

void Table::AttachBufferPool(BufferPool* pool) {
  pool_ = pool;
  if (pool_ != nullptr) {
    for (auto& ch : chunks_) pool_->Register(ch.get());
  }
}

void Table::AdoptChunks(std::vector<std::unique_ptr<Chunk>> chunks,
                        size_t chunk_capacity, size_t num_rows,
                        uint64_t committed_version) {
  append_pin_.Reset();
  chunks_ = std::move(chunks);
  chunk_capacity_ = std::max<size_t>(1, chunk_capacity);
  num_rows_ = num_rows;
  committed_version_.store(committed_version, std::memory_order_release);
  indexes_.clear();
  stats_.clear();
  if (pool_ != nullptr) {
    for (auto& ch : chunks_) pool_->Register(ch.get());
  }
}

Chunk* Table::AppendChunk() {
  if (chunks_.empty() || chunks_.back()->full()) {
    chunks_.push_back(std::make_unique<Chunk>(&schema_, chunk_capacity_));
    if (reserve_hint_ > num_rows_) {
      chunks_.back()->Reserve(
          std::min(chunk_capacity_, reserve_hint_ - num_rows_));
    }
    if (pool_ != nullptr) pool_->Register(chunks_.back().get());
  }
  return chunks_.back().get();
}

void Table::AppendToStorage(const Row& row) {
  Chunk* ch = AppendChunk();
  if (pool_ == nullptr) {
    ch->AppendRow(row, dicts_);
  } else {
    // The append chunk stays pinned between inserts; re-pinning per row
    // would let a sub-chunk budget evict (spill) the tail after every
    // append and fault it straight back in. Assigning the new pin
    // releases the previous tail, which becomes evictable.
    if (append_pin_.get() != ch) append_pin_ = pool_->Pin(ch);
    ch->AppendRow(row, dicts_);
    pool_->MarkDirty(ch);
  }
  ++num_rows_;
}

Row Table::row(size_t i) const {
  Row out;
  GetRowInto(i, &out);
  return out;
}

void Table::GetRowInto(size_t i, Row* out) const {
  Chunk* ch = chunks_[i / chunk_capacity_].get();
  const uint32_t local = static_cast<uint32_t>(i % chunk_capacity_);
  ChunkPin pin = pool_ != nullptr ? pool_->PinRows(ch, RowSpan(&local, 1))
                                  : ChunkPin(nullptr, ch);
  ch->MaterializeRow(local, out, dicts_);
}

Value Table::ValueAt(size_t row, size_t col) const {
  const size_t c = row / chunk_capacity_;
  const uint32_t local = static_cast<uint32_t>(row % chunk_capacity_);
  ChunkPin pin =
      PinChunk(c, ColumnSet{static_cast<uint32_t>(col)}, RowSpan(&local, 1));
  return chunks_[c]->GetValue(local, col, dicts_[col].get());
}

void Table::SetValue(size_t row, size_t col, const Value& v) {
  // A write dirties the chunk, and a dirty chunk stays fully resident.
  ChunkPin pin = PinChunk(row / chunk_capacity_);
  SetPinnedValue(row, col, v);
}

void Table::SetPinnedValue(size_t row, size_t col, const Value& v) {
  const size_t c = row / chunk_capacity_;
  chunks_[c]->SetValue(row % chunk_capacity_, col, v, dicts_[col].get());
  if (pool_ != nullptr) pool_->MarkDirty(chunks_[c].get());
  // Only the touched chunk's index slice is stale; invalidate it and let
  // the next probe rebuild from the pinned payload (the other chunks'
  // slices stay consultable).
  if (col < indexes_.size() && indexes_[col]) {
    indexes_[col]->InvalidateChunk(c);
  }
}

Status Table::Insert(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        StringPrintf("row arity %zu does not match table '%s' arity %zu",
                     row.size(), name().c_str(), schema_.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!ValueFitsColumn(row[i], schema_.column(i).type)) {
      return Status::TypeError(StringPrintf(
          "value of type %s does not fit column '%s' (%s) of table '%s'",
          DataTypeToString(row[i].type()), schema_.column(i).name.c_str(),
          DataTypeToString(schema_.column(i).type), name().c_str()));
    }
  }
  // Columnar storage normalizes on write (INT64 widens into DOUBLE columns,
  // strings are interned); indexes are fed the stored representation.
  const size_t pos = num_rows_;
  AppendToStorage(row);
  MaintainIndexesOnAppend(pos);
  return Status::OK();
}

void Table::InsertUnchecked(const Row& row) {
  const size_t pos = num_rows_;
  AppendToStorage(row);
  MaintainIndexesOnAppend(pos);
}

void Table::MaintainIndexesOnAppend(size_t pos) {
  if (indexes_.empty()) return;
  const size_t c = pos / chunk_capacity_;
  const uint32_t local = static_cast<uint32_t>(pos % chunk_capacity_);
  for (auto& idx : indexes_) {
    if (!idx) continue;
    // The append chunk is resident (append_pin_ holds it while a pool is
    // attached), so the stored representation reads straight off the
    // column payload.
    idx->EnsureChunks(c + 1);
    idx->AppendStored(c, local, chunks_[c]->column(idx->column()));
  }
}

Status Table::InsertVersioned(Row row, uint64_t begin_version) {
  const size_t pos = num_rows_;
  Status st = Insert(std::move(row));
  if (!st.ok()) return st;
  chunks_[pos / chunk_capacity_]->StampBegin(pos % chunk_capacity_,
                                             begin_version);
  return Status::OK();
}

void Table::MarkRowDead(size_t pos, uint64_t v) {
  chunks_[pos / chunk_capacity_]->StampEnd(pos % chunk_capacity_, v);
}

void Table::AbortWrite(uint64_t v) {
  for (auto& ch : chunks_) {
    if (!ch->has_versions()) continue;
    for (size_t r = 0; r < ch->num_rows(); ++r) {
      // Exactly one write stamps `v`, so begin==v identifies its inserts
      // (incl. UPDATE's new versions) and end==v its deletes. Rows it
      // deleted had begin < v, so the two reverts never collide.
      if (ch->begin_version(r) == v) ch->StampBegin(r, kVersionMax);
      if (ch->end_version(r) == v) ch->StampEnd(r, kVersionMax);
    }
  }
}

std::vector<size_t> Table::VisibleRowPositions(uint64_t snapshot) const {
  std::vector<size_t> out;
  out.reserve(num_rows_);
  size_t pos = 0;
  for (const auto& ch : chunks_) {
    for (size_t r = 0; r < ch->num_rows(); ++r, ++pos) {
      if (ch->RowVisible(r, snapshot)) out.push_back(pos);
    }
  }
  return out;
}

void Table::Clear() {
  append_pin_.Reset();
  chunks_.clear();
  num_rows_ = 0;
  reserve_hint_ = 0;
  indexes_.clear();
  stats_.clear();
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    dicts_[c] = schema_.column(c).type == DataType::kString
                    ? std::make_unique<StringDictionary>()
                    : nullptr;
  }
}

void Table::Rechunk(size_t capacity) {
  capacity = std::max<size_t>(1, capacity);
  append_pin_.Reset();
  std::vector<std::unique_ptr<Chunk>> old = std::move(chunks_);
  chunks_.clear();
  chunk_capacity_ = capacity;
  Row scratch;
  size_t pos = 0;
  ChunkPin dst_pin;  // held until the destination tail moves on
  for (const auto& ch : old) {
    // Source payloads fault in chunk-by-chunk; destination chunks are
    // created dirty (they have no backing yet) and may spill behind the
    // cursor under a tight budget.
    ChunkPin src_pin =
        pool_ != nullptr ? pool_->Pin(ch.get()) : ChunkPin(nullptr, ch.get());
    for (size_t r = 0; r < ch->num_rows(); ++r, ++pos) {
      ch->MaterializeRow(r, &scratch, dicts_);
      Chunk* dst = AppendChunk();
      if (pool_ != nullptr && dst_pin.get() != dst) dst_pin = pool_->Pin(dst);
      const size_t local = dst->num_rows();
      dst->AppendRow(scratch, dicts_);
      if (pool_ != nullptr) pool_->MarkDirty(dst);
      // Carry version stamps across the rebuild: losing them would resurrect
      // deleted rows (or hide fresh ones) for pinned snapshots.
      if (ch->has_versions()) {
        const uint64_t b = ch->begin_version(r);
        const uint64_t e = ch->end_version(r);
        if (b != 0) dst->StampBegin(local, b);
        if (e != kVersionMax) dst->StampEnd(local, e);
      }
    }
  }
  dst_pin.Reset();
  // Index slices hold chunk-relative positions, which the new geometry
  // invalidated wholesale; rebuild them eagerly while the chunks are warm.
  for (auto& idx : indexes_) {
    if (!idx) continue;
    auto rebuilt =
        std::make_unique<ChunkIndex>(idx->column(), idx->type());
    rebuilt->EnsureChunks(chunks_.size());
    const ColumnSet cols = {static_cast<uint32_t>(idx->column())};
    for (size_t c = 0; c < chunks_.size(); ++c) {
      ChunkPin pin = PinChunk(c, cols);
      rebuilt->RebuildChunk(c, chunks_[c]->column(rebuilt->column()));
    }
    idx = std::move(rebuilt);
  }
}

Status Table::CreateIndex(std::string_view column_name) {
  CONQUER_ASSIGN_OR_RETURN(size_t col, schema_.GetColumnIndex(column_name));
  if (indexes_.size() < schema_.num_columns()) {
    indexes_.resize(schema_.num_columns());
  }
  auto idx = std::make_unique<ChunkIndex>(col, schema_.column(col).type);
  idx->EnsureChunks(chunks_.size());
  const ColumnSet cols = {static_cast<uint32_t>(col)};
  for (size_t c = 0; c < chunks_.size(); ++c) {
    ChunkPin pin = PinChunk(c, cols);
    idx->RebuildChunk(c, chunks_[c]->column(col));
  }
  indexes_[col] = std::move(idx);
  return Status::OK();
}

const ChunkIndex* Table::GetIndex(size_t column) const {
  if (column >= indexes_.size()) return nullptr;
  return indexes_[column].get();
}

void Table::IndexProbeChunk(size_t column,
                            const std::vector<ChunkIndex::ProbeSpec>& probes,
                            size_t c, std::vector<uint32_t>* out,
                            PinStats* stats) const {
  const ChunkIndex* idx = indexes_[column].get();
  if (idx->TryLookup(c, probes, out)) return;
  // Invalidated (or never-built) slice: fault the indexed column in and
  // rebuild. This is the only probe path that performs I/O.
  ChunkPin pin = PinChunk(c, {static_cast<uint32_t>(column)}, stats);
  idx->RebuildAndLookup(c, chunks_[c]->column(column), probes, out);
}

void Table::AnalyzeStatistics() {
  stats_.assign(schema_.num_columns(), ColumnStats{});
  std::unordered_set<Value, ValueHash> distinct;
  std::vector<double> numeric;  // histogram input, reused across columns
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    const bool is_numeric = schema_.column(c).type != DataType::kString;
    const StringDictionary* dict = dicts_[c].get();
    const ColumnSet cols = {static_cast<uint32_t>(c)};
    distinct.clear();
    numeric.clear();
    if (is_numeric) numeric.reserve(num_rows_);
    for (size_t i = 0; i < chunks_.size(); ++i) {
      ChunkPin pin = PinChunk(i, cols);
      Chunk& ch = *chunks_[i];
      // Re-tighten the zone map first: in-place writes only widen min/max
      // and clear all-distinct flags; this restores exact statistics.
      ch.RecomputeZone(c, dict);
      const ColumnVector& cv = ch.column(c);
      stats_[c].num_nulls += ch.zone(c).null_count;
      for (size_t r = 0; r < ch.num_rows(); ++r) {
        if (cv.is_null(r)) continue;
        Value v = cv.GetValue(r, dict);
        if (is_numeric) numeric.push_back(v.AsDouble());
        distinct.insert(std::move(v));
      }
    }
    stats_[c].num_distinct = distinct.size();
    if (is_numeric) {
      stats_[c].histogram = Histogram::Build(std::move(numeric));
      numeric.clear();
    }
  }
}

const ColumnStats& Table::column_stats(size_t column) const {
  static const ColumnStats kZero;
  if (column >= stats_.size()) return kZero;
  return stats_[column];
}

}  // namespace conquer
