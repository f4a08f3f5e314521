#include "storage/chunk.h"

#include <bit>
#include <cassert>
#include <unordered_set>

#include "storage/buffer_pool.h"

namespace conquer {

namespace {
/// Physical storage class of a schema column type.
enum class Phys { kFixed, kDouble, kCode };

Phys PhysOf(DataType t) {
  switch (t) {
    case DataType::kDouble:
      return Phys::kDouble;
    case DataType::kString:
      return Phys::kCode;
    default:
      return Phys::kFixed;
  }
}
}  // namespace

void ColumnVector::Reserve(size_t n) {
  switch (PhysOf(type_)) {
    case Phys::kFixed:
      fixed_.reserve(n);
      break;
    case Phys::kDouble:
      dbl_.reserve(n);
      break;
    case Phys::kCode:
      codes_.reserve(n);
      break;
  }
  nulls_.reserve(n);
}

Value ColumnVector::Append(const Value& v, StringDictionary* dict) {
  if (v.is_null()) {
    switch (PhysOf(type_)) {
      case Phys::kFixed:
        fixed_.push_back(0);
        break;
      case Phys::kDouble:
        dbl_.push_back(0.0);
        break;
      case Phys::kCode:
        codes_.push_back(StringDictionary::kInvalidCode);
        break;
    }
    nulls_.push_back(1);
    return Value::Null();
  }
  nulls_.push_back(0);
  switch (PhysOf(type_)) {
    case Phys::kDouble: {
      // Numeric widening: INT64 values land in DOUBLE columns as doubles,
      // so readers always see a uniform representation.
      double d = v.AsDouble();
      dbl_.push_back(d);
      return Value::Double(d);
    }
    case Phys::kCode: {
      assert(v.type() == DataType::kString && dict != nullptr);
      uint32_t code = dict->Intern(v.string_value());
      codes_.push_back(code);
      return dict->ValueAt(code);
    }
    case Phys::kFixed: {
      int64_t raw;
      if (type_ == DataType::kBool) {
        raw = v.bool_value() ? 1 : 0;
      } else {
        assert(v.type() == DataType::kInt64 || v.type() == DataType::kDate);
        raw = v.int_value();
      }
      fixed_.push_back(raw);
      return GetValue(nulls_.size() - 1, nullptr);
    }
  }
  return Value::Null();  // unreachable
}

Value ColumnVector::Set(size_t i, const Value& v, StringDictionary* dict) {
  assert(i < size());
  if (v.is_null()) {
    nulls_[i] = 1;
    return Value::Null();
  }
  nulls_[i] = 0;
  switch (PhysOf(type_)) {
    case Phys::kDouble: {
      double d = v.AsDouble();
      dbl_[i] = d;
      return Value::Double(d);
    }
    case Phys::kCode: {
      assert(v.type() == DataType::kString && dict != nullptr);
      uint32_t code = dict->Intern(v.string_value());
      codes_[i] = code;
      return dict->ValueAt(code);
    }
    case Phys::kFixed: {
      if (type_ == DataType::kBool) {
        fixed_[i] = v.bool_value() ? 1 : 0;
      } else {
        fixed_[i] = v.int_value();
      }
      return GetValue(i, nullptr);
    }
  }
  return Value::Null();  // unreachable
}

Value ColumnVector::GetValue(size_t i, const StringDictionary* dict) const {
  if (nulls_[i] != 0) return Value::Null();
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(fixed_[i] != 0);
    case DataType::kInt64:
      return Value::Int(fixed_[i]);
    case DataType::kDate:
      return Value::Date(fixed_[i]);
    case DataType::kDouble:
      return Value::Double(dbl_[i]);
    case DataType::kString:
      assert(dict != nullptr);
      return dict->ValueAt(codes_[i]);
    default:
      return Value::Null();
  }
}

Chunk::Chunk(const TableSchema* schema, size_t capacity)
    : capacity_(capacity),
      block_rows_(std::max<size_t>(
          1, (capacity + kBlocksPerChunk - 1) / kBlocksPerChunk)),
      block_masks_(schema->num_columns()) {
  columns_.reserve(schema->num_columns());
  for (size_t c = 0; c < schema->num_columns(); ++c) {
    columns_.emplace_back(schema->column(c).type);
  }
  zones_.resize(schema->num_columns());
  SetAllMasks(kAllBlocks);
}

Chunk::~Chunk() {
  if (pool_ != nullptr) pool_->Unregister(this);
}

void Chunk::Reserve(size_t rows) {
  for (ColumnVector& cv : columns_) cv.Reserve(rows);
}

void Chunk::AppendRow(
    const Row& row,
    const std::vector<std::unique_ptr<StringDictionary>>& dicts) {
  assert(!full() && row.size() == columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    Value stored = columns_[c].Append(row[c], dicts[c].get());
    if (stored.is_null()) {
      ++zones_[c].null_count;
    } else {
      zones_[c].Widen(stored);
      // The appended value may duplicate an existing one; a stale
      // all-distinct flag would let equality scans stop at the first match
      // and miss this row. AnalyzeStatistics restores the flag.
      zones_[c].all_distinct = false;
    }
  }
  if (has_versions()) {
    begin_versions_.push_back(0);
    end_versions_.push_back(kVersionMax);
  }
  ++num_rows_;
}

void Chunk::EnsureVersions() {
  if (has_versions()) return;
  begin_versions_.assign(num_rows_, 0);
  end_versions_.assign(num_rows_, kVersionMax);
}

void Chunk::StampBegin(size_t row, uint64_t v) {
  EnsureVersions();
  assert(row < num_rows_);
  begin_versions_[row] = v;
}

void Chunk::StampEnd(size_t row, uint64_t v) {
  EnsureVersions();
  assert(row < num_rows_);
  end_versions_[row] = v;
}

void Chunk::SetValue(size_t row, size_t col, const Value& v,
                     StringDictionary* dict) {
  ZoneMap& z = zones_[col];
  const bool was_null = columns_[col].is_null(row);
  Value stored = columns_[col].Set(row, v, dict);
  if (stored.is_null()) {
    if (!was_null) ++z.null_count;
  } else {
    if (was_null) --z.null_count;
    // The old value may have been the extremum, so min/max only widen here;
    // AnalyzeStatistics tightens them again.
    z.Widen(stored);
  }
  z.all_distinct = false;
}

void Chunk::MaterializeRow(
    size_t row, Row* out,
    const std::vector<std::unique_ptr<StringDictionary>>& dicts) const {
  out->resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    (*out)[c] = GetValue(row, c, dicts[c].get());
  }
}

void Chunk::RecomputeZone(size_t c, const StringDictionary* dict) {
  std::unordered_set<Value, ValueHash> distinct;
  const ColumnVector& cv = column(c);
  ZoneMap z;
  for (size_t r = 0; r < num_rows_; ++r) {
    Value v = cv.GetValue(r, dict);
    if (v.is_null()) {
      ++z.null_count;
    } else {
      z.Widen(v);
      distinct.insert(v);
    }
  }
  z.all_distinct = distinct.size() == num_rows_ - z.null_count &&
                   z.null_count < num_rows_;
  zones_[c] = z;
}

uint64_t Chunk::BlocksOf(RowSpan rows) const {
  assert(std::is_sorted(rows.begin(), rows.end()));
  uint64_t blocks = 0;
  // One binary search per block: a whole chunk's selection costs at most
  // 64 of them, not one step per row.
  for (auto it = rows.begin(); it != rows.end();) {
    const size_t b = *it / block_rows_;
    blocks |= uint64_t{1} << b;
    it = std::lower_bound(it + 1, rows.end(), (b + 1) * block_rows_);
  }
  return blocks;
}

bool Chunk::payload_resident() const {
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (block_mask(c) != kAllBlocks) return false;
  }
  return true;
}

bool Chunk::any_resident() const {
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (block_mask(c) != 0) return true;
  }
  return false;
}

uint64_t Chunk::BlockBytes(size_t c, uint64_t blocks) const {
  const uint64_t all = BlocksOfAllRows();
  blocks &= all;
  uint64_t rows = static_cast<uint64_t>(std::popcount(blocks)) * block_rows_;
  // The last block holds only the rows up to num_rows.
  const int last = 63 - std::countl_zero(all);
  if (((blocks >> last) & 1) != 0) {
    rows -= (static_cast<uint64_t>(last) + 1) * block_rows_ - num_rows_;
  }
  return rows * (columns_[c].value_width() + 1);
}

uint64_t Chunk::PayloadBytes() const {
  uint64_t bytes = 0;
  for (size_t c = 0; c < columns_.size(); ++c) {
    const uint64_t mask = block_mask(c);
    bytes += mask == kAllBlocks ? columns_[c].MemoryBytes()
                                : BlockBytes(c, mask);
  }
  return bytes;
}

void Chunk::PublishBlocks(size_t c, uint64_t blocks) {
  assert((block_mask(c) & blocks) == 0);
  uint64_t mask = block_mask(c) | blocks;
  const uint64_t all = BlocksOfAllRows();
  if ((mask & all) == all) mask = kAllBlocks;
  block_masks_[c].store(mask);
}

void Chunk::SetAllMasks(uint64_t mask) {
  for (std::atomic<uint64_t>& m : block_masks_) {
    m.store(mask);
  }
}

}  // namespace conquer
