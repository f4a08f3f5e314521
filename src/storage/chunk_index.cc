#include "storage/chunk_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace conquer {

namespace {

/// Largest double magnitude for which `(double)v == d` has the unique
/// solution `v == (int64_t)d` over int64. Below 2^53 every int64 in range
/// converts exactly, and no |v| >= 2^53 can round down into the range; a
/// 2^52 cutoff leaves comfortable margin.
constexpr double kExactIntDouble = 4503599627370496.0;  // 2^52

bool IsIntegerBacked(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDate ||
         t == DataType::kBool;
}

}  // namespace

ChunkIndex::ProbeSpec ChunkIndex::ResolveProbe(const Value& v,
                                               const StringDictionary* dict,
                                               bool* unsupported) const {
  *unsupported = false;
  ProbeSpec spec;
  if (v.is_null()) return spec;  // `col = NULL` matches nothing: kNone
  switch (type_) {
    case DataType::kString: {
      if (v.type() != DataType::kString) return spec;  // cross-class: kNone
      const uint32_t code = dict->Find(v.string_value());
      if (code == StringDictionary::kInvalidCode) return spec;
      spec.kind = ProbeSpec::Kind::kKey;
      spec.key = code;
      return spec;
    }
    case DataType::kBool: {
      if (v.type() != DataType::kBool) return spec;
      spec.kind = ProbeSpec::Kind::kKey;
      spec.key = v.bool_value() ? 1 : 0;
      return spec;
    }
    case DataType::kDate: {
      if (v.type() != DataType::kDate) return spec;
      spec.kind = ProbeSpec::Kind::kKey;
      spec.key = static_cast<uint64_t>(v.date_value());
      return spec;
    }
    case DataType::kInt64: {
      if (v.type() == DataType::kInt64) {
        spec.kind = ProbeSpec::Kind::kKey;
        spec.key = static_cast<uint64_t>(v.int_value());
        return spec;
      }
      if (v.type() == DataType::kDouble) {
        const double d = v.double_value();
        if (std::isnan(d)) {
          // Scan equality compares NaN equal to every numeric (Compare is
          // (a>b)-(a<b)); no key probe is sound.
          *unsupported = true;
          return spec;
        }
        if (std::trunc(d) != d) return spec;  // non-integral: kNone
        if (std::fabs(d) > kExactIntDouble) {
          *unsupported = true;  // multiple int64s may round onto d
          return spec;
        }
        spec.kind = ProbeSpec::Kind::kKey;
        spec.key = static_cast<uint64_t>(static_cast<int64_t>(d));
        return spec;
      }
      return spec;
    }
    case DataType::kDouble: {
      double d;
      if (v.type() == DataType::kDouble) {
        d = v.double_value();
      } else if (v.type() == DataType::kInt64) {
        d = static_cast<double>(v.int_value());
      } else {
        return spec;  // cross-class: kNone
      }
      if (std::isnan(d)) {
        *unsupported = true;  // NaN literal scan-matches every stored value
        return spec;
      }
      spec.kind = ProbeSpec::Kind::kKey;
      spec.key = DoubleKey(d);
      return spec;
    }
    default:
      return spec;
  }
}

void ChunkIndex::EnsureChunks(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slices_.size() < n) slices_.resize(n);
}

bool ChunkIndex::KeyOfStored(const ColumnVector& cv, size_t row,
                             uint64_t* key) const {
  if (IsIntegerBacked(type_)) {
    *key = static_cast<uint64_t>(cv.fixed_data()[row]);
    return true;
  }
  if (type_ == DataType::kDouble) {
    const double d = cv.double_data()[row];
    if (std::isnan(d)) return false;  // wildcard, not keyed
    *key = DoubleKey(d);
    return true;
  }
  *key = cv.code_data()[row];  // kString
  return true;
}

void ChunkIndex::AppendStored(size_t chunk, uint32_t local_row,
                              const ColumnVector& cv) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slices_.size() <= chunk) slices_.resize(chunk + 1);
  Slice& s = slices_[chunk];
  // An invalid slice's pending rebuild re-reads every row; NULLs are never
  // keyed.
  if (!s.valid || cv.is_null(local_row)) return;
  uint64_t key;
  if (!KeyOfStored(cv, local_row, &key)) {
    s.wildcards.push_back(local_row);
    return;
  }
  s.keys.push_back(key);
  s.rows.push_back(local_row);
}

void ChunkIndex::InvalidateChunk(size_t c) {
  std::lock_guard<std::mutex> lock(mu_);
  if (c >= slices_.size()) return;
  Slice& s = slices_[c];
  s.valid = false;
  s.keys.clear();
  s.rows.clear();
  s.wildcards.clear();
  s.sorted_limit = 0;
  s.distinct = 0;
}

bool ChunkIndex::ChunkValid(size_t c) const {
  std::lock_guard<std::mutex> lock(mu_);
  // A chunk beyond the slice vector was appended without index maintenance
  // (bulk InsertUnchecked); it needs a rebuild just like an invalidated one.
  return c < slices_.size() && slices_[c].valid;
}

void ChunkIndex::SortSliceLocked(Slice* s) const {
  if (s->sorted_limit == s->keys.size()) return;
  std::vector<std::pair<uint64_t, uint32_t>> entries(s->keys.size());
  for (size_t i = 0; i < s->keys.size(); ++i) {
    entries[i] = {s->keys[i], s->rows[i]};
  }
  std::sort(entries.begin(), entries.end());
  size_t distinct = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i == 0 || entries[i].first != entries[i - 1].first) ++distinct;
    s->keys[i] = entries[i].first;
    s->rows[i] = entries[i].second;
  }
  s->sorted_limit = s->keys.size();
  s->distinct = distinct;
}

void ChunkIndex::RebuildSliceLocked(Slice* s, const ColumnVector& cv) const {
  s->keys.clear();
  s->rows.clear();
  s->wildcards.clear();
  const size_t n = cv.size();
  s->keys.reserve(n);
  s->rows.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    if (cv.is_null(r)) continue;
    uint64_t key;
    if (!KeyOfStored(cv, r, &key)) {
      s->wildcards.push_back(static_cast<uint32_t>(r));
      continue;
    }
    s->keys.push_back(key);
    s->rows.push_back(static_cast<uint32_t>(r));
  }
  s->sorted_limit = 0;
  s->valid = true;
  SortSliceLocked(s);
}

void ChunkIndex::LookupSliceLocked(const Slice& s,
                                   const std::vector<ProbeSpec>& probes,
                                   std::vector<uint32_t>* out) const {
  const size_t base = out->size();
  size_t runs = 0;
  for (const ProbeSpec& probe : probes) {
    if (probe.kind != ProbeSpec::Kind::kKey) continue;
    auto lo = std::lower_bound(s.keys.begin(), s.keys.end(), probe.key);
    auto hi = std::upper_bound(lo, s.keys.end(), probe.key);
    if (lo == hi) continue;
    out->insert(out->end(), s.rows.begin() + (lo - s.keys.begin()),
                s.rows.begin() + (hi - s.keys.begin()));
    ++runs;
  }
  // NaN-valued rows compare equal to every numeric probe under scan
  // equality.
  if (!s.wildcards.empty()) {
    out->insert(out->end(), s.wildcards.begin(), s.wildcards.end());
    ++runs;
  }
  // Each run ascends (the slice is sorted by (key, row)); several runs
  // interleave, and a key probed twice repeats its run.
  if (runs > 1) {
    std::sort(out->begin() + base, out->end());
    out->erase(std::unique(out->begin() + base, out->end()), out->end());
  }
}

bool ChunkIndex::TryLookup(size_t c, const std::vector<ProbeSpec>& probes,
                           std::vector<uint32_t>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (c >= slices_.size() || !slices_[c].valid) return false;
  SortSliceLocked(&slices_[c]);
  LookupSliceLocked(slices_[c], probes, out);
  return true;
}

void ChunkIndex::RebuildAndLookup(size_t c, const ColumnVector& cv,
                                  const std::vector<ProbeSpec>& probes,
                                  std::vector<uint32_t>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (slices_.size() <= c) slices_.resize(c + 1);
  // Double-checked under the lock: a concurrent probe may have rebuilt the
  // slice while this caller was pinning the chunk.
  if (!slices_[c].valid) RebuildSliceLocked(&slices_[c], cv);
  SortSliceLocked(&slices_[c]);
  LookupSliceLocked(slices_[c], probes, out);
}

void ChunkIndex::RebuildChunk(size_t c, const ColumnVector& cv) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (slices_.size() <= c) slices_.resize(c + 1);
  RebuildSliceLocked(&slices_[c], cv);
}

size_t ChunkIndex::approx_num_keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const Slice& s : slices_) total += s.distinct;
  return std::max<size_t>(1, total);
}

uint64_t ChunkIndex::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t bytes = 0;
  for (const Slice& s : slices_) {
    bytes += s.keys.capacity() * sizeof(uint64_t) +
             s.rows.capacity() * sizeof(uint32_t) +
             s.wildcards.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace conquer
