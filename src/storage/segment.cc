#include "storage/segment.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#if defined(__has_include)
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

#include "common/str_util.h"

namespace conquer {

namespace {

constexpr char kSegmentMagic[8] = {'C', 'Q', 'S', 'E', 'G', '0', '0', '1'};
constexpr size_t kFooterSize = 8 + 8 + sizeof(kSegmentMagic);

// Physical storage class of a column (mirrors chunk.cc's layout keying).
enum class Phys : uint8_t { kFixed = 0, kDouble = 1, kCode = 2 };

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

/// Bytes per stored value of a physical class.
uint64_t PhysWidth(Phys p) {
  return p == Phys::kCode ? sizeof(uint32_t) : sizeof(int64_t);
}

/// Bytes one column of `n` rows occupies in a payload: tag, values, nulls.
uint64_t ColumnSpan(Phys p, uint64_t n) { return 1 + n * (PhysWidth(p) + 1); }

void PutRaw(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

void PutU8(std::string* out, uint8_t v) { PutRaw(out, &v, 1); }
void PutU32(std::string* out, uint32_t v) { PutRaw(out, &v, sizeof(v)); }
void PutU64(std::string* out, uint64_t v) { PutRaw(out, &v, sizeof(v)); }

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  PutRaw(out, s.data(), s.size());
}

/// Bounds-checked cursor over a serialized buffer.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Status Read(void* out, size_t n) {
    if (pos_ + n > data_.size()) {
      return Status::InvalidArgument("segment data truncated");
    }
    // An empty read may target an empty vector's data(), which can be null:
    // memcpy must not see it even with n == 0.
    if (n == 0) return Status::OK();
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Status ReadU8(uint8_t* v) { return Read(v, 1); }
  Status ReadU32(uint32_t* v) { return Read(v, sizeof(*v)); }
  Status ReadU64(uint64_t* v) { return Read(v, sizeof(*v)); }

  Status ReadString(std::string_view* s) {
    uint32_t len = 0;
    CONQUER_RETURN_NOT_OK(ReadU32(&len));
    if (pos_ + len > data_.size()) {
      return Status::InvalidArgument("segment string truncated");
    }
    *s = data_.substr(pos_, len);
    pos_ += len;
    return Status::OK();
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// Zone-map value tags (doubles round-trip as raw bits).
enum class ValueTag : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt64 = 2,
  kDouble = 3,
  kDate = 4,
  kString = 5,
};

void PutValue(std::string* out, const Value& v) {
  if (v.is_null()) {
    PutU8(out, static_cast<uint8_t>(ValueTag::kNull));
    return;
  }
  switch (v.type()) {
    case DataType::kBool:
      PutU8(out, static_cast<uint8_t>(ValueTag::kBool));
      PutU8(out, v.bool_value() ? 1 : 0);
      return;
    case DataType::kInt64:
      PutU8(out, static_cast<uint8_t>(ValueTag::kInt64));
      PutU64(out, static_cast<uint64_t>(v.int_value()));
      return;
    case DataType::kDouble: {
      PutU8(out, static_cast<uint8_t>(ValueTag::kDouble));
      double d = v.double_value();
      PutRaw(out, &d, sizeof(d));
      return;
    }
    case DataType::kDate:
      PutU8(out, static_cast<uint8_t>(ValueTag::kDate));
      PutU64(out, static_cast<uint64_t>(v.int_value()));
      return;
    case DataType::kString:
      PutU8(out, static_cast<uint8_t>(ValueTag::kString));
      PutString(out, v.string_value());
      return;
    default:
      PutU8(out, static_cast<uint8_t>(ValueTag::kNull));
      return;
  }
}

/// Strings re-intern through `dict` when available, so zone min/max come
/// back as interned Values just as AppendRow would have produced them.
Status GetValue(ByteReader* r, StringDictionary* dict, Value* out) {
  uint8_t tag = 0;
  CONQUER_RETURN_NOT_OK(r->ReadU8(&tag));
  switch (static_cast<ValueTag>(tag)) {
    case ValueTag::kNull:
      *out = Value::Null();
      return Status::OK();
    case ValueTag::kBool: {
      uint8_t b = 0;
      CONQUER_RETURN_NOT_OK(r->ReadU8(&b));
      *out = Value::Bool(b != 0);
      return Status::OK();
    }
    case ValueTag::kInt64: {
      uint64_t v = 0;
      CONQUER_RETURN_NOT_OK(r->ReadU64(&v));
      *out = Value::Int(static_cast<int64_t>(v));
      return Status::OK();
    }
    case ValueTag::kDouble: {
      double d = 0;
      CONQUER_RETURN_NOT_OK(r->Read(&d, sizeof(d)));
      *out = Value::Double(d);
      return Status::OK();
    }
    case ValueTag::kDate: {
      uint64_t v = 0;
      CONQUER_RETURN_NOT_OK(r->ReadU64(&v));
      *out = Value::Date(static_cast<int64_t>(v));
      return Status::OK();
    }
    case ValueTag::kString: {
      std::string_view s;
      CONQUER_RETURN_NOT_OK(r->ReadString(&s));
      *out = dict != nullptr ? dict->InternValue(s) : Value::String(std::string(s));
      return Status::OK();
    }
  }
  return Status::InvalidArgument(
      StringPrintf("unknown segment value tag %u", tag));
}

}  // namespace

// ------------------------------------------------------------- SegmentFile

Result<std::shared_ptr<SegmentFile>> SegmentFile::Create(
    const std::string& path, bool unlink_immediately) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::InvalidArgument(
        StringPrintf("cannot create segment file '%s': %s", path.c_str(),
                     std::strerror(errno)));
  }
  if (unlink_immediately) ::unlink(path.c_str());
  return std::shared_ptr<SegmentFile>(new SegmentFile(fd, path, 0));
}

Result<std::shared_ptr<SegmentFile>> SegmentFile::OpenReadOnly(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound(
        StringPrintf("cannot open segment file '%s': %s", path.c_str(),
                     std::strerror(errno)));
  }
  off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    ::close(fd);
    return Status::InvalidArgument("cannot size segment file '" + path + "'");
  }
  return std::shared_ptr<SegmentFile>(
      new SegmentFile(fd, path, static_cast<uint64_t>(end)));
}

SegmentFile::~SegmentFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status SegmentFile::ReadAt(uint64_t offset, void* buf, size_t n) const {
  char* out = static_cast<char*>(buf);
  size_t done = 0;
  while (done < n) {
    ssize_t got = ::pread(fd_, out + done, n - done,
                          static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(
          StringPrintf("pread of '%s' failed: %s", path_.c_str(),
                       std::strerror(errno)));
    }
    if (got == 0) {
      return Status::Internal("short read from segment file '" + path_ + "'");
    }
    done += static_cast<size_t>(got);
  }
  return Status::OK();
}

Status SegmentFile::ReadVAt(uint64_t offset, struct iovec* iov,
                            int count) const {
  for (;;) {
    // Drop the buffers already filled (and empty ones).
    while (count > 0 && iov->iov_len == 0) {
      ++iov;
      --count;
    }
    if (count == 0) return Status::OK();
    ssize_t got = ::preadv(fd_, iov, count, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(
          StringPrintf("preadv of '%s' failed: %s", path_.c_str(),
                       std::strerror(errno)));
    }
    if (got == 0) {
      return Status::Internal("short read from segment file '" + path_ + "'");
    }
    offset += static_cast<uint64_t>(got);
    for (size_t left = static_cast<size_t>(got); left > 0;) {
      const size_t take = std::min(left, iov->iov_len);
      iov->iov_base = static_cast<char*>(iov->iov_base) + take;
      iov->iov_len -= take;
      left -= take;
      if (iov->iov_len == 0) {
        ++iov;
        --count;
      }
    }
  }
}

Status SegmentFile::WriteAt(uint64_t offset, const void* data, size_t n) {
  const char* in = static_cast<const char*>(data);
  size_t done = 0;
  while (done < n) {
    ssize_t put = ::pwrite(fd_, in + done, n - done,
                           static_cast<off_t>(offset + done));
    if (put < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(
          StringPrintf("pwrite to '%s' failed: %s", path_.c_str(),
                       std::strerror(errno)));
    }
    done += static_cast<size_t>(put);
  }
  return Status::OK();
}

Status SegmentFile::Append(const void* data, size_t n, uint64_t* offset) {
  uint64_t off = 0;
  Reserve(n, &off);
  CONQUER_RETURN_NOT_OK(WriteAt(off, data, n));
  if (offset != nullptr) *offset = off;
  return Status::OK();
}

Status SegmentFile::Sync() {
  if (::fsync(fd_) != 0) {
    return Status::Internal(StringPrintf("fsync of '%s' failed: %s",
                                         path_.c_str(), std::strerror(errno)));
  }
  return Status::OK();
}

// ------------------------------------------------------------ SegmentCodec

void SegmentCodec::SerializePayload(const Chunk& chunk, std::string* out) {
  assert(chunk.payload_resident());
  PutU32(out, static_cast<uint32_t>(chunk.num_rows_));
  for (const ColumnVector& cv : chunk.columns_) {
    const Phys phys = PhysOf(cv.type_);
    PutU8(out, static_cast<uint8_t>(phys));
    const size_t n = chunk.num_rows_;
    switch (phys) {
      case Phys::kFixed:
        assert(cv.fixed_.size() == n);
        PutRaw(out, cv.fixed_.data(), n * sizeof(int64_t));
        break;
      case Phys::kDouble:
        assert(cv.dbl_.size() == n);
        PutRaw(out, cv.dbl_.data(), n * sizeof(double));
        break;
      case Phys::kCode:
        assert(cv.codes_.size() == n);
        PutRaw(out, cv.codes_.data(), n * sizeof(uint32_t));
        break;
    }
    assert(cv.nulls_.size() == n);
    PutRaw(out, cv.nulls_.data(), n);
  }
}

Status SegmentCodec::ReadBlocks(const ChunkBacking& backing,
                                const std::vector<ColumnBlocks>& cols,
                                Chunk* chunk, uint64_t* bytes_read) {
  const uint64_t n = chunk->num_rows_;
  uint64_t total = sizeof(uint32_t);  // the row count
  for (const ColumnVector& cv : chunk->columns_) {
    total += ColumnSpan(PhysOf(cv.type_), n);
  }
  if (total != backing.length) {
    return Status::InvalidArgument(StringPrintf(
        "chunk payload of %llu bytes does not match the %llu-byte layout of "
        "its %llu resident rows",
        static_cast<unsigned long long>(backing.length),
        static_cast<unsigned long long>(total),
        static_cast<unsigned long long>(n)));
  }
  const uint64_t block_rows = chunk->block_rows_;
  uint64_t offset = backing.offset + sizeof(uint32_t);
  size_t next = 0;  // index into cols (ascending)
  for (size_t c = 0; c < chunk->columns_.size() && next < cols.size(); ++c) {
    ColumnVector& cv = chunk->columns_[c];
    const Phys phys = PhysOf(cv.type_);
    const uint64_t width = PhysWidth(phys);
    const uint64_t span = ColumnSpan(phys, n);
    if (cols[next].column != c) {
      offset += span;
      continue;
    }
    const uint64_t blocks = cols[next++].blocks;
    assert(blocks != 0 && (chunk->block_mask(c) & blocks) == 0);
    // The column's first fault sizes its vectors (leaving them
    // uninitialized) and checks its tag; ASan builds poison the bytes no
    // fault has filled yet, so a read outside the pinned blocks is
    // reported.
    const bool first = chunk->block_mask(c) == 0;
    char* data = nullptr;
    switch (phys) {
      case Phys::kFixed:
        if (first) cv.fixed_.resize(n);
        data = reinterpret_cast<char*>(cv.fixed_.data());
        break;
      case Phys::kDouble:
        if (first) cv.dbl_.resize(n);
        data = reinterpret_cast<char*>(cv.dbl_.data());
        break;
      case Phys::kCode:
        if (first) cv.codes_.resize(n);
        data = reinterpret_cast<char*>(cv.codes_.data());
        break;
    }
    if (first) cv.nulls_.resize(n);
    uint8_t* nulls = cv.nulls_.data();
    if (first) {
      ASAN_POISON_MEMORY_REGION(data, n * width);
      ASAN_POISON_MEMORY_REGION(nulls, n);
    }
    uint8_t tag = static_cast<uint8_t>(phys);
    bool tag_pending = first;
    if (tag_pending && (blocks & 1) == 0) {
      // The first fault starts past row 0: the tag is not next to any
      // block read below.
      CONQUER_RETURN_NOT_OK(backing.file->ReadAt(offset, &tag, 1));
      *bytes_read += 1;
      tag_pending = false;
    }
    // One run of consecutive blocks at a time: its values, then its null
    // bytes; a run covering every row reads both with the tag in one
    // preadv, as the whole column sits contiguously in the extent.
    for (uint64_t rest = blocks; rest != 0;) {
      const int b0 = std::countr_zero(rest);
      const uint64_t ones = ~(rest >> b0);
      const int len = ones == 0 ? 64 - b0 : std::countr_zero(ones);
      rest = b0 + len >= 64 ? 0 : rest & (kAllBlocks << (b0 + len));
      const uint64_t r0 = std::min<uint64_t>(b0 * block_rows, n);
      const uint64_t r1 = std::min<uint64_t>((b0 + len) * block_rows, n);
      ASAN_UNPOISON_MEMORY_REGION(data + r0 * width, (r1 - r0) * width);
      ASAN_UNPOISON_MEMORY_REGION(nulls + r0, r1 - r0);
      struct iovec iov[3];
      int k = 0;
      uint64_t at = offset + 1 + r0 * width;
      if (tag_pending) {  // r0 == 0
        iov[k++] = {&tag, 1};
        at = offset;
        *bytes_read += 1;
        tag_pending = false;
      }
      iov[k++] = {data + r0 * width, static_cast<size_t>((r1 - r0) * width)};
      if (r0 == 0 && r1 == n) {
        iov[k++] = {nulls, static_cast<size_t>(n)};
        CONQUER_RETURN_NOT_OK(backing.file->ReadVAt(at, iov, k));
      } else {
        CONQUER_RETURN_NOT_OK(backing.file->ReadVAt(at, iov, k));
        struct iovec null_iov = {nulls + r0, static_cast<size_t>(r1 - r0)};
        CONQUER_RETURN_NOT_OK(
            backing.file->ReadVAt(offset + 1 + n * width + r0, &null_iov, 1));
      }
      *bytes_read += (r1 - r0) * (width + 1);
    }
    if (tag != static_cast<uint8_t>(phys)) {
      return Status::InvalidArgument("chunk payload column layout mismatch");
    }
    offset += span;
  }
  return Status::OK();
}

Status SegmentCodec::FaultInAll(Chunk* chunk) {
  assert(chunk->pool_ == nullptr && !chunk->any_resident());
  const uint64_t blocks = chunk->BlocksOfAllRows();
  std::vector<ColumnBlocks> all;
  for (uint32_t c = 0; c < chunk->columns_.size(); ++c) {
    all.push_back({c, blocks});
  }
  uint64_t bytes = 0;
  CONQUER_RETURN_NOT_OK(ReadBlocks(chunk->backing_, all, chunk, &bytes));
  for (const ColumnBlocks& cb : all) chunk->PublishBlocks(cb.column, cb.blocks);
  chunk->payload_dirty_ = false;
  return Status::OK();
}

void SegmentCodec::ReleasePayload(Chunk* chunk) {
  for (ColumnVector& cv : chunk->columns_) {
    decltype(cv.fixed_)().swap(cv.fixed_);
    decltype(cv.dbl_)().swap(cv.dbl_);
    decltype(cv.codes_)().swap(cv.codes_);
    decltype(cv.nulls_)().swap(cv.nulls_);
  }
  chunk->SetAllMasks(0);
}

void SegmentCodec::InitEvicted(Chunk* chunk, size_t num_rows,
                               ChunkBacking backing) {
  assert(chunk->num_rows_ == 0);
  chunk->num_rows_ = num_rows;
  chunk->backing_ = std::move(backing);
  chunk->SetAllMasks(0);
  chunk->payload_dirty_ = false;
}

void SegmentCodec::Rebind(Chunk* chunk, ChunkBacking backing) {
  assert(chunk->pool_ == nullptr);
  chunk->backing_ = std::move(backing);
  chunk->payload_dirty_ = false;
}

void SegmentCodec::SetZone(Chunk* chunk, size_t col, ZoneMap zone) {
  chunk->zones_[col] = std::move(zone);
}

void SegmentCodec::SetVersions(Chunk* chunk, std::vector<uint64_t> begin,
                               std::vector<uint64_t> end) {
  assert(begin.size() == chunk->num_rows_ && end.size() == chunk->num_rows_);
  chunk->begin_versions_ = std::move(begin);
  chunk->end_versions_ = std::move(end);
}

// ----------------------------------------------------- table segment files

namespace {

struct Extent {
  uint64_t offset;
  uint64_t length;
};

Status WriteSegmentBody(const Table& table, SegmentFile* file,
                        std::vector<Extent>* out_extents) {
  CONQUER_RETURN_NOT_OK(
      file->Append(kSegmentMagic, sizeof(kSegmentMagic), nullptr));

  std::vector<Extent>& extents = *out_extents;
  extents.reserve(table.num_chunks());
  std::string buf;
  for (size_t i = 0; i < table.num_chunks(); ++i) {
    // Pin one chunk at a time: saving a budgeted database never needs more
    // than one payload resident beyond the steady state.
    ChunkPin pin = table.PinChunk(i);
    buf.clear();
    SegmentCodec::SerializePayload(*pin.get(), &buf);
    uint64_t off = 0;
    CONQUER_RETURN_NOT_OK(file->Append(buf.data(), buf.size(), &off));
    extents.push_back({off, buf.size()});
  }

  const size_t num_cols = table.schema().num_columns();
  std::string meta;
  PutU64(&meta, table.committed_version());
  PutU64(&meta, table.chunk_capacity());
  PutU64(&meta, table.num_rows());
  PutU32(&meta, static_cast<uint32_t>(num_cols));
  for (size_t c = 0; c < num_cols; ++c) {
    const StringDictionary* dict = table.dictionary(c);
    if (dict == nullptr) {
      PutU8(&meta, 0);
      continue;
    }
    PutU8(&meta, 1);
    // Entries in code order, so re-interning at load reproduces every code.
    const uint32_t n = static_cast<uint32_t>(dict->size());
    PutU64(&meta, n);
    for (uint32_t code = 0; code < n; ++code) {
      PutString(&meta, *dict->StringAt(code));
    }
  }
  PutU64(&meta, table.num_chunks());
  for (size_t i = 0; i < table.num_chunks(); ++i) {
    const Chunk& ch = table.chunk(i);
    PutU64(&meta, extents[i].offset);
    PutU64(&meta, extents[i].length);
    PutU32(&meta, static_cast<uint32_t>(ch.num_rows()));
    for (size_t c = 0; c < num_cols; ++c) {
      const ZoneMap& z = ch.zone(c);
      PutValue(&meta, z.min);
      PutValue(&meta, z.max);
      PutU32(&meta, z.null_count);
      PutU8(&meta, z.all_distinct ? 1 : 0);
    }
    PutU8(&meta, ch.has_versions() ? 1 : 0);
    if (ch.has_versions()) {
      for (size_t r = 0; r < ch.num_rows(); ++r) {
        PutU64(&meta, ch.begin_version(r));
      }
      for (size_t r = 0; r < ch.num_rows(); ++r) {
        PutU64(&meta, ch.end_version(r));
      }
    }
  }

  uint64_t meta_offset = 0;
  CONQUER_RETURN_NOT_OK(file->Append(meta.data(), meta.size(), &meta_offset));
  std::string footer;
  PutU64(&footer, meta_offset);
  PutU64(&footer, meta.size());
  PutRaw(&footer, kSegmentMagic, sizeof(kSegmentMagic));
  CONQUER_RETURN_NOT_OK(file->Append(footer.data(), footer.size(), nullptr));
  return file->Sync();
}

/// Renames `tmp` over `path` when `written` is OK; removes `tmp` otherwise.
Status CommitTempFile(const std::string& tmp, const std::string& path,
                      Status written) {
  if (written.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    written = Status::Internal(StringPrintf("cannot rename '%s' over '%s': %s",
                                            tmp.c_str(), path.c_str(),
                                            std::strerror(errno)));
  }
  if (!written.ok()) ::unlink(tmp.c_str());
  return written;
}

}  // namespace

Status WriteFileAtomically(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  Status st;
  {
    CONQUER_ASSIGN_OR_RETURN(std::shared_ptr<SegmentFile> file,
                             SegmentFile::Create(tmp));
    st = file->Append(bytes.data(), bytes.size(), nullptr);
    if (st.ok()) st = file->Sync();
  }
  return CommitTempFile(tmp, path, std::move(st));
}

Status WriteTableSegment(Table* table, const std::string& path) {
  // Never open `path` itself for writing: after LoadDatabase the table's
  // evicted chunks read their payloads from that very file, so truncating
  // it in place would destroy the data before the pin loop below faults it
  // in — and a failed save would leave nothing behind. Write a sibling temp
  // file and rename() it over the target only once the footer is durable;
  // chunks still faulting from the replaced file keep reading the old inode
  // through their open handle.
  const std::string tmp = path + ".tmp";
  std::vector<Extent> extents;
  Status st;
  {
    CONQUER_ASSIGN_OR_RETURN(std::shared_ptr<SegmentFile> file,
                             SegmentFile::Create(tmp));
    st = WriteSegmentBody(*table, file.get(), &extents);
  }
  CONQUER_RETURN_NOT_OK(CommitTempFile(tmp, path, std::move(st)));

  // Checkpoint: every chunk's payload was just written verbatim, so re-point
  // the backings at the new file and mark everything clean. This releases
  // the replaced inode (otherwise held alive by still-evicted chunks — a
  // full file's worth of dead disk) and any spill extents. Best-effort: if
  // the reopen fails the save already succeeded and the old handles stay
  // valid. Safe because saves run without concurrent writers (SaveDatabase
  // holds a read slot, which the unsynchronized metadata walk above relies
  // on too); a concurrent reader mid-fault is waited out by RebindBacking.
  Result<std::shared_ptr<SegmentFile>> reopened =
      SegmentFile::OpenReadOnly(path);
  if (!reopened.ok()) return Status::OK();
  const std::shared_ptr<SegmentFile>& file = reopened.value();
  BufferPool* pool = table->buffer_pool();
  for (size_t i = 0; i < table->num_chunks() && i < extents.size(); ++i) {
    Chunk* ch = table->mutable_chunk(i);
    ChunkBacking backing{file, extents[i].offset, extents[i].length};
    if (pool != nullptr) {
      pool->RebindBacking(ch, std::move(backing));
    } else {
      SegmentCodec::Rebind(ch, std::move(backing));
    }
  }
  return Status::OK();
}

Status LoadTableSegment(Table* table, const std::string& path) {
  if (table->num_rows() != 0) {
    return Status::InvalidArgument("LoadTableSegment requires an empty table");
  }
  CONQUER_ASSIGN_OR_RETURN(std::shared_ptr<SegmentFile> file,
                           SegmentFile::OpenReadOnly(path));
  if (file->size() < sizeof(kSegmentMagic) + kFooterSize) {
    return Status::InvalidArgument("segment file '" + path + "' truncated");
  }
  char footer_buf[kFooterSize];
  CONQUER_RETURN_NOT_OK(
      file->ReadAt(file->size() - kFooterSize, footer_buf, kFooterSize));
  if (std::memcmp(footer_buf + 16, kSegmentMagic, sizeof(kSegmentMagic)) !=
      0) {
    return Status::InvalidArgument("segment file '" + path +
                                   "' has a corrupt footer");
  }
  uint64_t meta_offset = 0, meta_length = 0;
  std::memcpy(&meta_offset, footer_buf, 8);
  std::memcpy(&meta_length, footer_buf + 8, 8);
  // Per-operand checks: a corrupt footer could make offset+length wrap
  // around u64 and slip past a summed comparison.
  if (meta_offset > file->size() ||
      meta_length > file->size() - meta_offset) {
    return Status::InvalidArgument("segment meta section out of bounds");
  }
  std::string meta(meta_length, '\0');
  CONQUER_RETURN_NOT_OK(file->ReadAt(meta_offset, meta.data(), meta_length));

  ByteReader r(meta);
  uint64_t committed_version = 0, chunk_capacity = 0, num_rows = 0;
  uint32_t num_cols = 0;
  CONQUER_RETURN_NOT_OK(r.ReadU64(&committed_version));
  CONQUER_RETURN_NOT_OK(r.ReadU64(&chunk_capacity));
  CONQUER_RETURN_NOT_OK(r.ReadU64(&num_rows));
  CONQUER_RETURN_NOT_OK(r.ReadU32(&num_cols));
  if (num_cols != table->schema().num_columns()) {
    return Status::InvalidArgument(StringPrintf(
        "segment has %u columns but table '%s' has %zu", num_cols,
        table->name().c_str(), table->schema().num_columns()));
  }
  for (size_t c = 0; c < num_cols; ++c) {
    uint8_t has_dict = 0;
    CONQUER_RETURN_NOT_OK(r.ReadU8(&has_dict));
    if (has_dict == 0) continue;
    StringDictionary* dict = table->mutable_dictionary(c);
    if (dict == nullptr) {
      return Status::InvalidArgument(
          "segment carries a dictionary for a non-string column");
    }
    uint64_t n = 0;
    CONQUER_RETURN_NOT_OK(r.ReadU64(&n));
    for (uint64_t i = 0; i < n; ++i) {
      std::string_view s;
      CONQUER_RETURN_NOT_OK(r.ReadString(&s));
      if (dict->Intern(s) != i) {
        return Status::InvalidArgument(
            "segment dictionary entries are not in code order");
      }
    }
  }

  uint64_t num_chunks = 0;
  CONQUER_RETURN_NOT_OK(r.ReadU64(&num_chunks));
  std::vector<std::unique_ptr<Chunk>> chunks;
  chunks.reserve(num_chunks);
  for (uint64_t i = 0; i < num_chunks; ++i) {
    uint64_t payload_offset = 0, payload_length = 0;
    uint32_t chunk_rows = 0;
    CONQUER_RETURN_NOT_OK(r.ReadU64(&payload_offset));
    CONQUER_RETURN_NOT_OK(r.ReadU64(&payload_length));
    CONQUER_RETURN_NOT_OK(r.ReadU32(&chunk_rows));
    auto ch = std::make_unique<Chunk>(&table->schema(),
                                      static_cast<size_t>(chunk_capacity));
    SegmentCodec::InitEvicted(ch.get(), chunk_rows,
                              {file, payload_offset, payload_length});
    for (size_t c = 0; c < num_cols; ++c) {
      ZoneMap z;
      StringDictionary* dict = table->mutable_dictionary(c);
      CONQUER_RETURN_NOT_OK(GetValue(&r, dict, &z.min));
      CONQUER_RETURN_NOT_OK(GetValue(&r, dict, &z.max));
      CONQUER_RETURN_NOT_OK(r.ReadU32(&z.null_count));
      uint8_t all_distinct = 0;
      CONQUER_RETURN_NOT_OK(r.ReadU8(&all_distinct));
      z.all_distinct = all_distinct != 0;
      SegmentCodec::SetZone(ch.get(), c, std::move(z));
    }
    uint8_t has_versions = 0;
    CONQUER_RETURN_NOT_OK(r.ReadU8(&has_versions));
    if (has_versions != 0) {
      std::vector<uint64_t> begin(chunk_rows), end(chunk_rows);
      CONQUER_RETURN_NOT_OK(
          r.Read(begin.data(), chunk_rows * sizeof(uint64_t)));
      CONQUER_RETURN_NOT_OK(r.Read(end.data(), chunk_rows * sizeof(uint64_t)));
      SegmentCodec::SetVersions(ch.get(), std::move(begin), std::move(end));
    }
    // Without a buffer pool there is nothing to fault payloads in later;
    // load them eagerly (the all-resident case).
    if (table->buffer_pool() == nullptr) {
      CONQUER_RETURN_NOT_OK(SegmentCodec::FaultInAll(ch.get()));
    }
    chunks.push_back(std::move(ch));
  }

  table->AdoptChunks(std::move(chunks), static_cast<size_t>(chunk_capacity),
                     static_cast<size_t>(num_rows), committed_version);
  return Status::OK();
}

}  // namespace conquer
