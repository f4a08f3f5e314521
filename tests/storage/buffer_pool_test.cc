// Tests of the pin/evict buffer pool: budget enforcement, pin semantics,
// dirty spills and concurrent pinning.

#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "storage/segment.h"
#include "storage/table.h"

namespace conquer {
namespace {

// ---- ParseByteSize ---------------------------------------------------------

TEST(ParseByteSize, AcceptsPlainAndSuffixedForms) {
  uint64_t b = 0;
  EXPECT_TRUE(ParseByteSize("0", &b));
  EXPECT_EQ(b, 0u);
  EXPECT_TRUE(ParseByteSize("12345", &b));
  EXPECT_EQ(b, 12345u);
  EXPECT_TRUE(ParseByteSize("4k", &b));
  EXPECT_EQ(b, 4096u);
  EXPECT_TRUE(ParseByteSize("64m", &b));
  EXPECT_EQ(b, 64ull << 20);
  EXPECT_TRUE(ParseByteSize("2g", &b));
  EXPECT_EQ(b, 2ull << 30);
  EXPECT_TRUE(ParseByteSize("8KB", &b));
  EXPECT_EQ(b, 8192u);
  EXPECT_TRUE(ParseByteSize("1Gb", &b));
  EXPECT_EQ(b, 1ull << 30);
  EXPECT_TRUE(ParseByteSize(" 16m ", &b));
  EXPECT_EQ(b, 16ull << 20);
}

TEST(ParseByteSize, UnlimitedSpellingsMeanZero) {
  for (const char* s : {"unlimited", "none", "off", "UNLIMITED"}) {
    uint64_t b = 1;
    EXPECT_TRUE(ParseByteSize(s, &b)) << s;
    EXPECT_EQ(b, 0u) << s;
  }
}

TEST(ParseByteSize, RejectsMalformedInput) {
  uint64_t b = 0;
  EXPECT_FALSE(ParseByteSize("", &b));
  EXPECT_FALSE(ParseByteSize("m", &b));
  EXPECT_FALSE(ParseByteSize("12x", &b));
  EXPECT_FALSE(ParseByteSize("-5", &b));
  EXPECT_FALSE(ParseByteSize("1.5g", &b));
  EXPECT_FALSE(ParseByteSize("12kmb", &b));
}

TEST(ParseByteSize, RejectsOverflowInsteadOfWrapping) {
  // A typo'd huge budget must be rejected, not silently wrapped to a tiny
  // one (which would turn the typo into aggressive eviction).
  uint64_t b = 0;
  EXPECT_FALSE(ParseByteSize("99999999999999999999999", &b));  // digit loop
  EXPECT_FALSE(ParseByteSize("20000000000g", &b));             // multiplier
  EXPECT_FALSE(ParseByteSize("18446744073709551616", &b));     // 2^64
  // Large but representable values still parse.
  EXPECT_TRUE(ParseByteSize("18446744073709551615", &b));      // 2^64 - 1
  EXPECT_EQ(b, UINT64_MAX);
  EXPECT_TRUE(ParseByteSize("8589934591g", &b));  // (2^33 - 1) GiB fits
  EXPECT_EQ(b, ((1ull << 33) - 1) << 30);
}

// ---- Pool behaviour through a Database -------------------------------------

/// A table with `chunks` chunks of `chunk_rows` rows each (64 by default,
/// whose blocks are one row each): an int, a string (so the payload
/// carries dictionary codes) and a double column. Row i holds a = i,
/// s = "name_<i % 97>" and p = i / 2.
void FillTable(Database* db, size_t chunks, size_t chunk_rows = 64) {
  ASSERT_TRUE(db->CreateTable(TableSchema("t", {{"a", DataType::kInt64},
                                                {"s", DataType::kString},
                                                {"p", DataType::kDouble}}))
                  .ok());
  const size_t rows = chunks * chunk_rows;
  std::vector<Row> batch;
  for (size_t i = 0; i < rows; ++i) {
    batch.push_back({Value::Int(static_cast<int64_t>(i)),
                     Value::String("name_" + std::to_string(i % 97)),
                     Value::Double(static_cast<double>(i) * 0.5)});
  }
  ASSERT_TRUE(db->InsertMany("t", std::move(batch)).ok());
  Table* t = *db->GetTable("t");
  t->Rechunk(chunk_rows);
  ASSERT_EQ(t->num_chunks(), chunks);
}

int64_t SumA(const Database& db) {
  auto rs = db.Query("select sum(a) from t");
  EXPECT_TRUE(rs.ok()) << rs.status().ToString();
  return rs->rows[0][0].int_value();
}

TEST(BufferPoolTest, TinyBudgetEvictsColdChunksAndAnswersStayCorrect) {
  Database db;
  db.SetMemoryBudget(0);
  FillTable(&db, 8);
  const int64_t expect = SumA(db);

  // One byte of budget: nothing unpinned may stay resident. Each scan then
  // faults every chunk back in and evicts it again behind the cursor.
  db.SetMemoryBudget(1);
  const BufferPool::Stats after_evict = db.buffer_pool()->stats();
  EXPECT_GE(after_evict.chunks_evicted, 8u);
  EXPECT_EQ(after_evict.resident_bytes, 0u);
  // Never persisted, so the dirty payloads all went through the spill file.
  EXPECT_GE(after_evict.chunks_spilled, 8u);

  for (int pass = 0; pass < 3; ++pass) {
    EXPECT_EQ(SumA(db), expect) << "pass " << pass;
  }
  EXPECT_GE(db.buffer_pool()->stats().chunks_loaded, 24u);
}

TEST(BufferPoolTest, PinnedChunksAreExemptFromEviction) {
  Database db;
  db.SetMemoryBudget(0);
  FillTable(&db, 4);
  Table* t = *db.GetTable("t");

  ChunkPin pin = t->PinChunk(0);
  const uint64_t resident_before = db.buffer_pool()->stats().resident_bytes;
  ASSERT_GT(resident_before, 0u);

  db.SetMemoryBudget(1);
  const BufferPool::Stats st = db.buffer_pool()->stats();
  // Chunks 1..3 were evicted; the pinned chunk 0 must still be charged and
  // its payload must still be readable through the pin.
  EXPECT_EQ(st.chunks_evicted, 3u);
  EXPECT_GT(st.resident_bytes, 0u);
  EXPECT_LT(st.resident_bytes, resident_before);
  EXPECT_EQ(pin->column(0).fixed_data()[5], 5);

  // Releasing the pin makes it evictable: the next enforcement point (a pin
  // of some other chunk) pushes the pool down to the budget.
  pin.Reset();
  { ChunkPin other = t->PinChunk(3); }
  EXPECT_EQ(db.buffer_pool()->stats().resident_bytes, 0u);
  EXPECT_EQ(db.buffer_pool()->stats().chunks_evicted, 5u);
}

TEST(BufferPoolTest, DirtySpillPreservesStampsAndDictionaryCodes) {
  Database db;
  db.SetMemoryBudget(0);
  FillTable(&db, 4);

  // In-place writes dirty their chunks and stamp fresh MVCC versions.
  ASSERT_TRUE(db.ExecuteWrite("update t set s = 'renamed' where a = 10").ok());
  ASSERT_TRUE(db.ExecuteWrite("delete from t where a = 20").ok());
  Table* t = *db.GetTable("t");
  const uint64_t version = t->committed_version();
  const size_t visible = t->VisibleRowPositions(version).size();

  auto before = db.Query("select a, s, p from t order by a");
  ASSERT_TRUE(before.ok());

  // Spill everything, then fault it back.
  db.SetMemoryBudget(1);
  ASSERT_GE(db.buffer_pool()->stats().chunks_spilled, 4u);
  db.SetMemoryBudget(0);

  EXPECT_EQ(t->committed_version(), version);
  EXPECT_EQ(t->VisibleRowPositions(version).size(), visible);
  auto after = db.Query("select a, s, p from t order by a");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->rows.size(), after->rows.size());
  for (size_t r = 0; r < before->rows.size(); ++r) {
    for (size_t c = 0; c < before->rows[r].size(); ++c) {
      EXPECT_EQ(before->rows[r][c].TotalCompare(after->rows[r][c]), 0)
          << "row " << r << " col " << c;
    }
  }
  auto renamed = db.Query("select s from t where a = 10");
  ASSERT_TRUE(renamed.ok());
  ASSERT_EQ(renamed->rows.size(), 1u);
  EXPECT_EQ(renamed->rows[0][0].string_value(), "renamed");
}

TEST(BufferPoolTest, BudgetLargerThanOneChunkKeepsHotChunkResident) {
  Database db;
  db.SetMemoryBudget(0);
  FillTable(&db, 4);
  Table* t = *db.GetTable("t");

  // Budget = one chunk's payload: repeated pins of the same chunk must not
  // thrash (a pinned chunk never evicts itself to make room for itself).
  uint64_t one_chunk = 0;
  {
    ChunkPin pin = t->PinChunk(0);
    one_chunk = db.buffer_pool()->stats().resident_bytes / 4;
  }
  ASSERT_GT(one_chunk, 0u);
  db.SetMemoryBudget(one_chunk);

  const uint64_t loads_before = db.buffer_pool()->stats().chunks_loaded;
  for (int i = 0; i < 10; ++i) {
    ChunkPin pin = t->PinChunk(2);
    EXPECT_EQ(pin->column(0).fixed_data()[0], 2 * 64);
  }
  // First pin may fault chunk 2 in; the other nine must hit.
  EXPECT_LE(db.buffer_pool()->stats().chunks_loaded, loads_before + 1);
}

TEST(BufferPoolTest, DirtyReEvictionReusesSpillExtents) {
  Database db;
  db.SetMemoryBudget(0);
  FillTable(&db, 4);
  Table* t = *db.GetTable("t");

  // First spill of all four dirty chunks sizes the spill file.
  db.SetMemoryBudget(1);
  const uint64_t first = db.buffer_pool()->stats().spill_file_bytes;
  ASSERT_GT(first, 0u);

  // Re-dirty and re-evict every chunk repeatedly: each SetValue faults the
  // chunk in, marks it dirty, and the unpin under the 1-byte budget spills
  // it again. Same-size payloads must rewrite their extent in place, so the
  // spill file stops growing after the first round — the append-only
  // regression grew it by four payloads per cycle, without bound.
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (size_t c = 0; c < 4; ++c) {
      t->SetValue(c * 64, 2, Value::Double(cycle * 10.0 + c));
    }
  }
  const BufferPool::Stats st = db.buffer_pool()->stats();
  EXPECT_GE(st.chunks_spilled, 24u);  // 4 initial + 4 per cycle
  EXPECT_EQ(st.spill_file_bytes, first);

  // And the data survived all that extent recycling.
  auto rs = db.Query("select p from t where a = 192");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].double_value(), 43.0);  // cycle 4, chunk 3
}

TEST(BufferPoolTest, DyingChunksReturnTheirSpillExtents) {
  Database db;
  db.SetMemoryBudget(0);
  FillTable(&db, 4);
  Table* t = *db.GetTable("t");
  db.SetMemoryBudget(1);  // spill all four chunks
  ASSERT_GT(db.buffer_pool()->stats().spill_file_bytes, 0u);

  // Rechunk rebuilds storage: the destination chunks spill while the old
  // ones still hold their extents (the file grows once), then the dying
  // old chunks hand their extents back to the free list.
  t->Rechunk(64);
  const uint64_t after_rechunk = db.buffer_pool()->stats().spill_file_bytes;

  // Appending four more chunks' worth of rows spills fresh payloads; they
  // must land in the freed extents instead of growing the file again.
  std::vector<Row> batch;
  for (size_t i = 4 * 64; i < 8 * 64; ++i) {
    batch.push_back({Value::Int(static_cast<int64_t>(i)),
                     Value::String("name_" + std::to_string(i % 97)),
                     Value::Double(static_cast<double>(i) * 0.5)});
  }
  ASSERT_TRUE(db.InsertMany("t", std::move(batch)).ok());

  const int64_t expect = (8 * 64 - 1) * (8 * 64) / 2;
  EXPECT_EQ(SumA(db), expect);
  EXPECT_LE(db.buffer_pool()->stats().spill_file_bytes, after_rechunk);
}

TEST(BufferPoolTest, ConcurrentPinsUnderTinyBudgetAreSafe) {
  Database db;
  db.SetMemoryBudget(0);
  FillTable(&db, 8);
  const int64_t expect = SumA(db);
  db.SetMemoryBudget(1);
  db.SetThreads(4);

  constexpr int kThreads = 4;
  constexpr int kPasses = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int p = 0; p < kPasses; ++p) {
        auto rs = db.Query("select sum(a) from t");
        if (!rs.ok() || rs->rows[0][0].int_value() != expect) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---- Column-granular residency --------------------------------------------

/// Payload bytes of one column of a 64-row chunk: tag, values, null bytes.
constexpr uint64_t kFixedColumnBytes = 1 + 64 * (8 + 1);  // a, p
constexpr uint64_t kCodeColumnBytes = 1 + 64 * (4 + 1);   // s

/// What the pool should charge: the bytes of every resident column.
uint64_t ResidentColumnBytes(const Table& t) {
  uint64_t bytes = 0;
  for (size_t c = 0; c < t.num_chunks(); ++c) {
    bytes += t.chunk(c).PayloadBytes();
  }
  return bytes;
}

TEST(BufferPoolTest, ColumnPinsFaultOnlyTheNamedColumns) {
  Database db;
  db.SetMemoryBudget(0);
  FillTable(&db, 4);
  Table* t = *db.GetTable("t");
  BufferPool* pool = db.buffer_pool();
  db.SetMemoryBudget(1);  // every chunk spilled whole, then evicted
  const Chunk& ch1 = t->chunk(1);
  const Chunk& ch2 = t->chunk(2);
  ASSERT_FALSE(ch1.column_resident(0));

  // {a, s} of chunk 1: one load of exactly those two columns.
  BufferPool::Stats before = pool->stats();
  ChunkPin as = t->PinChunk(1, ColumnSet{0, 1});
  BufferPool::Stats after = pool->stats();
  EXPECT_EQ(after.chunks_loaded - before.chunks_loaded, 1u);
  EXPECT_EQ(after.columns_loaded - before.columns_loaded, 2u);
  EXPECT_EQ(after.bytes_read - before.bytes_read,
            kFixedColumnBytes + kCodeColumnBytes);
  EXPECT_TRUE(ch1.column_resident(0));
  EXPECT_TRUE(ch1.column_resident(1));
  EXPECT_FALSE(ch1.column_resident(2));
  EXPECT_FALSE(ch1.payload_resident());
  EXPECT_EQ(after.resident_bytes, ResidentColumnBytes(*t));
  EXPECT_EQ(as->column(0).fixed_data()[3], 64 + 3);

  // A later pin of {p} reads p only; a pin of every column then reads
  // nothing.
  before = after;
  ChunkPin p = t->PinChunk(1, ColumnSet{2});
  after = pool->stats();
  EXPECT_EQ(after.columns_loaded - before.columns_loaded, 1u);
  EXPECT_EQ(after.bytes_read - before.bytes_read, kFixedColumnBytes);
  EXPECT_EQ(p->column(2).double_data()[3], (64 + 3) * 0.5);
  before = after;
  ChunkPin all1 = t->PinChunk(1);
  after = pool->stats();
  EXPECT_EQ(after.chunks_loaded, before.chunks_loaded);
  EXPECT_TRUE(ch1.payload_resident());

  // {s} of chunk 2, then every column: the second pin reads the rest.
  ChunkPin s2 = t->PinChunk(2, ColumnSet{1});
  before = pool->stats();
  ChunkPin all2 = t->PinChunk(2);
  after = pool->stats();
  EXPECT_EQ(after.chunks_loaded - before.chunks_loaded, 1u);
  EXPECT_EQ(after.columns_loaded - before.columns_loaded, 2u);
  EXPECT_EQ(after.bytes_read - before.bytes_read, 2 * kFixedColumnBytes);
  EXPECT_TRUE(ch2.payload_resident());
  EXPECT_EQ(after.resident_bytes, ResidentColumnBytes(*t));
  EXPECT_GT(after.resident_bytes, 0u);

  // The last unpin of each chunk evicts every resident column together and
  // releases exactly what was charged.
  as.Reset();
  p.Reset();
  all1.Reset();
  s2.Reset();
  all2.Reset();
  after = pool->stats();
  EXPECT_EQ(after.resident_bytes, 0u);
  EXPECT_EQ(ResidentColumnBytes(*t), 0u);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_FALSE(ch1.column_resident(c));
    EXPECT_FALSE(ch2.column_resident(c));
  }
}

TEST(BufferPoolTest, WriteToPartialChunkFaultsTheRestAndSpillsWhole) {
  Database db;
  db.SetMemoryBudget(0);
  FillTable(&db, 4);
  Table* t = *db.GetTable("t");
  BufferPool* pool = db.buffer_pool();
  db.SetMemoryBudget(1);

  const BufferPool::Stats start = pool->stats();
  {
    ChunkPin a = t->PinChunk(2, ColumnSet{0});
    const BufferPool::Stats before = pool->stats();
    // Writes pin every column: the write faults s and p in first.
    t->SetValue(2 * 64 + 5, 2, Value::Double(-1.25));
    const BufferPool::Stats after = pool->stats();
    EXPECT_EQ(after.columns_loaded - before.columns_loaded, 2u);
    EXPECT_TRUE(t->chunk(2).payload_resident());
  }
  // The last unpin evicted the dirty chunk, spilling its full payload.
  const BufferPool::Stats spilled = pool->stats();
  EXPECT_EQ(spilled.chunks_spilled - start.chunks_spilled, 1u);
  EXPECT_FALSE(t->chunk(2).column_resident(1));
  EXPECT_EQ(spilled.resident_bytes, 0u);

  // Every column reloads from the spill extent bit-exactly.
  ChunkPin all = t->PinChunk(2);
  EXPECT_EQ(pool->stats().columns_loaded - spilled.columns_loaded, 3u);
  const StringDictionary* dict = t->dictionary(1);
  for (size_t r = 0; r < 64; ++r) {
    const int64_t i = static_cast<int64_t>(2 * 64 + r);
    EXPECT_EQ(all->column(0).fixed_data()[r], i);
    EXPECT_EQ(all->column(1).GetValue(r, dict).string_value(),
              "name_" + std::to_string(i % 97));
    EXPECT_EQ(all->column(2).double_data()[r],
              r == 5 ? -1.25 : static_cast<double>(i) * 0.5);
  }
}

// Two readers fault disjoint columns of one evicted chunk while a third
// thread drops its own pin: the unlocked column reads must not race the
// accounting, and the pool must end charging exactly the resident columns.
TEST(BufferPoolTest, ConcurrentDisjointColumnPinsKeepAccountingExact) {
  Database db;
  db.SetMemoryBudget(0);
  FillTable(&db, 2);
  Table* t = *db.GetTable("t");
  BufferPool* pool = db.buffer_pool();
  const StringDictionary* dict = t->dictionary(1);

  for (uint64_t budget : {uint64_t{1}, uint64_t{0}}) {
    for (int round = 0; round < 40; ++round) {
      db.SetMemoryBudget(1);  // chunk 0 starts evicted
      db.SetMemoryBudget(budget);
      ChunkPin held = t->PinChunk(0, ColumnSet{});
      std::atomic<int> ready{0};
      auto wait_all = [&ready] {
        ready.fetch_add(1);
        while (ready.load() < 3) std::this_thread::yield();
      };
      int64_t sum_a = 0;
      double sum_p = 0;
      size_t named = 0;
      std::thread reader_a([&] {
        wait_all();
        ChunkPin pin = t->PinChunk(0, ColumnSet{0});
        for (size_t r = 0; r < 64; ++r) sum_a += pin->column(0).fixed_data()[r];
      });
      std::thread reader_sp([&] {
        wait_all();
        ChunkPin pin = t->PinChunk(0, ColumnSet{1, 2});
        for (size_t r = 0; r < 64; ++r) {
          sum_p += pin->column(2).double_data()[r];
          named += pin->column(1).GetValue(r, dict).string_value().size();
        }
      });
      std::thread unpinner([&] {
        wait_all();
        held.Reset();
      });
      reader_a.join();
      reader_sp.join();
      unpinner.join();
      EXPECT_EQ(sum_a, 63 * 64 / 2);
      EXPECT_EQ(sum_p, 63 * 64 / 2 * 0.5);
      EXPECT_GT(named, 0u);
      const BufferPool::Stats st = pool->stats();
      EXPECT_EQ(st.resident_bytes, ResidentColumnBytes(*t))
          << "budget " << budget << " round " << round;
      if (budget == 1) {
        EXPECT_EQ(st.resident_bytes, 0u);
      } else {
        EXPECT_TRUE(t->chunk(0).payload_resident());
      }
    }
  }
}


// ---- Block-granular residency ---------------------------------------------

// 640-row chunks: 64 blocks of 10 rows.
constexpr size_t kBlockChunkRows = 640;
constexpr uint64_t kBlockRows = 10;
constexpr uint64_t kFixedBlockBytes = kBlockRows * (8 + 1);  // a, p
constexpr uint64_t kCodeBlockBytes = kBlockRows * (4 + 1);   // s

TEST(BufferPoolTest, RowPinsFaultOnlyTheirBlocks) {
  Database db;
  db.SetMemoryBudget(0);
  FillTable(&db, 3, kBlockChunkRows);
  Table* t = *db.GetTable("t");
  BufferPool* pool = db.buffer_pool();
  db.SetMemoryBudget(1);  // every chunk spilled whole, then evicted
  db.SetMemoryBudget(0);  // nothing evicts from here on
  const Chunk& ch = t->chunk(1);
  ASSERT_EQ(ch.block_rows(), kBlockRows);

  // Rows 15 and 17 share block 1; row 300 is in block 30. Each column's
  // first fault also reads its tag.
  const std::vector<uint32_t> rows = {15, 17, 300};
  BufferPool::Stats before = pool->stats();
  ChunkPin ap = t->PinChunk(1, ColumnSet{0, 2}, rows);
  BufferPool::Stats after = pool->stats();
  EXPECT_EQ(after.chunks_loaded - before.chunks_loaded, 1u);
  EXPECT_EQ(after.columns_loaded - before.columns_loaded, 2u);
  EXPECT_EQ(after.bytes_read - before.bytes_read, 2 * (1 + 2 * kFixedBlockBytes));
  EXPECT_EQ(after.resident_bytes - before.resident_bytes,
            2 * 2 * kFixedBlockBytes);
  EXPECT_EQ(after.resident_bytes, ResidentColumnBytes(*t));
  EXPECT_EQ(ch.block_mask(0), (uint64_t{1} << 1) | (uint64_t{1} << 30));
  EXPECT_EQ(ch.block_mask(1), 0u);
  for (uint32_t r : rows) {
    const int64_t i = static_cast<int64_t>(kBlockChunkRows + r);
    EXPECT_EQ(ap->column(0).fixed_data()[r], i);
    EXPECT_EQ(ap->column(2).double_data()[r], static_cast<double>(i) * 0.5);
  }

  // A pin of every block reads only the missing ones: 62 blocks of a and
  // p, and all of s with its tag; the columns then equal the in-memory
  // ones.
  before = after;
  ChunkPin all = t->PinChunk(1);
  after = pool->stats();
  EXPECT_EQ(after.chunks_loaded - before.chunks_loaded, 1u);
  EXPECT_EQ(after.columns_loaded - before.columns_loaded, 3u);
  EXPECT_EQ(after.bytes_read - before.bytes_read,
            2 * 62 * kFixedBlockBytes + 1 + 64 * kCodeBlockBytes);
  EXPECT_TRUE(ch.payload_resident());
  EXPECT_EQ(after.resident_bytes, ResidentColumnBytes(*t));
  const StringDictionary* dict = t->dictionary(1);
  for (size_t r = 0; r < kBlockChunkRows; ++r) {
    const int64_t i = static_cast<int64_t>(kBlockChunkRows + r);
    ASSERT_EQ(all->column(0).fixed_data()[r], i) << r;
    ASSERT_EQ(all->column(1).GetValue(r, dict).string_value(),
              "name_" + std::to_string(i % 97))
        << r;
    ASSERT_EQ(all->column(2).double_data()[r], static_cast<double>(i) * 0.5)
        << r;
  }
}

TEST(BufferPoolTest, ShortLastBlockIsChargedItsRows) {
  Database db;
  db.SetMemoryBudget(0);
  FillTable(&db, 1, kBlockChunkRows);
  Table* t = *db.GetTable("t");
  // 25 more rows: chunk 1 holds blocks 0 and 1 whole and 5 rows of block 2.
  std::vector<Row> batch;
  for (int64_t i = 640; i < 665; ++i) {
    batch.push_back({Value::Int(i), Value::String("x"), Value::Double(0.5)});
  }
  ASSERT_TRUE(db.InsertMany("t", std::move(batch)).ok());
  t->Rechunk(kBlockChunkRows);  // drops the tail's append pin
  ASSERT_EQ(t->num_chunks(), 2u);
  db.SetMemoryBudget(1);
  db.SetMemoryBudget(0);
  BufferPool* pool = db.buffer_pool();

  const std::vector<uint32_t> last = {22};
  const BufferPool::Stats before = pool->stats();
  ChunkPin pin = t->PinChunk(1, ColumnSet{0}, last);
  const BufferPool::Stats after = pool->stats();
  EXPECT_EQ(after.bytes_read - before.bytes_read, 1 + 5 * (8 + 1));
  EXPECT_EQ(after.resident_bytes - before.resident_bytes, 5 * (8 + 1));
  EXPECT_EQ(pin->column(0).fixed_data()[22], 662);
  EXPECT_FALSE(t->chunk(1).column_resident(0));
}

TEST(BufferPoolTest, EvictingAPartlyResidentChunkReturnsItsWholeCharge) {
  Database db;
  db.SetMemoryBudget(0);
  FillTable(&db, 2, kBlockChunkRows);
  Table* t = *db.GetTable("t");
  BufferPool* pool = db.buffer_pool();
  db.SetMemoryBudget(1);
  db.SetMemoryBudget(0);
  ASSERT_EQ(pool->stats().resident_bytes, 0u);

  {
    const std::vector<uint32_t> rows = {0, 639};
    ChunkPin a = t->PinChunk(0, ColumnSet{0, 1}, rows);
    const std::vector<uint32_t> mid = {320};
    ChunkPin p = t->PinChunk(0, ColumnSet{2}, mid);
  }
  const BufferPool::Stats partial = pool->stats();
  EXPECT_EQ(partial.resident_bytes,
            2 * kFixedBlockBytes + 2 * kCodeBlockBytes + kFixedBlockBytes);
  EXPECT_EQ(partial.resident_bytes, ResidentColumnBytes(*t));
  EXPECT_FALSE(t->chunk(0).payload_resident());

  db.SetMemoryBudget(1);
  const BufferPool::Stats evicted = pool->stats();
  EXPECT_EQ(evicted.chunks_evicted - partial.chunks_evicted, 1u);
  EXPECT_EQ(evicted.chunks_spilled, partial.chunks_spilled);  // clean: dropped
  EXPECT_EQ(evicted.resident_bytes, 0u);
  EXPECT_FALSE(t->chunk(0).any_resident());
}

// Table::ValueAt pins one column at the row's block, GetRowInto every
// column at the row's block: under a budget each faults one block per
// column it reads.
TEST(BufferPoolTest, RowReadersFaultOneBlock) {
  Database db;
  db.SetMemoryBudget(0);
  FillTable(&db, 2, kBlockChunkRows);
  Table* t = *db.GetTable("t");
  BufferPool* pool = db.buffer_pool();
  db.SetMemoryBudget(1);

  BufferPool::Stats before = pool->stats();
  EXPECT_EQ(t->ValueAt(kBlockChunkRows + 333, 2).double_value(),
            (kBlockChunkRows + 333) * 0.5);
  BufferPool::Stats after = pool->stats();
  EXPECT_EQ(after.columns_loaded - before.columns_loaded, 1u);
  EXPECT_EQ(after.bytes_read - before.bytes_read, 1 + kFixedBlockBytes);

  before = after;
  Row row;
  t->GetRowInto(77, &row);
  after = pool->stats();
  EXPECT_EQ(row[0].int_value(), 77);
  EXPECT_EQ(row[1].string_value(), "name_77");
  EXPECT_EQ(after.columns_loaded - before.columns_loaded, 3u);
  EXPECT_EQ(after.bytes_read - before.bytes_read,
            3 + 2 * kFixedBlockBytes + kCodeBlockBytes);
  EXPECT_EQ(after.resident_bytes, 0u);
}

// A column's first fault that starts past row 0 reads its tag on its own:
// a corrupt tag is still an error there.
TEST(BufferPoolTest, CorruptTagIsReportedWhenTheFirstFaultSkipsRowZero) {
  const TableSchema schema("t", {{"a", DataType::kInt64},
                                 {"s", DataType::kString},
                                 {"p", DataType::kDouble}});
  Table t(schema, kBlockChunkRows);
  for (int64_t i = 0; i < static_cast<int64_t>(kBlockChunkRows); ++i) {
    ASSERT_TRUE(t.Insert({Value::Int(i), Value::String("s"),
                          Value::Double(static_cast<double>(i))})
                    .ok());
  }
  const std::string path = (std::filesystem::temp_directory_path() /
                            "conquer_buffer_pool_test_corrupt_tag.seg")
                               .string();
  ASSERT_TRUE(WriteTableSegment(&t, path).ok());
  // The payload follows the 8-byte magic: the row count, then column a
  // (tag, 640 values, 640 null bytes), then column s's tag.
  constexpr uint64_t kOffset = 8;
  constexpr uint64_t kLength = 4 + 2 * (1 + 640 * 9) + (1 + 640 * 5);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    const char bogus = 7;
    f.seekp(static_cast<std::streamoff>(kOffset + 4 + (1 + 640 * 9)));
    f.write(&bogus, 1);
  }
  auto file = SegmentFile::OpenReadOnly(path);
  ASSERT_TRUE(file.ok());
  const ChunkBacking backing{*file, kOffset, kLength};
  const uint64_t block5 = uint64_t{1} << 5;
  {
    Chunk ch(&schema, kBlockChunkRows);
    SegmentCodec::InitEvicted(&ch, kBlockChunkRows, backing);
    uint64_t bytes = 0;
    const Status st = SegmentCodec::ReadBlocks(backing, {{1, block5}}, &ch,
                                               &bytes);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  }
  {
    // Column a's tag is intact: block 5 alone reads its tag and 10 rows.
    Chunk ch(&schema, kBlockChunkRows);
    SegmentCodec::InitEvicted(&ch, kBlockChunkRows, backing);
    uint64_t bytes = 0;
    ASSERT_TRUE(
        SegmentCodec::ReadBlocks(backing, {{0, block5}}, &ch, &bytes).ok());
    EXPECT_EQ(bytes, 1 + kFixedBlockBytes);
  }
  std::filesystem::remove(path);
}

// Readers of disjoint and of overlapping blocks of one column of an
// evicted chunk fault concurrently while a third thread drops its own pin:
// the unlocked block reads must not race the masks or the accounting, and
// the pool must end charging exactly the resident blocks.
TEST(BufferPoolTest, ConcurrentBlockPinsKeepAccountingExact) {
  Database db;
  db.SetMemoryBudget(0);
  FillTable(&db, 1, kBlockChunkRows);
  Table* t = *db.GetTable("t");
  BufferPool* pool = db.buffer_pool();
  // Every row of blocks [first, last), and the sum of column a over them.
  auto rows_of = [](uint32_t first, uint32_t last) {
    std::vector<uint32_t> rows;
    for (uint32_t r = first * kBlockRows; r < last * kBlockRows; ++r) {
      rows.push_back(r);
    }
    return rows;
  };
  auto sum_of = [](const std::vector<uint32_t>& rows) {
    int64_t sum = 0;
    for (uint32_t r : rows) sum += r;
    return sum;
  };
  const std::vector<std::vector<uint32_t>> ranges = {
      rows_of(0, 32), rows_of(32, 64), rows_of(16, 48)};

  for (uint64_t budget : {uint64_t{1}, uint64_t{0}}) {
    for (int round = 0; round < 40; ++round) {
      db.SetMemoryBudget(1);  // chunk 0 starts evicted
      db.SetMemoryBudget(budget);
      ChunkPin held = t->PinChunk(0, ColumnSet{});
      std::atomic<int> ready{0};
      auto wait_all = [&ready] {
        ready.fetch_add(1);
        while (ready.load() < 4) std::this_thread::yield();
      };
      std::vector<int64_t> sums(ranges.size(), 0);
      std::vector<std::thread> readers;
      for (size_t k = 0; k < ranges.size(); ++k) {
        readers.emplace_back([&, k] {
          wait_all();
          ChunkPin pin = t->PinChunk(0, ColumnSet{0, 2}, ranges[k]);
          for (uint32_t r : ranges[k]) {
            sums[k] += pin->column(0).fixed_data()[r];
            EXPECT_EQ(pin->column(2).double_data()[r], r * 0.5);
          }
        });
      }
      std::thread unpinner([&] {
        wait_all();
        held.Reset();
      });
      for (std::thread& r : readers) r.join();
      unpinner.join();
      for (size_t k = 0; k < ranges.size(); ++k) {
        EXPECT_EQ(sums[k], sum_of(ranges[k])) << "range " << k;
      }
      const BufferPool::Stats st = pool->stats();
      EXPECT_EQ(st.resident_bytes, ResidentColumnBytes(*t))
          << "budget " << budget << " round " << round;
      if (budget == 1) {
        EXPECT_EQ(st.resident_bytes, 0u);
      } else {
        EXPECT_TRUE(t->chunk(0).column_resident(0));
        EXPECT_TRUE(t->chunk(0).column_resident(2));
        EXPECT_EQ(t->chunk(0).block_mask(1), 0u);
      }
    }
  }
}

}  // namespace
}  // namespace conquer
