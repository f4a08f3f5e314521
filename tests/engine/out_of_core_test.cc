// Out-of-core execution tests: lazy segment-backed loads, zone-map pruning
// that must not fault I/O, and the EXPLAIN ANALYZE I/O counters.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/dirty_schema.h"
#include "engine/database.h"
#include "engine/persist.h"
#include "exec/query_stats.h"
#include "storage/table.h"
#include "tests/engine/explain_text.h"

namespace conquer {
namespace {

struct IoTotals {
  uint64_t loaded = 0;
  uint64_t skipped = 0;
  uint64_t columns = 0;
  uint64_t bytes = 0;
};

void SumIo(const PlanNodeStats& node, IoTotals* t) {
  t->loaded += node.metrics.chunks_loaded;
  t->skipped += node.metrics.chunks_skipped;
  t->columns += node.metrics.columns_loaded;
  t->bytes += node.metrics.bytes_read;
  for (const PlanNodeStats& c : node.children) SumIo(c, t);
}

/// Chunks loaded by the plan nodes whose description starts with `prefix`.
uint64_t LoadsOf(const PlanNodeStats& node, const std::string& prefix) {
  uint64_t loaded = node.description.rfind(prefix, 0) == 0
                        ? node.metrics.chunks_loaded
                        : 0;
  for (const PlanNodeStats& c : node.children) loaded += LoadsOf(c, prefix);
  return loaded;
}

class OutOfCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("conquer_ooc_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()));
    std::filesystem::remove_all(dir_);

    // 16 chunks of 64 rows, `a` ascending so zone maps give perfect pruning.
    Database db;
    TableSchema schema("t", {{"a", DataType::kInt64},
                             {"s", DataType::kString},
                             {"p", DataType::kDouble}});
    ASSERT_TRUE(db.CreateTable(schema).ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 16 * 64; ++i) {
      rows.push_back({Value::Int(i), Value::String("v" + std::to_string(i)),
                      Value::Double(static_cast<double>(i))});
    }
    ASSERT_TRUE(db.InsertMany("t", std::move(rows)).ok());
    (*db.GetTable("t"))->Rechunk(64);
    ASSERT_TRUE(SaveDatabase(db, dir_.string()).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(OutOfCoreTest, ZoneMapSkippedChunksCostZeroReads) {
  auto loaded = LoadDatabase(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Database* db = loaded->get();
  // Keep every chunk evicted between pins: each load is observable.
  db->SetMemoryBudget(1);

  // Only rows 960..1023 qualify — chunk 15. The other 15 chunks must be
  // pruned by their resident zone maps without touching the segment file.
  QueryStats stats;
  auto rs = db->Query("select sum(a) from t where a >= 960", &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0].int_value(), (960 + 1023) * 64 / 2);

  IoTotals io;
  SumIo(stats.plan, &io);
  EXPECT_EQ(io.skipped, 15u);
  EXPECT_EQ(io.loaded, 1u) << "a zone-map-skipped chunk faulted I/O";
}

TEST_F(OutOfCoreTest, FullScanLoadsEveryChunkExactlyOnce) {
  auto loaded = LoadDatabase(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Database* db = loaded->get();
  db->SetMemoryBudget(1);

  QueryStats stats;
  auto rs = db->Query("select sum(a) from t", &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0].int_value(), (16 * 64 - 1) * (16 * 64) / 2);

  IoTotals io;
  SumIo(stats.plan, &io);
  EXPECT_EQ(io.loaded, 16u);
}

// Each window of chunks is filtered under pins the scan keeps for emission,
// so even when every chunk is evicted as soon as it is unpinned, a filtered
// scan faults each chunk exactly once at any degree.
TEST_F(OutOfCoreTest, FilteredScanLoadsEveryChunkOnceAtAnyDegree) {
  auto loaded = LoadDatabase(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Database* db = loaded->get();
  db->SetThreads(3);
  db->mutable_exec_context()->morsel_size = 16;
  db->SetMemoryBudget(1);

  QueryStats stats;
  auto rs = db->Query("select sum(a) from t where a >= 0", &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0].int_value(), (16 * 64 - 1) * (16 * 64) / 2);

  IoTotals io;
  SumIo(stats.plan, &io);
  EXPECT_EQ(io.loaded, 16u);
}

TEST_F(OutOfCoreTest, ExplainAnalyzeRendersIoCounters) {
  auto loaded = LoadDatabase(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Database* db = loaded->get();
  db->SetMemoryBudget(1);

  auto plan = ExplainText(
      *db, "explain analyze select sum(a) from t where a >= 960");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("chunks_loaded=1"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("chunks_skipped=15"), std::string::npos) << *plan;
}

TEST_F(OutOfCoreTest, IndexScanPinsOnlyMatchingChunks) {
  auto loaded = LoadDatabase(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Database* db = loaded->get();
  db->SetMemoryBudget(1);
  ASSERT_TRUE(db->CreateIndex("t", "a").ok());
  ASSERT_TRUE(db->Analyze("t").ok());
  // Index build and stats faulted chunks; evict them again so the probe's
  // own I/O is what we measure.
  db->SetMemoryBudget(1);

  QueryStats stats;
  auto rs = db->Query("select s from t where a = 100", &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].string_value(), "v100");

  IoTotals io;
  SumIo(stats.plan, &io);
  // One matching position in chunk 1: at most that single chunk loads (zero
  // if the planner fell back to a pruned seq scan that pinned one chunk too).
  EXPECT_LE(io.loaded, 1u);
}

TEST_F(OutOfCoreTest, IndexSeededJoinLoadsOnlyChunksWithVisibleMatches) {
  auto loaded = LoadDatabase(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Database* db = loaded->get();
  ASSERT_TRUE(db->CreateIndex("t", "a").ok());
  // A tiny outer side whose keys fall in t's chunks 1 (100, 101), 10 (700)
  // and 12 (800), plus one key matching nothing. Deleting t's row 800
  // leaves chunk 12 an index candidate but no visible match.
  ASSERT_TRUE(
      db->CreateTable(TableSchema("o", {{"k", DataType::kInt64}})).ok());
  for (int64_t k : {100, 101, 700, 800, 5000}) {
    ASSERT_TRUE(db->Insert("o", {Value::Int(k)}).ok());
  }
  ASSERT_TRUE(db->ExecuteWrite("delete from t where a = 800").ok());
  ASSERT_TRUE(db->AnalyzeAll().ok());
  const std::string sql = "select o.k, t.s from o, t where t.a = o.k";
  auto plan = ExplainText(*db, "explain " + sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // The index path: t is probed through its index, never scanned in full.
  EXPECT_EQ(plan->find("SeqScan(t"), std::string::npos) << *plan;

  // Runs `sql` with every chunk evicted between pins; returns the rows and
  // the chunks loaded on t's side of the join (the outer table spills too).
  auto run = [&](bool index_scan, uint64_t* t_loads) {
    db->mutable_exec_context()->enable_index_scan = index_scan;
    db->SetMemoryBudget(1);
    QueryStats stats;
    auto rs = db->Query(sql, &stats);
    db->mutable_exec_context()->enable_index_scan = true;
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    IoTotals io;
    SumIo(stats.plan, &io);
    *t_loads = io.loaded - LoadsOf(stats.plan, "SeqScan(o");
    return rs.ok() ? rs->rows : std::vector<Row>{};
  };
  uint64_t seeded_loads = 0;
  uint64_t scanned_loads = 0;
  std::vector<Row> seeded = run(true, &seeded_loads);
  std::vector<Row> scanned = run(false, &scanned_loads);
  EXPECT_EQ(seeded_loads, 2u) << "chunks 1 and 10 hold the visible matches";
  EXPECT_EQ(scanned_loads, 16u);
  ASSERT_EQ(seeded.size(), 3u);
  ASSERT_EQ(scanned.size(), seeded.size());
  for (size_t r = 0; r < seeded.size(); ++r) {
    for (size_t c = 0; c < seeded[r].size(); ++c) {
      EXPECT_EQ(seeded[r][c].TotalCompare(scanned[r][c]), 0)
          << "row " << r << " col " << c;
    }
  }
}

TEST_F(OutOfCoreTest, SelectiveProbeUnderTightBudgetFaultsOnlyMatchingChunks) {
  // Fresh database with *shuffled* keys: every chunk's zone map spans
  // nearly the full key range, so zone pruning is useless and only the
  // per-chunk index decides which chunks can hold matches.
  const std::string dir = dir_.string() + "_scattered";
  std::filesystem::remove_all(dir);
  {
    Database db;
    TableSchema schema("s",
                       {{"k", DataType::kInt64}, {"v", DataType::kString}});
    ASSERT_TRUE(db.CreateTable(schema).ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 16 * 64; ++i) {
      // 617 and 1021 are coprime: i -> (617 i) mod 1021 scatters keys, so
      // chunk zones are useless but each key lands in very few chunks.
      rows.push_back({Value::Int((i * 617) % 1021),
                      Value::String("r" + std::to_string(i))});
    }
    ASSERT_TRUE(db.InsertMany("s", std::move(rows)).ok());
    (*db.GetTable("s"))->Rechunk(64);
    ASSERT_TRUE(SaveDatabase(db, dir).ok());
  }
  auto loaded = LoadDatabase(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Database* db = loaded->get();
  ASSERT_TRUE(db->CreateIndex("s", "k").ok());
  ASSERT_TRUE(db->Analyze("s").ok());
  // ~10% of the ~20KB payload: a chunk or two resident at a time. Index
  // slices and zone maps stay resident regardless (never faulted).
  db->SetMemoryBudget(2 * 1024);

  // Key 440 = (617*100) mod 1021 occurs exactly once, at row 100 (chunk 1).
  auto plan = ExplainText(*db, "explain select v from s where k = 440");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;

  QueryStats stats;
  auto rs = db->Query("select v from s where k = 440", &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].string_value(), "r100");
  IoTotals io;
  SumIo(stats.plan, &io);
  EXPECT_LE(io.loaded, 1u) << "index probe faulted a non-matching chunk";

  // Contrast: with index access disabled the same query must fall back to
  // scanning — and fault essentially the whole table through the budget.
  db->mutable_exec_context()->enable_index_scan = false;
  QueryStats scan_stats;
  auto rs2 = db->Query("select v from s where k = 440", &scan_stats);
  db->mutable_exec_context()->enable_index_scan = true;
  ASSERT_TRUE(rs2.ok()) << rs2.status().ToString();
  ASSERT_EQ(rs2->rows.size(), 1u);
  EXPECT_EQ(rs2->rows[0][0].string_value(), "r100");
  IoTotals scan_io;
  SumIo(scan_stats.plan, &scan_io);
  EXPECT_GE(scan_io.loaded + scan_io.skipped, 14u);
  std::filesystem::remove_all(dir);
}

// A scalar-fallback predicate (`a + 1 = ...` has no column-vs-literal
// kernel) reads its column through the scan's pin: each chunk loads the
// predicate's column and the materialized one, never the third.
TEST_F(OutOfCoreTest, ScalarFilterLoadsOnlyPredicateAndOutputColumns) {
  auto loaded = LoadDatabase(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Database* db = loaded->get();
  db->SetMemoryBudget(1);

  QueryStats stats;
  auto rs = db->Query("select p from t where a + 1 = 701", &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].double_value(), 700.0);

  IoTotals io;
  SumIo(stats.plan, &io);
  EXPECT_EQ(io.loaded, 16u);
  EXPECT_EQ(io.columns, 2 * 16u) << "the scan read a column it never uses";
  EXPECT_EQ(io.bytes, 2 * 16 * (1 + 64 * (8 + 1)));
}

// A lineitem-shaped table (24 columns, string id, probability column): a
// point lookup faults only the columns it reads, and returns the rows the
// in-memory database returned.
TEST_F(OutOfCoreTest, PointLookupOnWideTableLoadsOnlyItsColumns) {
  const std::string dir = dir_.string() + "_wide";
  std::filesystem::remove_all(dir);
  const std::string sql = "select id, c1, c6, prob from w where id = 'k100'";
  std::vector<Row> expect;
  {
    Database db;
    std::vector<ColumnDef> cols = {{"id", DataType::kString}};
    const DataType kinds[] = {DataType::kInt64, DataType::kDouble,
                              DataType::kString, DataType::kDate};
    for (int c = 0; c < 22; ++c) {
      cols.push_back({"c" + std::to_string(c), kinds[c % 4]});
    }
    cols.push_back({"prob", DataType::kDouble});
    ASSERT_TRUE(db.CreateTable(TableSchema("w", cols)).ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 4 * 64; ++i) {
      Row row = {Value::String("k" + std::to_string(i))};
      for (int c = 0; c < 22; ++c) {
        switch (kinds[c % 4]) {
          case DataType::kInt64:
            row.push_back(Value::Int(i * 31 + c));
            break;
          case DataType::kDouble:
            row.push_back(Value::Double(static_cast<double>(i) / (c + 1)));
            break;
          case DataType::kString:
            row.push_back(Value::String("v" + std::to_string((i + c) % 13)));
            break;
          default:
            row.push_back(Value::Date(9000 + i + c));
            break;
        }
      }
      row.push_back(Value::Double(1.0 / static_cast<double>(1 + i % 3)));
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE(db.InsertMany("w", std::move(rows)).ok());
    (*db.GetTable("w"))->Rechunk(64);
    auto rs = db.Query(sql);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    expect = rs->rows;
    ASSERT_TRUE(SaveDatabase(db, dir).ok());
  }
  ASSERT_EQ(expect.size(), 1u);
  auto loaded = LoadDatabase(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Database* db = loaded->get();
  db->SetMemoryBudget(1);
  // The index build and the statistics read one column per pin.
  const BufferPool::Stats before_index = db->buffer_pool()->stats();
  ASSERT_TRUE(db->CreateIndex("w", "id").ok());
  const BufferPool::Stats after_index = db->buffer_pool()->stats();
  EXPECT_EQ(after_index.columns_loaded - before_index.columns_loaded, 4u);
  ASSERT_TRUE(db->Analyze("w").ok());
  EXPECT_EQ(db->buffer_pool()->stats().columns_loaded -
                after_index.columns_loaded,
            24u * 4u);
  db->SetMemoryBudget(1);

  QueryStats stats;
  auto plan = ExplainText(*db, "explain analyze " + sql, &stats);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("IndexScan(w"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("chunks_loaded=1 columns_loaded=4 "), std::string::npos)
      << *plan;
  IoTotals io;
  SumIo(stats.plan, &io);
  // id (string), c1 (double), c6 (string), prob (double): each column's
  // tag and the one block that holds k100 (a 64-row chunk's blocks are
  // one row each).
  EXPECT_EQ(io.bytes, 2 * (1 + 1 * (4 + 1)) + 2 * (1 + 1 * (8 + 1)));

  auto rs = db->Query(sql);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), expect.size());
  for (size_t c = 0; c < expect[0].size(); ++c) {
    EXPECT_EQ(rs->rows[0][c].TotalCompare(expect[0][c]), 0) << "col " << c;
  }
  std::filesystem::remove_all(dir);
}

// Row loops read through their RowCursor's pin: walking the clusters of a
// 3-chunk table takes one pin per chunk, not one per row.
TEST_F(OutOfCoreTest, ClusterWalkPinsOncePerChunk) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("d", {{"id", DataType::kString},
                                               {"prob", DataType::kDouble}}))
                  .ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 3 * 64; ++i) {
    rows.push_back({Value::String("c" + std::to_string(i / 4)),
                    Value::Double(0.25)});
  }
  ASSERT_TRUE(db.InsertMany("d", std::move(rows)).ok());
  Table* t = *db.GetTable("d");
  t->Rechunk(64);
  const DirtyTableInfo info{"d", "id", "prob", {}};

  const uint64_t pins = db.buffer_pool()->stats().pins;
  auto clusters = CollectVisibleClusters(*t, info, t->committed_version());
  ASSERT_TRUE(clusters.ok()) << clusters.status().ToString();
  EXPECT_EQ(clusters->members.size(), 48u);
  EXPECT_EQ(db.buffer_pool()->stats().pins - pins, 3u);
}


// A table of two 4,096-row chunks, whose blocks are 64 rows: an indexed
// string id, an int, two doubles and a probability column. Saved to `dir`
// after recording the in-memory answers of `queries`.
void SaveBlockTable(const std::string& dir,
                    const std::vector<std::string>& queries,
                    std::vector<std::vector<Row>>* answers) {
  std::filesystem::remove_all(dir);
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("w", {{"id", DataType::kString},
                                               {"a", DataType::kInt64},
                                               {"q", DataType::kDouble},
                                               {"x", DataType::kDouble},
                                               {"prob", DataType::kDouble}}))
                  .ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 2 * 4096; ++i) {
    rows.push_back({Value::String("k" + std::to_string(i)), Value::Int(i * 3),
                    Value::Double(static_cast<double>(i) / 7),
                    Value::Double(static_cast<double>(i % 11)),
                    Value::Double(1.0 / static_cast<double>(1 + i % 4))});
  }
  ASSERT_TRUE(db.InsertMany("w", std::move(rows)).ok());
  (*db.GetTable("w"))->Rechunk(4096);
  for (const std::string& sql : queries) {
    auto rs = db.Query(sql);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    answers->push_back(rs->rows);
  }
  ASSERT_TRUE(SaveDatabase(db, dir).ok());
}

void ExpectSameRows(const std::vector<Row>& got, const std::vector<Row>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size());
    for (size_t c = 0; c < got[r].size(); ++c) {
      EXPECT_EQ(got[r][c].TotalCompare(want[r][c]), 0)
          << "row " << r << " col " << c;
    }
  }
}

/// Loads `dir`, builds the id index and statistics, and leaves every chunk
/// evicted under an unlimited budget, so each fault stays resident.
Result<std::unique_ptr<Database>> LoadColdBlockTable(const std::string& dir) {
  CONQUER_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, LoadDatabase(dir));
  CONQUER_RETURN_NOT_OK(db->CreateIndex("w", "id"));
  CONQUER_RETURN_NOT_OK(db->Analyze("w"));
  db->SetMemoryBudget(1);
  db->SetMemoryBudget(0);
  return db;
}

/// Bytes of one column's tag and one 64-row block: id (dictionary codes),
/// and a, q, prob (8-byte values), each with its null bytes.
constexpr uint64_t kIdBlockRead = 1 + 64 * (4 + 1);
constexpr uint64_t kFixedBlockRead = 1 + 64 * (8 + 1);

// A cold IndexScan point lookup reads one block of each column it names,
// not every row of the chunk, and returns the in-memory answer.
TEST_F(OutOfCoreTest, ColdPointLookupReadsOneBlockPerColumn) {
  const std::string dir = dir_.string() + "_blocks";
  const std::string sql = "select id, a, q, prob from w where id = 'k5000'";
  std::vector<std::vector<Row>> expect;
  SaveBlockTable(dir, {sql}, &expect);
  ASSERT_EQ(expect[0].size(), 1u);
  auto loaded = LoadColdBlockTable(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Database* db = loaded->get();

  QueryStats stats;
  auto plan = ExplainText(*db, "explain analyze " + sql, &stats);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("IndexScan(w"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("chunks_loaded=1 columns_loaded=4 "), std::string::npos)
      << *plan;
  IoTotals io;
  SumIo(stats.plan, &io);
  EXPECT_EQ(io.bytes, kIdBlockRead + 3 * kFixedBlockRead);

  auto rs = db->Query(sql);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ExpectSameRows(rs->rows, expect[0]);
  std::filesystem::remove_all(dir);
}

// A full scan after a lookup into the same chunk reads only the blocks the
// lookup left behind, and both answer as the in-memory database did.
TEST_F(OutOfCoreTest, LookupThenFullScanReadsOnlyTheRemainder) {
  const std::string dir = dir_.string() + "_blocks";
  const std::string lookup = "select id, a, q, prob from w where id = 'k5000'";
  const std::string scan = "select a, q from w";
  std::vector<std::vector<Row>> expect;
  SaveBlockTable(dir, {lookup, scan}, &expect);
  auto loaded = LoadColdBlockTable(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Database* db = loaded->get();

  QueryStats lookup_stats;
  auto rs = db->Query(lookup, &lookup_stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ExpectSameRows(rs->rows, expect[0]);
  IoTotals io;
  SumIo(lookup_stats.plan, &io);
  EXPECT_EQ(io.bytes, kIdBlockRead + 3 * kFixedBlockRead);

  // a and q: every row of chunk 0 with its tags, and the 63 blocks of
  // chunk 1 the lookup did not read.
  QueryStats scan_stats;
  rs = db->Query(scan, &scan_stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ExpectSameRows(rs->rows, expect[1]);
  IoTotals scan_io;
  SumIo(scan_stats.plan, &scan_io);
  EXPECT_EQ(scan_io.loaded, 2u);
  EXPECT_EQ(scan_io.bytes, 2 * (1 + 4096 * (8 + 1)) + 2 * (63 * 64 * (8 + 1)));

  // Everything the lookup reads is resident now.
  QueryStats again;
  rs = db->Query(lookup, &again);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ExpectSameRows(rs->rows, expect[0]);
  IoTotals again_io;
  SumIo(again.plan, &again_io);
  EXPECT_EQ(again_io.loaded, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace conquer
