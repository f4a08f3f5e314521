// Tests of database save/load round-trips.

#include "engine/persist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/clean_engine.h"
#include "prob/incremental.h"
#include "storage/segment.h"
#include "tests/core/paper_fixtures.h"

namespace conquer {
namespace {

class PersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("conquer_persist_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(PersistTest, RoundTripsTablesAndDirtySchema) {
  Database db;
  DirtySchema dirty;
  LoadFigure2(&db, &dirty);

  ASSERT_TRUE(SaveDatabase(db, dir_.string(), &dirty).ok());
  DirtySchema dirty2;
  auto loaded = LoadDatabase(dir_.string(), &dirty2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Same tables, same rows.
  for (const std::string& name : db.catalog().TableNames()) {
    auto orig = db.GetTable(name);
    auto copy = (*loaded)->GetTable(name);
    ASSERT_TRUE(orig.ok() && copy.ok()) << name;
    ASSERT_EQ((*orig)->num_rows(), (*copy)->num_rows()) << name;
    for (size_t r = 0; r < (*orig)->num_rows(); ++r) {
      for (size_t c = 0; c < (*orig)->schema().num_columns(); ++c) {
        ASSERT_EQ((*orig)->row(r)[c].TotalCompare((*copy)->row(r)[c]), 0)
            << name << " row " << r << " col " << c;
      }
    }
  }
  // Dirty annotations survive.
  const DirtyTableInfo* info = dirty2.Find("orders");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->id_column, "id");
  EXPECT_EQ(info->prob_column, "prob");
  ASSERT_EQ(info->foreign_ids.size(), 1u);
  EXPECT_EQ(info->foreign_ids[0].referenced_table, "customer");

  // Clean answers over the reloaded database match the original.
  CleanAnswerEngine before(&db, &dirty);
  CleanAnswerEngine after(loaded->get(), &dirty2);
  const char* q =
      "select o.id, c.id from orders o, customer c "
      "where o.cidfk = c.id and c.balance > 10000";
  auto a1 = before.Query(q);
  auto a2 = after.Query(q);
  ASSERT_TRUE(a1.ok() && a2.ok());
  ASSERT_EQ(a1->answers.size(), a2->answers.size());
  for (const CleanAnswer& a : a1->answers) {
    EXPECT_NEAR(a2->ProbabilityOf(a.row), a.probability, 1e-9);
  }
}

TEST_F(PersistTest, NullsSurviveRoundTrip) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("t", {{"a", DataType::kInt64},
                                               {"b", DataType::kString}}))
                  .ok());
  ASSERT_TRUE(db.Insert("t", {Value::Null(), Value::String("\\N")}).ok());
  ASSERT_TRUE(db.Insert("t", {Value::Int(1), Value::Null()}).ok());
  ASSERT_TRUE(db.Insert("t", {Value::Int(2), Value::String("")}).ok());
  ASSERT_TRUE(SaveDatabase(db, dir_.string()).ok());
  auto loaded = LoadDatabase(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto t = (*loaded)->GetTable("t");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE((*t)->row(0)[0].is_null());
  EXPECT_TRUE((*t)->row(1)[1].is_null());
  EXPECT_EQ((*t)->row(1)[0].int_value(), 1);
  // The binary format keeps NULL distinct from every string value: a
  // literal "\N" and the empty string both survive verbatim.
  ASSERT_FALSE((*t)->row(0)[1].is_null());
  EXPECT_EQ((*t)->row(0)[1].string_value(), "\\N");
  ASSERT_FALSE((*t)->row(2)[1].is_null());
  EXPECT_EQ((*t)->row(2)[1].string_value(), "");
}

uint64_t DoubleBits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

TEST_F(PersistTest, DoublesAreBitExact) {
  // Values chosen to break lossy %.6g printing: a non-terminating binary
  // expansion, a denormal, signed zero, and the classic 0.1 + 0.2.
  const double values[] = {0.1 + 0.2, 1.0 / 3.0, 5e-324, -0.0,
                           6.02214076e23, -1.7976931348623157e308};
  Database db;
  ASSERT_TRUE(
      db.CreateTable(TableSchema("t", {{"x", DataType::kDouble}})).ok());
  for (double d : values) {
    ASSERT_TRUE(db.Insert("t", {Value::Double(d)}).ok());
  }
  ASSERT_TRUE(SaveDatabase(db, dir_.string()).ok());
  auto loaded = LoadDatabase(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto t = (*loaded)->GetTable("t");
  ASSERT_TRUE(t.ok());
  for (size_t r = 0; r < std::size(values); ++r) {
    EXPECT_EQ(DoubleBits((*t)->row(r)[0].double_value()),
              DoubleBits(values[r]))
        << "row " << r;
  }
}

TEST_F(PersistTest, FailedSaveLeavesEveryTableLoadable) {
  Database db;
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_TRUE(
        db.CreateTable(TableSchema(name, {{"x", DataType::kInt64}})).ok());
    ASSERT_TRUE(db.Insert(name, {Value::Int(1)}).ok());
  }
  ASSERT_TRUE(SaveDatabase(db, dir_.string()).ok());
  // A directory in the way of b's temp segment fails b's write, after a's
  // segment was already replaced.
  ASSERT_TRUE(std::filesystem::create_directory(dir_ / "b.seg.tmp"));
  Status failed = SaveDatabase(db, dir_.string());
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("b.seg.tmp"), std::string::npos)
      << failed.ToString();

  // The previous manifest survives and still names all three tables.
  auto loaded = LoadDatabase(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->catalog().TableNames().size(), 3u);
  for (const char* name : {"a", "b", "c"}) {
    auto rs = (*loaded)->Query(std::string("select x from ") + name);
    ASSERT_TRUE(rs.ok()) << name << ": " << rs.status().ToString();
    ASSERT_EQ(rs->num_rows(), 1u) << name;
    EXPECT_EQ(rs->rows[0][0].int_value(), 1) << name;
  }
}

/// Bit patterns of SUM(prob) per identifier — the probability fidelity
/// witness: any rounding anywhere in the save/load path changes some bit.
std::vector<uint64_t> SumProbBits(Database* db, const std::string& table) {
  auto rs = db->Query("select id, sum(prob) from " + table +
                      " group by id order by id");
  if (!rs.ok()) return {};
  std::vector<uint64_t> bits;
  for (const Row& row : rs->rows) {
    bits.push_back(DoubleBits(row[1].double_value()));
  }
  return bits;
}

TEST_F(PersistTest, PostWriteRoundTripPreservesVisibleRowsAndStamps) {
  Database db;
  DirtySchema dirty;
  LoadFigure2(&db, &dirty);

  // Drive the MVCC write path so saved chunks carry real version stamps:
  // an insert, an update and a delete against the dirty orders table.
  ASSERT_TRUE(db.ExecuteWrite("insert into orders values ('o100', '99', "
                              "'c2', 7, 0.625)")
                  .ok());
  ASSERT_TRUE(
      db.ExecuteWrite("update orders set cidfk = 'c1' where id = 'o100'")
          .ok());
  ASSERT_TRUE(db.ExecuteWrite("delete from customer where id = 'c3'").ok());

  auto before_rows = db.Query("select * from orders order by id, cidfk");
  ASSERT_TRUE(before_rows.ok());
  std::vector<uint64_t> before_bits = SumProbBits(&db, "orders");
  ASSERT_FALSE(before_bits.empty());

  ASSERT_TRUE(SaveDatabase(db, dir_.string(), &dirty).ok());
  auto loaded = LoadDatabase(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Visible rows identical (dead versions must stay dead after reload).
  auto after_rows = (*loaded)->Query("select * from orders order by id, cidfk");
  ASSERT_TRUE(after_rows.ok());
  ASSERT_EQ(before_rows->rows.size(), after_rows->rows.size());
  for (size_t r = 0; r < before_rows->rows.size(); ++r) {
    for (size_t c = 0; c < before_rows->rows[r].size(); ++c) {
      EXPECT_EQ(before_rows->rows[r][c].TotalCompare(after_rows->rows[r][c]),
                0)
          << "row " << r << " col " << c;
    }
  }
  auto deleted = (*loaded)->Query("select * from customer where id = 'c3'");
  ASSERT_TRUE(deleted.ok());
  EXPECT_TRUE(deleted->rows.empty());

  // SUM(prob) bitwise identical.
  EXPECT_EQ(SumProbBits(loaded->get(), "orders"), before_bits);

  // The committed-version watermark survives, so the next write cannot
  // collide with pre-save version stamps.
  auto orig = db.GetTable("orders");
  auto copy = (*loaded)->GetTable("orders");
  ASSERT_TRUE(orig.ok() && copy.ok());
  EXPECT_EQ((*orig)->committed_version(), (*copy)->committed_version());
  // Physical storage still holds the dead versions (binary keeps history).
  EXPECT_EQ((*orig)->num_rows(), (*copy)->num_rows());
}

TEST_F(PersistTest, BinaryLoadUnderTinyBudgetMatchesUnlimited) {
  Database db;
  DirtySchema dirty;
  LoadFigure2(&db, &dirty);
  std::vector<uint64_t> before_bits = SumProbBits(&db, "orders");
  ASSERT_TRUE(SaveDatabase(db, dir_.string(), &dirty).ok());

  auto loaded = LoadDatabase(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // A 1-byte budget forces every chunk to fault in per pin and be evicted
  // right after; answers must not change.
  (*loaded)->SetMemoryBudget(1);
  EXPECT_EQ(SumProbBits(loaded->get(), "orders"), before_bits);
  EXPECT_GT((*loaded)->buffer_pool()->stats().chunks_evicted, 0u);
}

TEST_F(PersistTest, DatesAndDoublesRoundTrip) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("t", {{"d", DataType::kDate},
                                               {"x", DataType::kDouble}}))
                  .ok());
  auto day = ParseDate("1995-03-15");
  ASSERT_TRUE(day.ok());
  ASSERT_TRUE(db.Insert("t", {Value::Date(*day), Value::Double(0.125)}).ok());
  ASSERT_TRUE(SaveDatabase(db, dir_.string()).ok());
  auto loaded = LoadDatabase(dir_.string());
  ASSERT_TRUE(loaded.ok());
  auto t = (*loaded)->GetTable("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->row(0)[0].ToString(), "1995-03-15");
  EXPECT_DOUBLE_EQ((*t)->row(0)[1].double_value(), 0.125);
}

TEST_F(PersistTest, SaveOverLoadedDirectoryPreservesEvictedChunks) {
  // The normal persist workflow: load a database, work on it, save it back
  // to the SAME directory. The loaded table's evicted chunks are backed by
  // the very .seg files the save replaces; the save must go through a temp
  // file + rename so those payloads are never truncated out from under the
  // pin loop (and a failed save can never destroy the previous segment).
  {
    Database db;
    DirtySchema dirty;
    LoadFigure2(&db, &dirty);
    ASSERT_TRUE(SaveDatabase(db, dir_.string(), &dirty).ok());
  }
  auto loaded = LoadDatabase(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Tiny budget: every chunk stays evicted-clean, reading from dir_'s files.
  (*loaded)->SetMemoryBudget(1);
  std::vector<uint64_t> before_bits = SumProbBits(loaded->get(), "orders");
  ASSERT_FALSE(before_bits.empty());
  // Dirty one table so the save mixes resident-dirty and evicted chunks.
  ASSERT_TRUE((*loaded)
                  ->ExecuteWrite("update customer set balance = 123456 "
                                 "where id = 'c1'")
                  .ok());
  auto customer_before =
      (*loaded)->Query("select * from customer order by id");
  ASSERT_TRUE(customer_before.ok());

  ASSERT_TRUE(SaveDatabase(**loaded, dir_.string()).ok());

  // The still-open database keeps answering from the re-pointed backings...
  EXPECT_EQ(SumProbBits(loaded->get(), "orders"), before_bits);
  auto customer_after = (*loaded)->Query("select * from customer order by id");
  ASSERT_TRUE(customer_after.ok());
  ASSERT_EQ(customer_before->rows.size(), customer_after->rows.size());
  // ...and a fresh load sees the saved state, write included.
  auto reloaded = LoadDatabase(dir_.string());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(SumProbBits(reloaded->get(), "orders"), before_bits);
  auto balance = (*reloaded)->Query(
      "select balance from customer where id = 'c1'");
  ASSERT_TRUE(balance.ok());
  // Figure 2's customer has two candidate tuples for c1; the update hit both.
  ASSERT_EQ(balance->rows.size(), 2u);
  for (const Row& r : balance->rows) {
    EXPECT_EQ(r[0].int_value(), 123456);
  }
}

TEST_F(PersistTest, RepeatedSavesToSameDirectoryStayStable) {
  {
    Database db;
    ASSERT_TRUE(
        db.CreateTable(TableSchema("t", {{"a", DataType::kInt64}})).ok());
    for (int64_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(db.Insert("t", {Value::Int(i)}).ok());
    }
    (*db.GetTable("t"))->Rechunk(64);
    ASSERT_TRUE(SaveDatabase(db, dir_.string()).ok());
  }
  auto loaded = LoadDatabase(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  (*loaded)->SetMemoryBudget(1);
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(SaveDatabase(**loaded, dir_.string()).ok())
        << "cycle " << cycle;
    auto rs = (*loaded)->Query("select sum(a) from t");
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->rows[0][0].int_value(), 299 * 300 / 2) << "cycle " << cycle;
  }
  EXPECT_FALSE(std::filesystem::exists(dir_ / "t.seg.tmp"));
}

TEST_F(PersistTest, CorruptFooterBoundsRejectedWithoutCrash) {
  Database db;
  ASSERT_TRUE(
      db.CreateTable(TableSchema("t", {{"a", DataType::kInt64}})).ok());
  ASSERT_TRUE(db.Insert("t", {Value::Int(1)}).ok());
  ASSERT_TRUE(SaveDatabase(db, dir_.string()).ok());

  // Patch the footer's meta offset/length so their sum wraps around u64: a
  // summed bounds check would pass and the loader would then try to
  // allocate a near-2^64-byte string. Must come back as a clean status.
  const std::filesystem::path seg = dir_ / "t.seg";
  const auto size = std::filesystem::file_size(seg);
  ASSERT_GT(size, 24u);
  std::fstream f(seg, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  const uint64_t meta_offset = 200;
  const uint64_t meta_length = UINT64_MAX - 150;  // offset + length wraps
  f.seekp(static_cast<std::streamoff>(size - 24));
  f.write(reinterpret_cast<const char*>(&meta_offset), 8);
  f.write(reinterpret_cast<const char*>(&meta_length), 8);
  f.close();

  auto loaded = LoadDatabase(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PersistTest, CorruptColumnPayloadIsAnError) {
  Table t(TableSchema("t", {{"a", DataType::kInt64},
                            {"s", DataType::kString},
                            {"p", DataType::kDouble}}),
          64);
  for (int64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(t.Insert({Value::Int(i),
                          Value::String("s" + std::to_string(i % 7)),
                          Value::Double(static_cast<double>(i) * 0.25)})
                    .ok());
  }
  std::filesystem::create_directories(dir_);
  const std::string path = (dir_ / "t.seg").string();
  ASSERT_TRUE(WriteTableSegment(&t, path).ok());

  // The one chunk's payload follows the 8-byte magic: the row count, then
  // per column a tag, 64 values and 64 null bytes.
  constexpr uint64_t kOffset = 8;
  constexpr uint64_t kLength = 4 + (1 + 64 * 9) + (1 + 64 * 5) + (1 + 64 * 9);
  auto fault = [&](size_t rows, uint64_t length) {
    auto file = SegmentFile::OpenReadOnly(path);
    EXPECT_TRUE(file.ok());
    Chunk ch(&t.schema(), 64);
    SegmentCodec::InitEvicted(&ch, rows, {*file, kOffset, length});
    Status st = SegmentCodec::FaultInAll(&ch);
    if (st.ok()) {
      EXPECT_TRUE(ch.payload_resident());
      EXPECT_EQ(ch.column(0).fixed_data()[9], 9);
      EXPECT_EQ(ch.column(2).double_data()[9], 9 * 0.25);
    }
    return st;
  };
  ASSERT_TRUE(fault(64, kLength).ok());
  // A truncated extent, or one whose length does not fit the row count.
  EXPECT_EQ(fault(64, kLength - 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fault(63, kLength).code(), StatusCode::kInvalidArgument);

  // A wrong column tag: column s's tag sits after the row count and a's
  // values and nulls.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    const char bogus = 7;
    f.seekp(static_cast<std::streamoff>(kOffset + 4 + (1 + 64 * 9)));
    f.write(&bogus, 1);
  }
  EXPECT_EQ(fault(64, kLength).code(), StatusCode::kInvalidArgument);
  Table reloaded(t.schema(), 64);
  const Status load = LoadTableSegment(&reloaded, path);
  EXPECT_EQ(load.code(), StatusCode::kInvalidArgument) << load.ToString();
}

TEST_F(PersistTest, MissingDirectoryReportsNotFound) {
  auto loaded = LoadDatabase((dir_ / "nope").string());
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(PersistTest, SaveWithoutDirtySchemaOmitsFile) {
  Database db;
  ASSERT_TRUE(
      db.CreateTable(TableSchema("t", {{"a", DataType::kInt64}})).ok());
  ASSERT_TRUE(SaveDatabase(db, dir_.string()).ok());
  EXPECT_FALSE(std::filesystem::exists(dir_ / "dirty_schema.txt"));
  DirtySchema dirty;
  auto loaded = LoadDatabase(dir_.string(), &dirty);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(dirty.tables().empty());
}

/// Every visible row of both Figure-2 tables in a fixed order: the state a
/// save must capture whole.
std::vector<Row> VisibleState(Database* db) {
  std::vector<Row> rows;
  for (const char* q : {"select * from customer order by id, custid",
                        "select * from orders order by id, orderid"}) {
    auto rs = db->Query(q);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    if (!rs.ok()) continue;
    for (Row& row : rs->rows) rows.push_back(std::move(row));
  }
  return rows;
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (a[r][c].TotalCompare(b[r][c]) != 0) return false;
    }
  }
  return true;
}

// SaveDatabase holds a read slot for its whole walk, so a write racing it
// lands wholly before or wholly after the saved snapshot: every reloaded
// directory equals the state after some prefix of the write stream, and
// incremental maintenance keeps each of its clusters summing to 1.
TEST_F(PersistTest, SaveRacingAWriterCapturesOneCommittedState) {
  std::vector<std::string> writes;
  for (int k = 0; k < 12; ++k) {
    writes.push_back("insert into customer values ('c1', 'x" +
                     std::to_string(k) + "', 'Jon', " +
                     std::to_string(1000 * k) + ", 0.5)");
    if (k % 3 == 2) {
      writes.push_back("delete from customer where custid = 'x" +
                       std::to_string(k - 1) + "'");
    }
    if (k % 4 == 1) {
      writes.push_back("update orders set quantity = " + std::to_string(k) +
                       " where id = 'o2'");
    }
  }

  // Serial replay: the state after every prefix, the empty one included.
  std::vector<std::vector<Row>> states;
  {
    Database replay;
    DirtySchema dirty;
    LoadFigure2(&replay, &dirty);
    ASSERT_TRUE(InstallIncrementalMaintenance(&replay, &dirty).ok());
    states.push_back(VisibleState(&replay));
    for (const std::string& w : writes) {
      ASSERT_TRUE(replay.ExecuteWrite(w).ok()) << w;
      states.push_back(VisibleState(&replay));
    }
  }

  Database db;
  DirtySchema dirty;
  LoadFigure2(&db, &dirty);
  ASSERT_TRUE(InstallIncrementalMaintenance(&db, &dirty).ok());
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (const std::string& w : writes) {
      EXPECT_TRUE(db.ExecuteWrite(w).ok()) << w;
    }
    done.store(true);
  });
  std::vector<std::string> saved;
  for (int i = 0; i < 4 || !done.load(); ++i) {
    saved.push_back((dir_ / ("save" + std::to_string(i))).string());
    EXPECT_TRUE(SaveDatabase(db, saved.back(), &dirty).ok());
  }
  writer.join();

  for (const std::string& dir : saved) {
    auto loaded = LoadDatabase(dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const std::vector<Row> got = VisibleState(loaded->get());
    EXPECT_TRUE(std::any_of(
        states.begin(), states.end(),
        [&](const std::vector<Row>& state) { return SameRows(got, state); }))
        << dir << " holds no committed state of the write stream";
    for (const char* table : {"customer", "orders"}) {
      auto sums = (*loaded)->Query(std::string("select id, sum(prob) from ") +
                                   table + " group by id");
      ASSERT_TRUE(sums.ok()) << sums.status().ToString();
      for (const Row& row : sums->rows) {
        EXPECT_NEAR(row[1].double_value(), 1.0, 1e-9)
            << dir << ": " << table << " cluster " << row[0].ToString();
      }
    }
  }
}

}  // namespace
}  // namespace conquer
