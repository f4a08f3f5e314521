// UPDATE and DELETE find their rows as a scan does: zone maps skip chunks,
// visibility comes from the resident version stamps and FilterChunkSelection
// evaluates the WHERE over the pinned chunk. These tests pin the contract:
// the rows matched are exactly the visible rows where a row-at-a-time
// EvalPredicate over the materialized row is TRUE, in ascending position
// order, whatever the chunk geometry.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "exec/eval.h"
#include "plan/binder.h"
#include "sql/parser.h"
#include "storage/table.h"
#include "types/value.h"

namespace conquer {
namespace {

constexpr const char* kWords[] = {"ann", "bob", "cid", "dee", "eve"};

/// Sixty rows with distinct keys, repeated strings, doubles and small
/// integers (NULLs sprinkled in), rechunked to `capacity` and analyzed so
/// every chunk's key column is flagged all-distinct. Three writes follow:
/// an INSERT appends a duplicate key into the tail chunk right after the
/// flags were computed, and a DELETE and an UPDATE leave versions dead at
/// the latest snapshot.
std::unique_ptr<Database> MakeDatabase(size_t capacity) {
  auto db = std::make_unique<Database>();
  EXPECT_TRUE(db->CreateTable(TableSchema("w", {{"k", DataType::kInt64},
                                               {"s", DataType::kString},
                                               {"x", DataType::kDouble},
                                               {"n", DataType::kInt64}}))
                  .ok());
  std::vector<Row> rows;
  for (int i = 0; i < 60; ++i) {
    rows.push_back(
        {Value::Int(i),
         i % 7 == 0 ? Value::Null() : Value::String(kWords[i % 5]),
         i % 11 == 0 ? Value::Null() : Value::Double((i % 10) * 0.5),
         i % 5 == 0 ? Value::Null() : Value::Int(i % 4)});
  }
  EXPECT_TRUE(db->InsertMany("w", std::move(rows)).ok());
  auto table = db->GetTable("w");
  EXPECT_TRUE(table.ok());
  (*table)->Rechunk(capacity);
  EXPECT_TRUE(db->Analyze("w").ok());
  for (const char* sql : {"insert into w values (3, 'eve', 2.5, null)",
                          "delete from w where k = 5",
                          "update w set s = 'ann' where k = 8"}) {
    EXPECT_TRUE(db->ExecuteWrite(sql).ok()) << sql;
  }
  return db;
}

/// Positions visible at the committed version whose materialized row
/// passes `where`, by EvalPredicate one row at a time.
std::vector<size_t> ReferenceMatches(const Database& db, const Table& table,
                                     const std::string& where) {
  auto parsed = Parser::ParseStatement("delete from w where " + where);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto bound = Binder(&db.catalog()).BindDelete(std::move(parsed->del));
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  std::vector<size_t> out;
  for (size_t pos : table.VisibleRowPositions(table.committed_version())) {
    auto pass = EvalPredicate(*bound->where, table.row(pos));
    EXPECT_TRUE(pass.ok()) << pass.status().ToString();
    if (pass.ok() && *pass) out.push_back(pos);
  }
  return out;
}

/// Rows visible at `before` and not at `after`, ascending.
std::vector<size_t> Superseded(const Table& table, size_t num_rows,
                               uint64_t before, uint64_t after) {
  std::vector<size_t> out;
  for (size_t pos = 0; pos < num_rows; ++pos) {
    if (table.RowVisibleAt(pos, before) && !table.RowVisibleAt(pos, after)) {
      out.push_back(pos);
    }
  }
  return out;
}

const char* const kPredicates[] = {
    "k = 3",                    // a duplicate appended after the flags
    "k = 3.0",                  // INT64 column, DOUBLE literal
    "k < 2.5",
    "k >= 10 and k < 20",
    "k = 5",                    // dead at the snapshot
    "k = 8",                    // old version dead, new one live
    "x = 2",                    // DOUBLE column, INT64 literal
    "x > 1.5 and x <= 3",
    "n = 2",                    // NULLs never match
    "n <> 2",
    "n is null",
    "s = 'ann'",
    "s = 'zzz'",                // absent from the dictionary
    "s > 'bob'",
    "s like '%e%'",
    "s = 'bob' or n = 1",
    "k = 59 or x < 0.5",
    "not (k < 50)",
    "k = n",                    // column against column
    "k > 1000",                 // every chunk skipped by its zone map
};

class WriteMatchTest : public ::testing::TestWithParam<size_t> {};

TEST_P(WriteMatchTest, DeleteMatchesEvalPredicateReference) {
  for (const char* where : kPredicates) {
    SCOPED_TRACE(where);
    auto db = MakeDatabase(GetParam());
    Table* table = *db->GetTable("w");
    const std::vector<size_t> expected = ReferenceMatches(*db, *table, where);
    const size_t num_rows = table->num_rows();
    const uint64_t before = table->committed_version();
    auto rs = db->ExecuteWrite(std::string("delete from w where ") + where);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->rows[0][0].int_value(),
              static_cast<int64_t>(expected.size()));
    EXPECT_EQ(table->num_rows(), num_rows);
    EXPECT_EQ(Superseded(*table, num_rows, before, table->committed_version()),
              expected);
  }
}

TEST_P(WriteMatchTest, UpdateMatchesEvalPredicateReferenceInOrder) {
  for (const char* where : kPredicates) {
    SCOPED_TRACE(where);
    auto db = MakeDatabase(GetParam());
    Table* table = *db->GetTable("w");
    const std::vector<size_t> expected = ReferenceMatches(*db, *table, where);
    const size_t num_rows = table->num_rows();
    const uint64_t before = table->committed_version();
    auto rs =
        db->ExecuteWrite(std::string("update w set n = n where ") + where);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(Superseded(*table, num_rows, before, table->committed_version()),
              expected);
    // The new versions are appended in match order: the i-th is a copy of
    // the i-th matched row.
    ASSERT_EQ(table->num_rows(), num_rows + expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(table->row(num_rows + i), table->row(expected[i]))
          << "appended version " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ChunkCapacities, WriteMatchTest,
                         ::testing::Values(1, 7, 1024));

}  // namespace
}  // namespace conquer
