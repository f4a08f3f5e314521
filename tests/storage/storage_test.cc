// Unit tests for the storage layer: schemas, tables, indexes, statistics,
// and the catalog.

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "storage/table.h"

namespace conquer {
namespace {

TableSchema MakeSchema() {
  return TableSchema("t", {{"a", DataType::kInt64},
                           {"b", DataType::kString},
                           {"c", DataType::kDouble}});
}

/// Probes every chunk of `table`'s index on `column` for `key` under scan
/// equality, returning global positions (mirrors IndexScanOp's walk).
std::vector<size_t> IndexLookup(const Table& table, size_t column,
                                const Value& key) {
  const ChunkIndex* idx = table.GetIndex(column);
  EXPECT_NE(idx, nullptr);
  bool unsupported = false;
  const ChunkIndex::ProbeSpec probe =
      idx->ResolveProbe(key, table.dictionary(column), &unsupported);
  EXPECT_FALSE(unsupported);
  std::vector<size_t> out;
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    std::vector<uint32_t> local;
    table.IndexProbeChunk(column, {probe}, c, &local, nullptr);
    for (uint32_t r : local) out.push_back(c * table.chunk_capacity() + r);
  }
  return out;
}

TEST(SchemaTest, ColumnLookupIsCaseInsensitive) {
  TableSchema schema = MakeSchema();
  EXPECT_EQ(schema.FindColumn("a"), 0u);
  EXPECT_EQ(schema.FindColumn("B"), 1u);
  EXPECT_FALSE(schema.FindColumn("z").has_value());
  auto idx = schema.GetColumnIndex("C");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 2u);
  EXPECT_EQ(schema.GetColumnIndex("nope").status().code(),
            StatusCode::kNotFound);
}

TEST(SchemaTest, AddColumnRejectsDuplicates) {
  TableSchema schema = MakeSchema();
  EXPECT_TRUE(schema.AddColumn({"d", DataType::kBool}).ok());
  EXPECT_EQ(schema.AddColumn({"A", DataType::kBool}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(schema.num_columns(), 4u);
}

TEST(TableTest, InsertValidatesArityAndTypes) {
  Table table(MakeSchema());
  EXPECT_TRUE(
      table.Insert({Value::Int(1), Value::String("x"), Value::Double(0.5)})
          .ok());
  // Wrong arity.
  EXPECT_EQ(table.Insert({Value::Int(1)}).code(),
            StatusCode::kInvalidArgument);
  // Wrong type.
  EXPECT_EQ(
      table.Insert({Value::String("no"), Value::String("x"), Value::Double(1)})
          .code(),
      StatusCode::kTypeError);
  EXPECT_EQ(table.num_rows(), 1u);
}

TEST(TableTest, IntWidensIntoDoubleColumns) {
  Table table(MakeSchema());
  ASSERT_TRUE(
      table.Insert({Value::Int(1), Value::String("x"), Value::Int(7)}).ok());
  EXPECT_EQ(table.row(0)[2].type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(table.row(0)[2].double_value(), 7.0);
}

TEST(TableTest, NullsFitAnyColumn) {
  Table table(MakeSchema());
  EXPECT_TRUE(
      table.Insert({Value::Null(), Value::Null(), Value::Null()}).ok());
}

TEST(TableTest, IndexLookupFindsAllMatches) {
  Table table(MakeSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table
                    .Insert({Value::Int(i % 3), Value::String("r"),
                             Value::Double(i)})
                    .ok());
  }
  ASSERT_TRUE(table.CreateIndex("a").ok());
  const ChunkIndex* idx = table.GetIndex(0);
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->approx_num_keys(), 3u);
  EXPECT_EQ(IndexLookup(table, 0, Value::Int(0)).size(), 4u);  // 0,3,6,9
  EXPECT_EQ(IndexLookup(table, 0, Value::Int(2)).size(), 3u);
  EXPECT_TRUE(IndexLookup(table, 0, Value::Int(99)).empty());
}

TEST(TableTest, IndexIsMaintainedByLaterInserts) {
  Table table(MakeSchema());
  ASSERT_TRUE(table.CreateIndex("a").ok());
  ASSERT_TRUE(
      table.Insert({Value::Int(5), Value::String("x"), Value::Double(0)})
          .ok());
  EXPECT_EQ(IndexLookup(table, 0, Value::Int(5)).size(), 1u);
}

TEST(TableTest, CreateIndexOnUnknownColumnFails) {
  Table table(MakeSchema());
  EXPECT_EQ(table.CreateIndex("zzz").code(), StatusCode::kNotFound);
}

TEST(TableTest, StatisticsCountDistinctAndNulls) {
  Table table(MakeSchema());
  ASSERT_TRUE(
      table.Insert({Value::Int(1), Value::String("x"), Value::Null()}).ok());
  ASSERT_TRUE(
      table.Insert({Value::Int(1), Value::String("y"), Value::Null()}).ok());
  ASSERT_TRUE(
      table.Insert({Value::Int(2), Value::String("x"), Value::Double(1)})
          .ok());
  table.AnalyzeStatistics();
  EXPECT_EQ(table.column_stats(0).num_distinct, 2u);
  EXPECT_EQ(table.column_stats(1).num_distinct, 2u);
  EXPECT_EQ(table.column_stats(2).num_nulls, 2u);
  EXPECT_EQ(table.column_stats(2).num_distinct, 1u);
}

TEST(TableTest, ClearResetsEverything) {
  Table table(MakeSchema());
  ASSERT_TRUE(
      table.Insert({Value::Int(1), Value::String("x"), Value::Double(0)})
          .ok());
  ASSERT_TRUE(table.CreateIndex("a").ok());
  table.Clear();
  EXPECT_EQ(table.num_rows(), 0u);
  EXPECT_EQ(table.GetIndex(0), nullptr);
}

TEST(CatalogTest, CreateLookupDrop) {
  Catalog catalog;
  auto t = catalog.CreateTable(MakeSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(catalog.HasTable("T"));  // case-insensitive
  EXPECT_TRUE(catalog.GetTable("t").ok());
  EXPECT_EQ(catalog.GetTable("u").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.CreateTable(MakeSchema()).status().code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(catalog.DropTable("t").ok());
  EXPECT_FALSE(catalog.HasTable("t"));
  EXPECT_EQ(catalog.DropTable("t").code(), StatusCode::kNotFound);
}

TEST(CatalogTest, TableNamesPreserveCreationOrder) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(TableSchema("zeta", {{"x", DataType::kInt64}}))
                  .ok());
  ASSERT_TRUE(
      catalog.CreateTable(TableSchema("alpha", {{"x", DataType::kInt64}}))
          .ok());
  auto names = catalog.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "zeta");
  EXPECT_EQ(names[1], "alpha");
}

}  // namespace
}  // namespace conquer
