// Tests for the chunked columnar storage layer: chunk layout, per-chunk
// zone maps, in-place updates through Table::SetValue (which must keep
// dictionaries, indexes and zone maps coherent), and Rechunk.

#include "storage/chunk.h"

#include <gtest/gtest.h>

#include "storage/table.h"

namespace conquer {
namespace {

TableSchema MakeSchema() {
  return TableSchema("t", {{"a", DataType::kInt64},
                           {"b", DataType::kString},
                           {"c", DataType::kDouble}});
}

Table MakeSmallChunkTable(size_t chunk_capacity, int rows) {
  Table table(MakeSchema(), chunk_capacity);
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(table
                    .Insert({Value::Int(i), Value::String("s" + std::to_string(i % 3)),
                             Value::Double(i * 0.5)})
                    .ok());
  }
  return table;
}

TEST(ChunkTest, RowsSplitAcrossChunksAtCapacity) {
  Table table = MakeSmallChunkTable(/*chunk_capacity=*/4, /*rows=*/10);
  EXPECT_EQ(table.num_rows(), 10u);
  ASSERT_EQ(table.num_chunks(), 3u);
  EXPECT_EQ(table.chunk(0).num_rows(), 4u);
  EXPECT_EQ(table.chunk(1).num_rows(), 4u);
  EXPECT_EQ(table.chunk(2).num_rows(), 2u);
  // Global positions address across chunk boundaries.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(table.ValueAt(i, 0).int_value(), i);
    EXPECT_DOUBLE_EQ(table.ValueAt(i, 2).double_value(), i * 0.5);
  }
}

TEST(ChunkTest, ZoneMapsTrackMinMaxAndNulls) {
  Table table(MakeSchema(), /*chunk_capacity=*/4);
  ASSERT_TRUE(table.Insert({Value::Int(7), Value::Null(), Value::Double(1)}).ok());
  ASSERT_TRUE(table.Insert({Value::Int(-2), Value::String("x"), Value::Null()}).ok());
  ASSERT_TRUE(table.Insert({Value::Int(5), Value::String("a"), Value::Double(3)}).ok());
  const Chunk& ch = table.chunk(0);
  EXPECT_EQ(ch.zone(0).min.int_value(), -2);
  EXPECT_EQ(ch.zone(0).max.int_value(), 7);
  EXPECT_EQ(ch.zone(0).null_count, 0u);
  EXPECT_EQ(ch.zone(1).null_count, 1u);
  EXPECT_EQ(ch.zone(1).min.string_value(), "a");
  EXPECT_EQ(ch.zone(1).max.string_value(), "x");
  EXPECT_EQ(ch.zone(2).null_count, 1u);
}

TEST(ChunkTest, AllNullColumnHasNoZoneValues) {
  Table table(MakeSchema(), /*chunk_capacity=*/4);
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::Null(), Value::Null()}).ok());
  ASSERT_TRUE(table.Insert({Value::Int(2), Value::Null(), Value::Null()}).ok());
  const ZoneMap& z = table.chunk(0).zone(1);
  EXPECT_FALSE(z.has_values());
  EXPECT_EQ(z.null_count, 2u);
}

TEST(ChunkTest, StringsComeBackInterned) {
  Table table = MakeSmallChunkTable(/*chunk_capacity=*/4, /*rows=*/6);
  Value a = table.ValueAt(0, 1);
  Value b = table.ValueAt(3, 1);  // same "s0", different chunk position
  ASSERT_TRUE(a.is_interned());
  ASSERT_TRUE(b.is_interned());
  EXPECT_EQ(a.interned_ptr(), b.interned_ptr());
}

// The mutable_row() footgun this layer replaced: an in-place write must
// re-intern strings, keep zone maps conservative, and invalidate indexes —
// a stale index or zone map would silently drop rows from later queries.
TEST(ChunkTest, SetValueReinternsStrings) {
  Table table = MakeSmallChunkTable(/*chunk_capacity=*/4, /*rows=*/2);
  table.SetValue(0, 1, Value::String("fresh"));
  Value v = table.ValueAt(0, 1);
  ASSERT_TRUE(v.is_interned());
  EXPECT_EQ(v.string_value(), "fresh");
  // The dictionary knows the new string, so interned-compare still works.
  const StringDictionary* dict = table.dictionary(1);
  ASSERT_NE(dict, nullptr);
  EXPECT_NE(dict->Find("fresh"), StringDictionary::kInvalidCode);
}

TEST(ChunkTest, SetValueWidensZoneMapAndCountsNulls) {
  Table table = MakeSmallChunkTable(/*chunk_capacity=*/4, /*rows=*/3);
  // Values 0,1,2 -> zone [0,2]. Write 50 and a NULL.
  table.SetValue(1, 0, Value::Int(50));
  table.SetValue(2, 0, Value::Null());
  const ZoneMap& z = table.chunk(0).zone(0);
  EXPECT_LE(z.min.int_value(), 0);
  EXPECT_GE(z.max.int_value(), 50);
  EXPECT_EQ(z.null_count, 1u);
  // Overwriting the NULL with a value restores the exact count.
  table.SetValue(2, 0, Value::Int(1));
  EXPECT_EQ(table.chunk(0).zone(0).null_count, 0u);
}

TEST(ChunkTest, SetValueInvalidatesOnlyTheTouchedChunkSlice) {
  Table table = MakeSmallChunkTable(/*chunk_capacity=*/4, /*rows=*/8);
  ASSERT_TRUE(table.CreateIndex("a").ok());
  const ChunkIndex* idx = table.GetIndex(0);
  ASSERT_NE(idx, nullptr);
  ASSERT_TRUE(idx->ChunkValid(0));
  ASSERT_TRUE(idx->ChunkValid(1));
  table.SetValue(2, 0, Value::Int(99));
  // The index survives the in-place write: only the written chunk's slice
  // is invalidated (lazily rebuilt at the next probe); the other chunk —
  // and the index as a whole — stay live.
  EXPECT_NE(table.GetIndex(0), nullptr);
  EXPECT_FALSE(idx->ChunkValid(0));
  EXPECT_TRUE(idx->ChunkValid(1));
  // A probe through the table rebuilds the stale slice and sees the write.
  bool unsupported = false;
  const ChunkIndex::ProbeSpec probe =
      idx->ResolveProbe(Value::Int(99), table.dictionary(0), &unsupported);
  ASSERT_FALSE(unsupported);
  std::vector<uint32_t> hits;
  table.IndexProbeChunk(0, {probe}, 0, &hits, nullptr);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 2u);
  EXPECT_TRUE(idx->ChunkValid(0));
}

TEST(ChunkTest, SetValueKeepsIndexOnOtherColumns) {
  Table table = MakeSmallChunkTable(/*chunk_capacity=*/4, /*rows=*/4);
  ASSERT_TRUE(table.CreateIndex("a").ok());
  table.SetValue(2, 2, Value::Double(9.0));
  EXPECT_NE(table.GetIndex(0), nullptr);
}

TEST(ChunkTest, AnalyzeStatisticsRetightensZonesAfterUpdates) {
  Table table = MakeSmallChunkTable(/*chunk_capacity=*/8, /*rows=*/4);
  table.SetValue(0, 0, Value::Int(100));  // widens zone to [0,100]
  table.SetValue(0, 0, Value::Int(2));    // zone still [0,100] (conservative)
  table.AnalyzeStatistics();
  const ZoneMap& z = table.chunk(0).zone(0);
  EXPECT_EQ(z.min.int_value(), 1);  // rows now 2,1,2,3
  EXPECT_EQ(z.max.int_value(), 3);
}

TEST(ChunkTest, RechunkPreservesRowsAndPositions) {
  Table table = MakeSmallChunkTable(/*chunk_capacity=*/64, /*rows=*/10);
  auto all_rows = [&table] {
    std::vector<Row> rows;
    for (size_t i = 0; i < table.num_rows(); ++i) rows.push_back(table.row(i));
    return rows;
  };
  std::vector<Row> before = all_rows();
  table.Rechunk(3);
  EXPECT_EQ(table.num_chunks(), 4u);
  EXPECT_EQ(table.chunk_capacity(), 3u);
  std::vector<Row> after = all_rows();
  ASSERT_EQ(before.size(), after.size());
  for (size_t r = 0; r < before.size(); ++r) {
    ASSERT_EQ(before[r].size(), after[r].size());
    for (size_t c = 0; c < before[r].size(); ++c) {
      EXPECT_EQ(before[r][c].TotalCompare(after[r][c]), 0)
          << "row " << r << " col " << c;
    }
  }
  // Zone maps were rebuilt per new chunk.
  EXPECT_EQ(table.chunk(3).zone(0).min.int_value(), 9);
}

TEST(ChunkTest, SingleRowChunkZones) {
  Table table = MakeSmallChunkTable(/*chunk_capacity=*/1, /*rows=*/3);
  ASSERT_EQ(table.num_chunks(), 3u);
  for (int i = 0; i < 3; ++i) {
    const ZoneMap& z = table.chunk(i).zone(0);
    EXPECT_EQ(z.min.int_value(), i);
    EXPECT_EQ(z.max.int_value(), i);
  }
}

TEST(ChunkTest, ClearResetsChunksAndDictionaries) {
  Table table = MakeSmallChunkTable(/*chunk_capacity=*/4, /*rows=*/6);
  table.Clear();
  EXPECT_EQ(table.num_rows(), 0u);
  EXPECT_EQ(table.num_chunks(), 0u);
  ASSERT_TRUE(
      table.Insert({Value::Int(1), Value::String("zz"), Value::Double(0)})
          .ok());
  EXPECT_EQ(table.ValueAt(0, 1).string_value(), "zz");
}

}  // namespace
}  // namespace conquer
