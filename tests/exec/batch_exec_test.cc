// Batch-at-a-time execution: results must be identical (bit-identical for
// doubles) for every batch size, including the degenerate size 1 and a
// size straddling the default capacity.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "exec/batch.h"

namespace conquer {
namespace {

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

void ExpectSameResults(const ResultSet& a, const ResultSet& b,
                       const std::string& label) {
  ASSERT_EQ(a.rows.size(), b.rows.size()) << label;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    ASSERT_EQ(a.rows[r].size(), b.rows[r].size()) << label;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      const Value& va = a.rows[r][c];
      const Value& vb = b.rows[r][c];
      if (va.type() == DataType::kDouble && vb.type() == DataType::kDouble) {
        EXPECT_EQ(Bits(va.double_value()), Bits(vb.double_value()))
            << label << ": row " << r << " col " << c;
      } else {
        EXPECT_EQ(va.TotalCompare(vb), 0)
            << label << ": row " << r << " col " << c;
      }
    }
  }
}

class BatchSizeInvarianceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable(TableSchema("fact", {{"k", DataType::kInt64},
                                                     {"s", DataType::kString},
                                                     {"v", DataType::kDouble}}))
                    .ok());
    ASSERT_TRUE(db_.CreateTable(TableSchema("dim", {{"k", DataType::kInt64},
                                                    {"w", DataType::kDouble}}))
                    .ok());
    Rng rng(99);
    std::vector<Row> fact;
    // Enough rows that a 1024-capacity pipeline needs several batches and a
    // 1025-capacity pipeline gets a short final batch.
    for (int i = 0; i < 3000; ++i) {
      fact.push_back({Value::Int(rng.Uniform(0, 49)),
                      Value::String("s" + std::to_string(rng.Uniform(0, 9))),
                      Value::Double(rng.NextDouble() - 0.5)});
    }
    ASSERT_TRUE(db_.InsertMany("fact", std::move(fact)).ok());
    std::vector<Row> dim;
    for (int i = 0; i < 50; ++i) {
      dim.push_back({Value::Int(i), Value::Double(rng.NextDouble())});
    }
    ASSERT_TRUE(db_.InsertMany("dim", std::move(dim)).ok());
  }

  ResultSet RunAt(const std::string& sql, size_t batch_size) {
    db_.mutable_exec_context()->batch_size = batch_size;
    auto rs = db_.Query(sql);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    db_.mutable_exec_context()->batch_size = RowBatch::kDefaultCapacity;
    return rs.ok() ? std::move(rs).value() : ResultSet{};
  }

  void ExpectInvariant(const std::string& sql) {
    ResultSet baseline = RunAt(sql, RowBatch::kDefaultCapacity);
    for (size_t batch_size :
         {size_t{1}, size_t{7}, RowBatch::kDefaultCapacity + 1}) {
      ExpectSameResults(baseline, RunAt(sql, batch_size),
                        sql + " @batch_size=" + std::to_string(batch_size));
    }
  }

  Database db_;
};

TEST_F(BatchSizeInvarianceTest, ScanFilterProject) {
  ExpectInvariant(
      "select k, v from fact where v > 0.25 and s <> 's3' order by k, v");
}

TEST_F(BatchSizeInvarianceTest, JoinGroupBySum) {
  ExpectInvariant(
      "select fact.s, sum(fact.v), sum(dim.w), count(*) from fact, dim "
      "where fact.k = dim.k group by fact.s order by fact.s");
}

TEST_F(BatchSizeInvarianceTest, DistinctAndLimit) {
  ExpectInvariant("select distinct s from fact order by s");
  ExpectInvariant("select k, s from fact order by k, s, v limit 10");
}

TEST_F(BatchSizeInvarianceTest, EmptyResult) {
  ExpectInvariant("select k from fact where v > 99.0");
}

}  // namespace
}  // namespace conquer
