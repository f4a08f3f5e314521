// Advanced engine tests: self-joins, plan-independence of results,
// multi-way joins under different physical choices, and stress cases.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/database.h"

namespace conquer {
namespace {

class EngineAdvancedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable(TableSchema("edge", {{"src", DataType::kInt64},
                                                     {"dst", DataType::kInt64}}))
                    .ok());
    // A small directed graph: 0->1->2->3->0 plus chords.
    int edges[][2] = {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {1, 3}};
    for (auto& e : edges) {
      ASSERT_TRUE(db_.Insert("edge", {Value::Int(e[0]), Value::Int(e[1])})
                      .ok());
    }
  }
  Database db_;
};

TEST_F(EngineAdvancedTest, SelfJoinFindsTwoHopPaths) {
  auto rs = db_.Query(
      "select a.src, b.dst from edge a, edge b where a.dst = b.src");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  // Two-hop paths by hand: 0->1->{2,3}, 1->2->3, 2->3->0, 3->0->{1,2},
  // 0->2->3, 1->3->0 = 8.
  EXPECT_EQ(rs->num_rows(), 8u);
}

TEST_F(EngineAdvancedTest, TripleSelfJoin) {
  auto rs = db_.Query(
      "select a.src from edge a, edge b, edge c "
      "where a.dst = b.src and b.dst = c.src and c.dst = a.src");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  // Directed triangles: 0->1->3->0 and 0->2->3->0, each counted once per
  // rotation of the starting edge.
  EXPECT_EQ(rs->num_rows(), 6u);  // 2 triangles x 3 rotations
}

// LIKE on non-string columns must be rejected at bind time with a type
// error, never reach the evaluator.
TEST_F(EngineAdvancedTest, LikeOnNonStringColumnsIsTypeError) {
  auto rs = db_.Query("select src from edge where src like '1%'");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kTypeError);

  rs = db_.Query("select src from edge where src like dst");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kTypeError);
}

class PlanEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(404);
    ASSERT_TRUE(db_.CreateTable(TableSchema("r", {{"k", DataType::kInt64},
                                                  {"a", DataType::kInt64}}))
                    .ok());
    ASSERT_TRUE(db_.CreateTable(TableSchema("s", {{"k", DataType::kInt64},
                                                  {"b", DataType::kInt64}}))
                    .ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db_.Insert("r", {Value::Int(rng.Uniform(0, 30)),
                                   Value::Int(rng.Uniform(0, 9))})
                      .ok());
      ASSERT_TRUE(db_.Insert("s", {Value::Int(rng.Uniform(0, 30)),
                                   Value::Int(rng.Uniform(0, 9))})
                      .ok());
    }
  }
  Database db_;
};

// Same query, three physical configurations (no metadata, stats only,
// stats + indexes) must return identical result multisets.
TEST_F(PlanEquivalenceTest, ResultsIndependentOfPhysicalChoices) {
  const char* sql =
      "select r.k, r.a, s.b from r, s "
      "where r.k = s.k and r.a > 2 and s.b < 8 order by r.k, r.a, s.b";
  auto baseline = db_.Query(sql);
  ASSERT_TRUE(baseline.ok());

  ASSERT_TRUE(db_.AnalyzeAll().ok());
  auto with_stats = db_.Query(sql);
  ASSERT_TRUE(with_stats.ok());

  ASSERT_TRUE(db_.CreateIndex("r", "k").ok());
  ASSERT_TRUE(db_.CreateIndex("s", "k").ok());
  auto with_indexes = db_.Query(sql);
  ASSERT_TRUE(with_indexes.ok());

  ASSERT_EQ(baseline->num_rows(), with_stats->num_rows());
  ASSERT_EQ(baseline->num_rows(), with_indexes->num_rows());
  for (size_t i = 0; i < baseline->num_rows(); ++i) {
    for (size_t c = 0; c < baseline->num_columns(); ++c) {
      ASSERT_EQ(baseline->rows[i][c].TotalCompare(with_stats->rows[i][c]), 0);
      ASSERT_EQ(baseline->rows[i][c].TotalCompare(with_indexes->rows[i][c]),
                0);
    }
  }
}

// The ORDER BY total output is stable: ties keep input order.
TEST_F(PlanEquivalenceTest, SortIsDeterministic) {
  const char* sql = "select r.a from r order by r.a";
  auto rs1 = db_.Query(sql);
  auto rs2 = db_.Query(sql);
  ASSERT_TRUE(rs1.ok() && rs2.ok());
  ASSERT_EQ(rs1->num_rows(), rs2->num_rows());
  for (size_t i = 1; i < rs1->num_rows(); ++i) {
    ASSERT_LE(rs1->rows[i - 1][0].int_value(), rs1->rows[i][0].int_value());
  }
}

TEST_F(PlanEquivalenceTest, WideJoinStress) {
  // 200 x 200 rows with ~6.5 matches per key: the join result is big but
  // bounded; verify the count against a nested-loop recomputation.
  auto rs = db_.Query("select r.k from r, s where r.k = s.k");
  ASSERT_TRUE(rs.ok());
  auto r = db_.GetTable("r");
  auto s = db_.GetTable("s");
  ASSERT_TRUE(r.ok() && s.ok());
  size_t expected = 0;
  for (size_t i = 0; i < (*r)->num_rows(); ++i) {
    for (size_t j = 0; j < (*s)->num_rows(); ++j) {
      if ((*r)->ValueAt(i, 0).int_value() == (*s)->ValueAt(j, 0).int_value()) {
        ++expected;
      }
    }
  }
  EXPECT_EQ(rs->num_rows(), expected);
}

TEST_F(PlanEquivalenceTest, GroupByMatchesManualAggregation) {
  auto rs = db_.Query(
      "select a, count(*), sum(k), min(k), max(k) from r group by a "
      "order by a");
  ASSERT_TRUE(rs.ok());
  auto r = db_.GetTable("r");
  ASSERT_TRUE(r.ok());
  std::map<int64_t, std::tuple<int64_t, int64_t, int64_t, int64_t>> manual;
  for (size_t i = 0; i < (*r)->num_rows(); ++i) {
    const Row row = (*r)->row(i);
    auto& [count, sum, mn, mx] = manual.try_emplace(
        row[1].int_value(), 0, 0, INT64_MAX, INT64_MIN).first->second;
    ++count;
    sum += row[0].int_value();
    mn = std::min(mn, row[0].int_value());
    mx = std::max(mx, row[0].int_value());
  }
  ASSERT_EQ(rs->num_rows(), manual.size());
  size_t i = 0;
  for (const auto& [a, agg] : manual) {
    EXPECT_EQ(rs->rows[i][0].int_value(), a);
    EXPECT_EQ(rs->rows[i][1].int_value(), std::get<0>(agg));
    EXPECT_EQ(rs->rows[i][2].int_value(), std::get<1>(agg));
    EXPECT_EQ(rs->rows[i][3].int_value(), std::get<2>(agg));
    EXPECT_EQ(rs->rows[i][4].int_value(), std::get<3>(agg));
    ++i;
  }
}

// Randomized parser robustness: arbitrary garbled inputs must error out
// cleanly, never crash.
class ParserRobustnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserRobustnessTest, GarbledInputFailsGracefully) {
  Rng rng(GetParam());
  const char* fragments[] = {"select", "from",  "where", "group by",
                             "order by", "and", "or",    "not",
                             "t",      "a",     "b",     "*",
                             ",",      "(",     ")",     "=",
                             "<",      "'x'",   "1",     "2.5",
                             "sum",    "count", "like",  "between",
                             "in",     "null",  "date",  "limit"};
  Database db;
  (void)db.CreateTable(TableSchema("t", {{"a", DataType::kInt64},
                                         {"b", DataType::kString}}));
  for (int trial = 0; trial < 50; ++trial) {
    std::string sql;
    int len = static_cast<int>(rng.Uniform(1, 15));
    for (int i = 0; i < len; ++i) {
      sql += fragments[rng.Uniform(0, 27)];
      sql += ' ';
    }
    auto rs = db.Query(sql);  // must not crash; errors are fine
    if (rs.ok()) {
      EXPECT_GE(rs->num_columns(), 0u);  // touch the result
    } else {
      EXPECT_FALSE(rs.status().message().empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustnessTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace conquer
