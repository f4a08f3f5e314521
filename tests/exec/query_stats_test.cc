// Tests for executor observability: per-operator metrics, QueryStats phase
// accounting, and the EXPLAIN / EXPLAIN ANALYZE surface.

#include "exec/query_stats.h"

#include <gtest/gtest.h>

#include "engine/database.h"
#include "tests/engine/explain_text.h"

namespace conquer {
namespace {

class QueryStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable(TableSchema("item", {{"id", DataType::kInt64},
                                                     {"grp", DataType::kInt64},
                                                     {"price", DataType::kDouble}}))
                    .ok());
    for (int64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(db_.Insert("item", {Value::Int(i), Value::Int(i % 4),
                                      Value::Double(1.5 * i)})
                      .ok());
    }
    ASSERT_TRUE(db_.CreateTable(TableSchema("grp", {{"g", DataType::kInt64},
                                                    {"name", DataType::kString}}))
                    .ok());
    for (int64_t g = 0; g < 4; ++g) {
      ASSERT_TRUE(db_.Insert("grp", {Value::Int(g),
                                     Value::String("g" + std::to_string(g))})
                      .ok());
    }
  }
  Database db_;
};

TEST_F(QueryStatsTest, PhaseTimingsAndRowCountFilled) {
  QueryStats stats;
  auto rs = db_.Query("select id from item where grp = 1", &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(stats.rows_returned, 5u);
  EXPECT_GT(stats.parse_seconds, 0.0);
  EXPECT_GT(stats.bind_seconds, 0.0);
  EXPECT_GT(stats.plan_seconds, 0.0);
  EXPECT_GT(stats.exec_seconds, 0.0);
  EXPECT_GE(stats.total_seconds(), stats.exec_seconds);
  EXPECT_FALSE(stats.plan.description.empty());
}

TEST_F(QueryStatsTest, RootMetricsMatchResultSet) {
  QueryStats stats;
  auto rs = db_.Query("select id from item where grp = 1", &stats);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(stats.plan.metrics.rows_produced, rs->num_rows());
  // The root is drained batch-at-a-time: 5 rows fit one NextBatch(), which
  // the end-of-stream pull follows.
  EXPECT_EQ(stats.plan.metrics.batches, 2u);
}

TEST_F(QueryStatsTest, HashJoinReportsBuildAndProbeSides) {
  QueryStats stats;
  auto rs = db_.Query(
      "select i.id, g.name from item i, grp g where i.grp = g.g", &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 20u);

  // Find the join node anywhere in the tree.
  const PlanNodeStats* join = nullptr;
  auto find = [&](const PlanNodeStats& node, auto&& self) -> void {
    if (node.description.rfind("HashJoin", 0) == 0) join = &node;
    for (const auto& c : node.children) self(c, self);
  };
  find(stats.plan, find);
  ASSERT_NE(join, nullptr) << stats.ToString();
  // One side (4 or 20 rows) was built, the other probed, whichever order
  // the planner picked.
  EXPECT_EQ(join->metrics.build_rows + join->metrics.probe_rows, 24u);
  EXPECT_GT(join->metrics.build_rows, 0u);
  EXPECT_GT(join->metrics.probe_rows, 0u);
  EXPECT_EQ(join->metrics.hash_entries, join->metrics.build_rows);
  EXPECT_GT(join->metrics.peak_memory_bytes, 0u);
  EXPECT_GT(stats.peak_memory_bytes, 0u);
}

TEST_F(QueryStatsTest, AggregateCountersAndPrefixLookups) {
  QueryStats stats;
  auto rs = db_.Query(
      "select grp, sum(price) from item group by grp", &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 4u);
  EXPECT_EQ(stats.OperatorRows("HashAggregate"), 4u);
  EXPECT_GE(stats.OperatorSelfSeconds("HashAggregate"), 0.0);
  double share = stats.OperatorShare("HashAggregate");
  EXPECT_GE(share, 0.0);
  EXPECT_LE(share, 1.0);
  EXPECT_EQ(stats.OperatorRows("NoSuchOperator"), 0u);
  EXPECT_EQ(stats.OperatorSelfSeconds("NoSuchOperator"), 0.0);

  const PlanNodeStats* agg = nullptr;
  auto find = [&](const PlanNodeStats& node, auto&& self) -> void {
    if (node.description.rfind("HashAggregate", 0) == 0) agg = &node;
    for (const auto& c : node.children) self(c, self);
  };
  find(stats.plan, find);
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->metrics.hash_entries, 4u);
  EXPECT_GT(agg->metrics.peak_memory_bytes, 0u);
}

TEST_F(QueryStatsTest, SelfTimeNeverExceedsTotal) {
  QueryStats stats;
  ASSERT_TRUE(
      db_.Query("select i.id, g.name from item i, grp g where i.grp = g.g "
                "order by i.id",
                &stats)
          .ok());
  auto check = [&](const PlanNodeStats& node, auto&& self) -> void {
    EXPECT_GE(node.self_seconds, 0.0);
    EXPECT_LE(node.self_seconds, node.metrics.total_seconds() + 1e-9)
        << node.description;
    for (const auto& c : node.children) self(c, self);
  };
  check(stats.plan, check);
}

TEST_F(QueryStatsTest, ExplainReturnsPlanText) {
  auto rs = db_.Query("explain select id from item where grp = 1");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_columns(), 1u);
  EXPECT_EQ(rs->column_names[0], "QUERY PLAN");
  ASSERT_GT(rs->num_rows(), 0u);
  // Plain EXPLAIN shows the plan but no runtime counters.
  bool saw_scan = false;
  for (const Row& row : rs->rows) {
    const std::string& line = row[0].string_value();
    EXPECT_EQ(line.find("rows="), std::string::npos) << line;
    if (line.find("SeqScan(item") != std::string::npos) saw_scan = true;
  }
  EXPECT_TRUE(saw_scan);
}

TEST_F(QueryStatsTest, ExplainAnalyzeExecutesAndAnnotates) {
  QueryStats stats;
  auto rs = db_.Query(
      "explain analyze select grp, sum(price) from item group by grp",
      &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_columns(), 1u);
  EXPECT_EQ(rs->column_names[0], "QUERY PLAN");
  // The query really ran: the caller-supplied stats carry the counters.
  EXPECT_EQ(stats.rows_returned, 4u);
  EXPECT_EQ(stats.OperatorRows("HashAggregate"), 4u);

  std::string all;
  for (const Row& row : rs->rows) {
    all += row[0].string_value();
    all += '\n';
  }
  EXPECT_NE(all.find("HashAggregate"), std::string::npos) << all;
  EXPECT_NE(all.find("rows=4"), std::string::npos) << all;
  EXPECT_NE(all.find("self="), std::string::npos) << all;
  EXPECT_NE(all.find("phases:"), std::string::npos) << all;
}

TEST_F(QueryStatsTest, ExplainAnalyzeStringHelper) {
  auto text =
      ExplainText(db_, "explain analyze select id from item where grp = 1");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("rows=5"), std::string::npos) << *text;
}

TEST_F(QueryStatsTest, MetricsResetBetweenRuns) {
  // Re-running a query must not accumulate counters from the prior run.
  QueryStats first, second;
  ASSERT_TRUE(db_.Query("select id from item", &first).ok());
  ASSERT_TRUE(db_.Query("select id from item", &second).ok());
  EXPECT_EQ(first.plan.metrics.rows_produced,
            second.plan.metrics.rows_produced);
  EXPECT_EQ(first.plan.metrics.batches, second.plan.metrics.batches);
}

}  // namespace
}  // namespace conquer
