// Unit tests for the binder and planner: resolution, type checking,
// plan shapes (pushdown, join ordering, index selection), and EXPLAIN.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "plan/binder.h"
#include "sql/parser.h"
#include "tests/engine/explain_text.h"

namespace conquer {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable(TableSchema("small", {{"k", DataType::kInt64},
                                                      {"v", DataType::kString}}))
                    .ok());
    ASSERT_TRUE(db_.CreateTable(TableSchema("big", {{"k", DataType::kInt64},
                                                    {"fk", DataType::kInt64},
                                                    {"x", DataType::kDouble}}))
                    .ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(db_.Insert("small", {Value::Int(i),
                                       Value::String("s" + std::to_string(i))})
                      .ok());
    }
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db_.Insert("big", {Value::Int(i), Value::Int(i % 5),
                                     Value::Double(i * 0.5)})
                      .ok());
    }
    ASSERT_TRUE(db_.AnalyzeAll().ok());
  }

  std::string Explain(const std::string& sql) {
    auto plan = ExplainText(db_, "explain " + sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString() << " for: " << sql;
    return plan.ok() ? *plan : "";
  }

  Database db_;
};

TEST_F(PlannerTest, SingleTablePredicateIsPushedIntoScan) {
  std::string plan = Explain("select v from small s where k = 3 and v <> 'x'");
  // No standalone Filter node: the predicate lives in the scan.
  EXPECT_EQ(plan.find("Filter("), std::string::npos) << plan;
  EXPECT_NE(plan.find("SeqScan(small"), std::string::npos) << plan;
}

TEST_F(PlannerTest, EquiJoinUsesHashJoin) {
  std::string plan =
      Explain("select s.v from small s, big b where b.fk = s.k");
  EXPECT_NE(plan.find("HashJoin"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("CrossJoin"), std::string::npos) << plan;
}

TEST_F(PlannerTest, NoJoinPredicateMeansCrossJoin) {
  std::string plan = Explain("select s.v from small s, big b");
  EXPECT_NE(plan.find("CrossJoin"), std::string::npos) << plan;
}

TEST_F(PlannerTest, IndexPointLookupIsChosenWhenAvailable) {
  ASSERT_TRUE(db_.CreateIndex("big", "k").ok());
  std::string plan = Explain("select x from big b where k = 42");
  EXPECT_NE(plan.find("IndexScan(big"), std::string::npos) << plan;
  // Without an index the same query sequential-scans.
  std::string plan2 = Explain("select x from big b where fk = 2");
  EXPECT_NE(plan2.find("SeqScan(big"), std::string::npos) << plan2;
}

TEST_F(PlannerTest, CostModelKeepsZonePrunedScanOnLowSelectivity) {
  // `fk` has 5 distinct values over 100 rows: the histogram estimates the
  // equality keeps ~20% of the table, past the index/scan crossover. Even
  // with an index available the planner must keep the sequential scan.
  ASSERT_TRUE(db_.CreateIndex("big", "fk").ok());
  std::string plan = Explain("select x from big b where fk = 2");
  EXPECT_NE(plan.find("SeqScan(big"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("IndexScan"), std::string::npos) << plan;
  // The selective, all-distinct column still flips to the index.
  ASSERT_TRUE(db_.CreateIndex("big", "k").ok());
  std::string plan2 = Explain("select x from big b where k = 42");
  EXPECT_NE(plan2.find("IndexScan(big"), std::string::npos) << plan2;
}

TEST_F(PlannerTest, TinyBuildSideSeedsTheProbeScanFromTheIndex) {
  // small (5 rows) joins big (100 rows) on big's indexed unique key: the
  // running plan is far below the crossover, so the hash join builds on
  // small and seeds its probe scan of big with small's keys instead of
  // scanning all of big.
  ASSERT_TRUE(db_.CreateIndex("big", "k").ok());
  std::string plan =
      Explain("select s.v, b.x from small s, big b where b.k = s.k");
  EXPECT_NE(plan.find("HashJoin"), std::string::npos) << plan;
  EXPECT_NE(plan.find("IndexScan(big, k = build keys"), std::string::npos)
      << plan;
  EXPECT_EQ(plan.find("SeqScan(big"), std::string::npos) << plan;
  // Without the index the same query scans big.
  std::string plan2 =
      Explain("select s.v, b.x from small s, big b where b.fk = s.k");
  EXPECT_NE(plan2.find("HashJoin"), std::string::npos) << plan2;
  EXPECT_NE(plan2.find("SeqScan(big"), std::string::npos) << plan2;
}

TEST_F(PlannerTest, NullJoinKeysMatchNothingOnEitherAccessPath) {
  // small.k holds 0..3 and NULL, big.k 0..98 and NULL: the two NULLs must
  // not pair up, whether big is scanned or seeded from its index.
  ASSERT_TRUE(db_.ExecuteWrite("update small set k = null where k = 4").ok());
  ASSERT_TRUE(db_.ExecuteWrite("update big set k = null where k = 99").ok());
  ASSERT_TRUE(db_.CreateIndex("big", "k").ok());
  ASSERT_TRUE(db_.AnalyzeAll().ok());
  const std::string sql =
      "select s.v, b.x from small s, big b where b.k = s.k";
  std::string plan = Explain(sql);
  EXPECT_NE(plan.find("IndexScan(big"), std::string::npos) << plan;
  auto indexed = db_.Query(sql);
  db_.mutable_exec_context()->enable_index_scan = false;
  std::string plan2 = Explain(sql);
  EXPECT_EQ(plan2.find("IndexScan"), std::string::npos) << plan2;
  auto scanned = db_.Query(sql);
  db_.mutable_exec_context()->enable_index_scan = true;
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  ASSERT_EQ(scanned->rows.size(), 4u);
  ASSERT_EQ(indexed->rows.size(), scanned->rows.size());
  for (size_t r = 0; r < scanned->rows.size(); ++r) {
    for (size_t c = 0; c < scanned->rows[r].size(); ++c) {
      EXPECT_EQ(indexed->rows[r][c].TotalCompare(scanned->rows[r][c]), 0)
          << "row " << r << " col " << c;
    }
  }
}

TEST_F(PlannerTest, NonEquiJoinBecomesResidualFilter) {
  std::string plan =
      Explain("select s.v from small s, big b where b.x > s.k");
  EXPECT_NE(plan.find("Filter("), std::string::npos) << plan;
}

// Cross-table predicates that are not join edges, over NULLs: a row whose
// predicate is NULL drops, and every degree returns the same rows.
class ResidualPredicateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Table a has column x, b has y, c has z; row i is named <table><i>.
    const std::vector<std::pair<std::string, std::vector<Value>>> tables = {
        {"a", {Value::Int(10), Value::Null(), Value::Int(30), Value::Int(5),
               Value::Int(20)}},
        {"b", {Value::Int(20), Value::Int(5), Value::Null(), Value::Int(40)}},
        {"c", {Value::Int(5), Value::Null(), Value::Int(20)}},
    };
    for (const auto& [name, values] : tables) {
      const std::string column = name == "a" ? "x" : name == "b" ? "y" : "z";
      ASSERT_TRUE(db_.CreateTable(TableSchema(name,
                                              {{"name", DataType::kString},
                                               {column, DataType::kInt64}}))
                      .ok());
      for (size_t i = 0; i < values.size(); ++i) {
        const std::string row_name = name + std::to_string(i + 1);
        ASSERT_TRUE(
            db_.Insert(name, {Value::String(row_name), values[i]}).ok());
      }
    }
    ASSERT_TRUE(db_.AnalyzeAll().ok());
  }

  // Runs `sql` sequentially and at 3 threads (one-row morsels) and checks
  // that each run returns exactly `expected`, compared as sorted rows of
  // names.
  void ExpectRows(const std::string& sql,
                  std::vector<std::vector<std::string>> expected) {
    std::sort(expected.begin(), expected.end());
    db_.mutable_exec_context()->morsel_size = 1;
    for (size_t threads : {size_t{1}, size_t{3}}) {
      db_.SetThreads(threads);
      auto rs = db_.Query(sql);
      ASSERT_TRUE(rs.ok()) << rs.status().ToString() << " for: " << sql;
      std::vector<std::vector<std::string>> got;
      for (const Row& row : rs->rows) {
        std::vector<std::string> names;
        for (const Value& v : row) names.push_back(v.string_value());
        got.push_back(std::move(names));
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << sql << " at " << threads << " threads";
    }
    db_.SetThreads(1);
  }

  Database db_;
};

TEST_F(ResidualPredicateTest, NonEquiJoinDropsNullComparisons) {
  const std::string sql = "select a.name, b.name from a, b where a.x < b.y";
  auto plan = ExplainText(db_, "explain " + sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("Filter("), std::string::npos) << *plan;
  ExpectRows(sql, {{"a1", "b1"},
                   {"a1", "b4"},
                   {"a3", "b4"},
                   {"a4", "b1"},
                   {"a4", "b4"},
                   {"a5", "b4"}});
}

TEST_F(ResidualPredicateTest, OrSpanningTwoTablesKeepsRowsWithOneTrueSide) {
  // NULL OR TRUE is TRUE; NULL OR FALSE and NULL OR NULL drop the row.
  const std::string sql =
      "select a.name, b.name from a, b where a.x > 20 or b.y < 10";
  auto plan = ExplainText(db_, "explain " + sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("Filter("), std::string::npos) << *plan;
  ExpectRows(sql, {{"a1", "b2"},
                   {"a2", "b2"},
                   {"a3", "b1"},
                   {"a3", "b2"},
                   {"a3", "b3"},
                   {"a3", "b4"},
                   {"a4", "b2"},
                   {"a5", "b2"}});
}

TEST_F(ResidualPredicateTest, ThreeTableEqualityCycle) {
  // The last table joins on both of its edges (a two-key hash join), so
  // the cycle's closing edge needs no Filter.
  const std::string sql =
      "select a.name, b.name, c.name from a, b, c "
      "where a.x = b.y and b.y = c.z and c.z = a.x";
  auto plan = ExplainText(db_, "explain " + sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->find("Filter("), std::string::npos) << *plan;
  EXPECT_NE(plan->find("HashJoin(build slots: 3,5 = probe slots: 1,1)"),
            std::string::npos)
      << *plan;
  ExpectRows(sql, {{"a4", "b2", "c1"}, {"a5", "b1", "c3"}});
}

TEST_F(PlannerTest, AggregatePlansHashAggregate) {
  std::string plan =
      Explain("select fk, count(*) from big b group by fk");
  EXPECT_NE(plan.find("HashAggregate"), std::string::npos) << plan;
}

TEST_F(PlannerTest, OrderByPlansSortAndStripsHiddenColumn) {
  std::string plan = Explain("select v from small s order by k desc");
  EXPECT_NE(plan.find("Sort("), std::string::npos) << plan;
  EXPECT_NE(plan.find("StripColumns"), std::string::npos) << plan;
}

TEST_F(PlannerTest, DistinctAndLimitAppearInPlan) {
  std::string plan = Explain("select distinct fk from big b limit 3");
  EXPECT_NE(plan.find("Distinct"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Limit(3)"), std::string::npos) << plan;
}

class BinderTest : public PlannerTest {};

TEST_F(BinderTest, ResolvesSlotsAcrossFromList) {
  auto stmt = Parser::Parse(
      "select s.v, b.x from small s, big b where b.fk = s.k");
  ASSERT_TRUE(stmt.ok());
  Binder binder(&db_.catalog());
  auto bound = binder.Bind(std::move(*stmt));
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  // small occupies slots [0,2), big [2,5).
  EXPECT_EQ(bound->total_slots, 5u);
  EXPECT_EQ(bound->stmt->select_list[0].expr->slot, 1);  // s.v
  EXPECT_EQ(bound->stmt->select_list[1].expr->slot, 4);  // b.x
  EXPECT_EQ(bound->output_names[0], "v");
  EXPECT_EQ(bound->output_types[1], DataType::kDouble);
}

TEST_F(BinderTest, UnqualifiedColumnsResolveWhenUnambiguous) {
  auto stmt = Parser::Parse("select v, x from small s, big b "
                            "where fk = 1");
  ASSERT_TRUE(stmt.ok());
  Binder binder(&db_.catalog());
  EXPECT_TRUE(binder.Bind(std::move(*stmt)).ok());
}

TEST_F(BinderTest, AmbiguousColumnsAreRejected) {
  auto stmt = Parser::Parse("select k from small s, big b");
  ASSERT_TRUE(stmt.ok());
  Binder binder(&db_.catalog());
  auto bound = binder.Bind(std::move(*stmt));
  ASSERT_FALSE(bound.ok());
  EXPECT_NE(bound.status().message().find("ambiguous"), std::string::npos);
}

TEST_F(BinderTest, DuplicateAliasesAreRejected) {
  auto stmt = Parser::Parse("select 1 from small t, big t");
  ASSERT_TRUE(stmt.ok());
  Binder binder(&db_.catalog());
  EXPECT_FALSE(binder.Bind(std::move(*stmt)).ok());
}

TEST_F(BinderTest, WhereMustBeBoolean) {
  auto stmt = Parser::Parse("select v from small s where k + 1");
  ASSERT_TRUE(stmt.ok());
  Binder binder(&db_.catalog());
  EXPECT_EQ(binder.Bind(std::move(*stmt)).status().code(),
            StatusCode::kTypeError);
}

TEST_F(BinderTest, AggregatesForbiddenInWhere) {
  auto stmt = Parser::Parse("select v from small s where sum(k) > 1");
  ASSERT_TRUE(stmt.ok());
  Binder binder(&db_.catalog());
  EXPECT_FALSE(binder.Bind(std::move(*stmt)).ok());
}

TEST_F(BinderTest, TypeInference) {
  auto stmt = Parser::Parse(
      "select s.k + 1, x * 2, s.k / 2, v, count(*), avg(s.k) "
      "from big b, small s "
      "where b.fk = s.k group by s.k + 1, x * 2, s.k / 2, v");
  ASSERT_TRUE(stmt.ok());
  Binder binder(&db_.catalog());
  auto bound = binder.Bind(std::move(*stmt));
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound->output_types[0], DataType::kInt64);   // int + int
  EXPECT_EQ(bound->output_types[1], DataType::kDouble);  // double * int
  EXPECT_EQ(bound->output_types[2], DataType::kDouble);  // '/' widens
  EXPECT_EQ(bound->output_types[3], DataType::kString);
  EXPECT_EQ(bound->output_types[4], DataType::kInt64);   // COUNT
  EXPECT_EQ(bound->output_types[5], DataType::kDouble);  // AVG
}

TEST_F(BinderTest, DateArithmeticTypes) {
  ASSERT_TRUE(
      db_.CreateTable(TableSchema("ev", {{"d", DataType::kDate}})).ok());
  auto stmt = Parser::Parse("select d + 30, d - d from ev e");
  ASSERT_TRUE(stmt.ok());
  Binder binder(&db_.catalog());
  auto bound = binder.Bind(std::move(*stmt));
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound->output_types[0], DataType::kDate);
  EXPECT_EQ(bound->output_types[1], DataType::kInt64);
}

TEST_F(BinderTest, SelectStarExpandsAllColumns) {
  auto stmt = Parser::Parse("select * from small s, big b where b.fk = s.k");
  ASSERT_TRUE(stmt.ok());
  Binder binder(&db_.catalog());
  auto bound = binder.Bind(std::move(*stmt));
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->num_visible_columns, 5u);
}

TEST_F(BinderTest, OrderByUngroupedExpressionRejected) {
  auto stmt = Parser::Parse(
      "select fk, count(*) from big b group by fk order by x");
  ASSERT_TRUE(stmt.ok());
  Binder binder(&db_.catalog());
  EXPECT_FALSE(binder.Bind(std::move(*stmt)).ok());
}

}  // namespace
}  // namespace conquer
