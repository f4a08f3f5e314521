// Tests of the greedy join ordering: plan shapes under statistics, cross
// products, and results on random chain and star queries against an
// independently computed join.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "tests/engine/explain_text.h"

namespace conquer {
namespace {

class JoinOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A chain fact -> dim1 -> dim2 with very different sizes.
    ASSERT_TRUE(db_.CreateTable(TableSchema("fact", {{"k1", DataType::kInt64},
                                                     {"v", DataType::kInt64}}))
                    .ok());
    ASSERT_TRUE(db_.CreateTable(TableSchema("dim1", {{"k1", DataType::kInt64},
                                                     {"k2", DataType::kInt64}}))
                    .ok());
    ASSERT_TRUE(
        db_.CreateTable(TableSchema("dim2", {{"k2", DataType::kInt64},
                                             {"name", DataType::kString}}))
            .ok());
    Rng rng(8);
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(db_.Insert("fact", {Value::Int(rng.Uniform(0, 49)),
                                      Value::Int(rng.Uniform(0, 9))})
                      .ok());
    }
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db_.Insert("dim1", {Value::Int(i), Value::Int(i % 5)}).ok());
    }
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(db_.Insert("dim2", {Value::Int(i),
                                      Value::String("d" + std::to_string(i))})
                      .ok());
    }
    ASSERT_TRUE(db_.AnalyzeAll().ok());
  }

  static constexpr const char* kChainQuery =
      "select f.v, d2.name from fact f, dim1 d1, dim2 d2 "
      "where f.k1 = d1.k1 and d1.k2 = d2.k2 and f.v > 2 "
      "order by f.v, d2.name";

  Database db_;
};

TEST_F(JoinOrderTest, ChainPlanUsesHashJoins) {
  auto plan = ExplainText(db_, std::string("explain ") + kChainQuery);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("HashJoin"), std::string::npos) << *plan;
  EXPECT_EQ(plan->find("CrossJoin"), std::string::npos) << *plan;
}

TEST_F(JoinOrderTest, HandlesCrossProducts) {
  auto rs = db_.Query("select d1.k1, d2.k2 from dim1 d1, dim2 d2");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 250u);
}

TEST_F(JoinOrderTest, SingleTableUnaffected) {
  auto rs = db_.Query("select v from fact f where v = 3");
  ASSERT_TRUE(rs.ok());
  EXPECT_GT(rs->num_rows(), 0u);
}

// Randomized chain/star queries with a selection: the planner's result
// equals the multiset a hash-indexed nested-loop join computes from the
// inserted rows.
class JoinOrderPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinOrderPropertyTest, MatchesIndexedNestedLoopJoin) {
  Rng rng(GetParam());
  Database db;
  int n = static_cast<int>(rng.Uniform(2, 4));
  // tN joins a random earlier table on tN.fk = parent.k (a star toward t0
  // or a chain).
  std::vector<int> parent(n, 0);
  for (int t = 1; t < n; ++t) parent[t] = static_cast<int>(rng.Uniform(0, t - 1));
  struct Rows {
    std::vector<int64_t> k, fk, v;
  };
  std::vector<Rows> data(n);
  for (int t = 0; t < n; ++t) {
    ASSERT_TRUE(
        db.CreateTable(TableSchema("t" + std::to_string(t),
                                   {{"k", DataType::kInt64},
                                    {"fk", DataType::kInt64},
                                    {"v", DataType::kInt64}}))
            .ok());
    int rows = static_cast<int>(rng.Uniform(5, 120));
    for (int r = 0; r < rows; ++r) {
      const int64_t k = rng.Uniform(0, 20);
      const int64_t fk = rng.Uniform(0, 20);
      const int64_t v = rng.Uniform(0, 5);
      ASSERT_TRUE(db.Insert("t" + std::to_string(t),
                            {Value::Int(k), Value::Int(fk), Value::Int(v)})
                      .ok());
      data[t].k.push_back(k);
      data[t].fk.push_back(fk);
      data[t].v.push_back(v);
    }
  }
  ASSERT_TRUE(db.AnalyzeAll().ok());
  std::string sql = "select t0.v from ";
  for (int t = 0; t < n; ++t) {
    if (t > 0) sql += ", ";
    sql += "t" + std::to_string(t);
  }
  std::string sep = " where ";
  for (int t = 1; t < n; ++t) {
    sql += sep + "t" + std::to_string(t) + ".fk = t" +
           std::to_string(parent[t]) + ".k";
    sep = " and ";
  }
  sql += sep + "t0.v <= 3 order by t0.v";

  // Bind t0, t1, ... in turn; each tN's rows come from an fk index probed
  // with its (already bound) parent's k.
  std::vector<std::unordered_map<int64_t, std::vector<size_t>>> by_fk(n);
  for (int t = 1; t < n; ++t) {
    for (size_t r = 0; r < data[t].fk.size(); ++r) {
      by_fk[t][data[t].fk[r]].push_back(r);
    }
  }
  std::vector<int64_t> expected;
  std::vector<size_t> bound(n);
  auto extend = [&](auto& self, int t) -> void {
    if (t == n) {
      expected.push_back(data[0].v[bound[0]]);
      return;
    }
    auto it = by_fk[t].find(data[parent[t]].k[bound[parent[t]]]);
    if (it == by_fk[t].end()) return;
    for (size_t r : it->second) {
      bound[t] = r;
      self(self, t + 1);
    }
  };
  for (size_t r = 0; r < data[0].v.size(); ++r) {
    if (data[0].v[r] > 3) continue;
    bound[0] = r;
    extend(extend, 1);
  }
  std::sort(expected.begin(), expected.end());

  auto rs = db.Query(sql);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString() << " " << sql;
  ASSERT_EQ(rs->num_rows(), expected.size()) << sql;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(rs->rows[i][0].int_value(), expected[i]) << sql << " row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinOrderPropertyTest,
                         ::testing::Range<uint64_t>(100, 116));

}  // namespace
}  // namespace conquer
