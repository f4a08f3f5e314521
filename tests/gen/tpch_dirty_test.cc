// Tests of the dirty TPC-H generator (the paper's UIS-generator substitute).

#include "gen/tpch_dirty.h"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>
#include <unordered_set>

namespace conquer {
namespace {

TpchDirtyConfig SmallConfig(int iff) {
  TpchDirtyConfig config;
  config.scale_factor = 0.004;  // ~600 customer tuples, ~6000 order tuples
  config.inconsistency_factor = iff;
  config.seed = 7;
  return config;
}

TEST(TpchCardinalitiesTest, ScalesLinearly) {
  auto c1 = TpchCardinalities::For(0.01);
  auto c2 = TpchCardinalities::For(0.02);
  EXPECT_EQ(c1.customer, 1500u);
  EXPECT_EQ(c2.customer, 3000u);
  EXPECT_EQ(c1.region, 5u);
  EXPECT_EQ(c1.nation, 25u);
  EXPECT_EQ(c1.partsupp, c1.part * 4);
}

TEST(TpchDirtyTest, GeneratesAllEightTables) {
  auto gen = MakeTpchDirtyDatabase(SmallConfig(3));
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  for (const char* name : {"region", "nation", "supplier", "part", "partsupp",
                           "customer", "orders", "lineitem"}) {
    auto t = gen->db->GetTable(name);
    ASSERT_TRUE(t.ok()) << name;
    EXPECT_GT((*t)->num_rows(), 0u) << name;
    EXPECT_NE(gen->dirty.Find(name), nullptr) << name;
  }
}

TEST(TpchDirtyTest, CleanDatabaseWhenIfIsOne) {
  auto gen = MakeTpchDirtyDatabase(SmallConfig(1));
  ASSERT_TRUE(gen.ok());
  auto customer = gen->db->GetTable("customer");
  ASSERT_TRUE(customer.ok());
  // Every cluster is a singleton: ids are unique.
  std::unordered_set<std::string> ids;
  for (size_t i = 0; i < (*customer)->num_rows(); ++i) {
    const Row r = (*customer)->row(i);
    EXPECT_TRUE(ids.insert(r[0].string_value()).second);
    EXPECT_NEAR(r.back().AsDouble(), 1.0, 1e-12);  // prob 1 everywhere
  }
}

TEST(TpchDirtyTest, ClusterSizesFollowUniformOneToTwoIfMinusOne) {
  auto gen = MakeTpchDirtyDatabase(SmallConfig(5));
  ASSERT_TRUE(gen.ok());
  auto customer = gen->db->GetTable("customer");
  ASSERT_TRUE(customer.ok());
  std::unordered_map<std::string, size_t> sizes;
  for (size_t i = 0; i < (*customer)->num_rows(); ++i) {
    ++sizes[(*customer)->ValueAt(i, 0).string_value()];
  }
  double sum = 0;
  size_t max_size = 0, min_size = 99;
  for (const auto& [id, n] : sizes) {
    sum += static_cast<double>(n);
    max_size = std::max(max_size, n);
    min_size = std::min(min_size, n);
  }
  double mean = sum / static_cast<double>(sizes.size());
  // Uniform over [1, 9]: mean 5, bounds respected.
  EXPECT_LE(max_size, 9u);
  EXPECT_GE(min_size, 1u);
  EXPECT_NEAR(mean, 5.0, 0.8);
}

TEST(TpchDirtyTest, ProbabilitiesFormDistributionPerCluster) {
  auto gen = MakeTpchDirtyDatabase(SmallConfig(4));
  ASSERT_TRUE(gen.ok());
  for (const char* name : {"customer", "orders", "lineitem", "part"}) {
    auto t = gen->db->GetTable(name);
    ASSERT_TRUE(t.ok());
    std::unordered_map<std::string, double> mass;
    for (size_t i = 0; i < (*t)->num_rows(); ++i) {
      const Row r = (*t)->row(i);
      mass[r[0].string_value()] += r.back().AsDouble();
    }
    for (const auto& [id, m] : mass) {
      ASSERT_NEAR(m, 1.0, 1e-9) << name << " cluster " << id;
    }
  }
}

TEST(TpchDirtyTest, PropagatedIdentifiersMatchReferencedClusters) {
  auto gen = MakeTpchDirtyDatabase(SmallConfig(3));
  ASSERT_TRUE(gen.ok());
  // Every o_cust_id must be an existing customer cluster id.
  auto orders = gen->db->GetTable("orders");
  auto customer = gen->db->GetTable("customer");
  ASSERT_TRUE(orders.ok() && customer.ok());
  std::unordered_set<std::string> cust_ids;
  for (size_t i = 0; i < (*customer)->num_rows(); ++i) {
    cust_ids.insert((*customer)->ValueAt(i, 0).string_value());
  }
  size_t o_cust_id = (*orders)->schema().GetColumnIndex("o_cust_id").value();
  for (size_t i = 0; i < (*orders)->num_rows(); ++i) {
    const Value v = (*orders)->ValueAt(i, o_cust_id);
    ASSERT_FALSE(v.is_null());
    EXPECT_TRUE(cust_ids.count(v.string_value()) > 0);
  }
}

TEST(TpchDirtyTest, DeterministicForFixedSeed) {
  auto a = MakeTpchDirtyDatabase(SmallConfig(3));
  auto b = MakeTpchDirtyDatabase(SmallConfig(3));
  ASSERT_TRUE(a.ok() && b.ok());
  auto ta = a->db->GetTable("lineitem").value();
  auto tb = b->db->GetTable("lineitem").value();
  ASSERT_EQ(ta->num_rows(), tb->num_rows());
  for (size_t i = 0; i < std::min<size_t>(ta->num_rows(), 100); ++i) {
    for (size_t c = 0; c < ta->schema().num_columns(); ++c) {
      ASSERT_EQ(ta->row(i)[c].TotalCompare(tb->row(i)[c]), 0)
          << "row " << i << " col " << c;
    }
  }
}

TEST(TpchDirtyTest, DuplicatesPerturbAttributes) {
  auto gen = MakeTpchDirtyDatabase(SmallConfig(5));
  ASSERT_TRUE(gen.ok());
  auto customer = gen->db->GetTable("customer");
  ASSERT_TRUE(customer.ok());
  // Within clusters of size > 1, at least some attribute values disagree.
  // Rows are materialized by value; keep them alive while pointers into
  // them are held below.
  std::vector<Row> rows;
  for (size_t i = 0; i < (*customer)->num_rows(); ++i) {
    rows.push_back((*customer)->row(i));
  }
  std::unordered_map<std::string, std::vector<const Row*>> clusters;
  for (const Row& r : rows) {
    clusters[r[0].string_value()].push_back(&r);
  }
  size_t name_col = (*customer)->schema().GetColumnIndex("c_name").value();
  size_t disagreements = 0, multi = 0;
  for (const auto& [id, rows] : clusters) {
    if (rows.size() < 2) continue;
    ++multi;
    for (size_t i = 1; i < rows.size(); ++i) {
      if ((*rows[i])[name_col].TotalCompare((*rows[0])[name_col]) != 0) {
        ++disagreements;
        break;
      }
    }
  }
  ASSERT_GT(multi, 0u);
  EXPECT_GT(disagreements, multi / 4);  // perturbation is doing something
}

TEST(TpchDirtyTest, IndexesAndStatsBuild) {
  auto gen = MakeTpchDirtyDatabase(SmallConfig(3));
  ASSERT_TRUE(gen.ok());
  ASSERT_TRUE(gen->BuildIndexesAndStats().ok());
  auto customer = gen->db->GetTable("customer");
  ASSERT_TRUE(customer.ok());
  EXPECT_NE((*customer)->GetIndex(0), nullptr);  // id column indexed
  EXPECT_GT((*customer)->column_stats(0).num_distinct, 0u);
}

TEST(TpchDirtyTest, InvalidConfigsAreRejected) {
  TpchDirtyConfig bad = SmallConfig(0);
  EXPECT_FALSE(MakeTpchDirtyDatabase(bad).ok());
  bad = SmallConfig(3);
  bad.scale_factor = 0;
  EXPECT_FALSE(MakeTpchDirtyDatabase(bad).ok());
  bad = SmallConfig(50);
  EXPECT_FALSE(MakeTpchDirtyDatabase(bad).ok());
}

TEST(TpchDirtyTest, NoProbabilityFillLeavesNulls) {
  TpchDirtyConfig config = SmallConfig(3);
  config.fill_probabilities = false;
  auto gen = MakeTpchDirtyDatabase(config);
  ASSERT_TRUE(gen.ok());
  auto customer = gen->db->GetTable("customer");
  ASSERT_TRUE(customer.ok());
  EXPECT_TRUE((*customer)->row(0).back().is_null());
}

}  // namespace
}  // namespace conquer
