// Tests of the Cora-like bibliographic generator and the Section 4.2
// qualitative evaluation: assigned probabilities agree with intuition.

#include "gen/cora.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "prob/assigner.h"

namespace conquer {
namespace {

TEST(CoraGenTest, GeneratesRequestedClusters) {
  CoraConfig config;
  config.num_clusters = 8;
  config.min_cluster_size = 2;
  config.max_cluster_size = 10;
  DirtyTableInfo info;
  auto table = MakeCoraLikeTable(config, &info);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(info.id_column, "id");
  std::set<std::string> ids;
  for (size_t i = 0; i < (*table)->num_rows(); ++i) {
    ids.insert((*table)->ValueAt(i, 0).string_value());
  }
  EXPECT_EQ(ids.size(), 8u);
}

TEST(CoraGenTest, Table4ClusterHasFiftySixTuples) {
  DirtyTableInfo info;
  auto table = MakeTable4Cluster(&info);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 56u);
}

// The paper's Table 4 discussion: "the most likely tuple shares all its
// values with the set of most frequent values"; the two least likely are
// the misclustered tuple and the heavily reformatted one.
TEST(CoraGenTest, Table4RankingMatchesPaperIntuition) {
  DirtyTableInfo info;
  auto table = MakeTable4Cluster(&info);
  ASSERT_TRUE(table.ok());
  auto details = AssignProbabilities(table->get(), info);
  ASSERT_TRUE(details.ok()) << details.status().ToString();

  std::vector<TupleProbability> ranked = *details;
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const TupleProbability& a, const TupleProbability& b) {
                     return a.probability > b.probability;
                   });
  // Top tuple is one of the canonical rows (0..30).
  EXPECT_LE(ranked.front().row, 30u);
  // The two divergent tuples (rows 54: reformatted, 55: misclustered) are
  // the two least likely.
  std::set<size_t> bottom2 = {ranked[54].row, ranked[55].row};
  EXPECT_TRUE(bottom2.count(54) == 1) << "reformatted tuple not in bottom 2";
  EXPECT_TRUE(bottom2.count(55) == 1) << "misclustered tuple not in bottom 2";
  // Near-canonical tuples (only the volume differs, rows 31..40) rank above
  // the format variants on average but below the canonical form.
  double canon_p = 0.0, near_p = 0.0;
  for (const auto& d : *details) {
    if (d.row <= 30) canon_p += d.probability;
    if (d.row >= 31 && d.row <= 40) near_p += d.probability;
  }
  EXPECT_GT(canon_p / 31.0, near_p / 10.0);
  // Probabilities form a distribution.
  double total = 0.0;
  for (const auto& d : *details) total += d.probability;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(CoraGenTest, SingletonClustersGetProbabilityOne) {
  CoraConfig config;
  config.num_clusters = 5;
  config.min_cluster_size = 1;
  config.max_cluster_size = 1;
  DirtyTableInfo info;
  auto table = MakeCoraLikeTable(config, &info);
  ASSERT_TRUE(table.ok());
  auto details = AssignProbabilities(table->get(), info);
  ASSERT_TRUE(details.ok());
  for (const auto& d : *details) EXPECT_NEAR(d.probability, 1.0, 1e-12);
}

TEST(CoraGenTest, InvalidBoundsRejected) {
  CoraConfig config;
  config.min_cluster_size = 5;
  config.max_cluster_size = 2;
  DirtyTableInfo info;
  EXPECT_FALSE(MakeCoraLikeTable(config, &info).ok());
}

TEST(CoraGenTest, DeterministicForFixedSeed) {
  CoraConfig config;
  DirtyTableInfo info;
  auto a = MakeCoraLikeTable(config, &info);
  auto b = MakeCoraLikeTable(config, &info);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ((*a)->num_rows(), (*b)->num_rows());
  for (size_t i = 0; i < (*a)->num_rows(); ++i) {
    for (size_t c = 0; c < (*a)->schema().num_columns(); ++c) {
      ASSERT_EQ((*a)->row(i)[c].TotalCompare((*b)->row(i)[c]), 0);
    }
  }
}

}  // namespace
}  // namespace conquer
