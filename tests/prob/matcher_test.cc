// Tests of the baseline LIMBO-family tuple matcher.

#include "prob/matcher.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "engine/database.h"
#include "prob/assigner.h"

namespace conquer {
namespace {

std::unique_ptr<Table> MakePeopleTable() {
  auto table = std::make_unique<Table>(
      TableSchema("people", {{"id", DataType::kString},
                             {"name", DataType::kString},
                             {"city", DataType::kString},
                             {"segment", DataType::kString},
                             {"prob", DataType::kDouble}}));
  auto ins = [&](const char* name, const char* city, const char* seg) {
    EXPECT_TRUE(table
                    ->Insert({Value::Null(), Value::String(name),
                              Value::String(city), Value::String(seg),
                              Value::Null()})
                    .ok());
  };
  // Entity A: three near-identical representations.
  ins("John Smith", "Toronto", "banking");
  ins("John Smith", "Toronto", "building");
  ins("John Smith", "Toronto", "banking");
  // Entity B: two representations.
  ins("Mary Jones", "Ottawa", "retail");
  ins("Mary Jones", "Ottawa", "retail");
  // Entity C: a singleton, nothing in common with A or B.
  ins("Wei Chen", "Vancouver", "shipping");
  return table;
}

TEST(MatcherTest, GroupsSimilarTuplesAndSeparatesDissimilar) {
  auto table = MakePeopleTable();
  MatcherOptions options;
  options.exclude_columns = {"id", "prob"};
  auto result = MatchTuples(*table, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_clusters, 3u);
  // Rows 0-2 together, 3-4 together, 5 alone.
  EXPECT_EQ(result->cluster_of_row[0], result->cluster_of_row[1]);
  EXPECT_EQ(result->cluster_of_row[0], result->cluster_of_row[2]);
  EXPECT_EQ(result->cluster_of_row[3], result->cluster_of_row[4]);
  EXPECT_NE(result->cluster_of_row[0], result->cluster_of_row[3]);
  EXPECT_NE(result->cluster_of_row[0], result->cluster_of_row[5]);
}

TEST(MatcherTest, ZeroThresholdMergesOnlyIdenticalTuples) {
  auto table = MakePeopleTable();
  MatcherOptions options;
  options.merge_threshold = 0.0;
  options.exclude_columns = {"id", "prob"};
  auto result = MatchTuples(*table, options);
  ASSERT_TRUE(result.ok());
  // Rows 0 and 2 are identical; 1 differs in segment; 3/4 identical.
  EXPECT_EQ(result->cluster_of_row[0], result->cluster_of_row[2]);
  EXPECT_NE(result->cluster_of_row[0], result->cluster_of_row[1]);
  EXPECT_EQ(result->cluster_of_row[3], result->cluster_of_row[4]);
  EXPECT_EQ(result->num_clusters, 4u);
}

TEST(MatcherTest, MaxThresholdMergesEverything) {
  auto table = MakePeopleTable();
  MatcherOptions options;
  options.merge_threshold = 1.0;
  options.exclude_columns = {"id", "prob"};
  auto result = MatchTuples(*table, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_clusters, 1u);
}

TEST(MatcherTest, ExplicitAttributeColumns) {
  auto table = MakePeopleTable();
  MatcherOptions options;
  options.attribute_columns = {"city"};
  auto result = MatchTuples(*table, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_clusters, 3u);  // Toronto / Ottawa / Vancouver
}

TEST(MatcherTest, InvalidThresholdRejected) {
  auto table = MakePeopleTable();
  MatcherOptions options;
  options.merge_threshold = 1.5;
  EXPECT_FALSE(MatchTuples(*table, options).ok());
}

TEST(MatcherTest, NoColumnsLeftIsAnError) {
  Table table(TableSchema("t", {{"id", DataType::kString}}));
  MatcherOptions options;
  options.exclude_columns = {"id"};
  EXPECT_FALSE(MatchTuples(table, options).ok());
}

TEST(MatcherTest, AssignClusterIdentifiersWritesColumn) {
  auto table = MakePeopleTable();
  MatcherOptions options;
  options.exclude_columns = {"prob"};
  auto result = AssignClusterIdentifiers(table.get(), "id", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::set<std::string> ids;
  for (size_t i = 0; i < table->num_rows(); ++i) {
    ids.insert(table->ValueAt(i, 0).string_value());
  }
  EXPECT_EQ(ids.size(), result->num_clusters);
  EXPECT_EQ(table->row(0)[0].string_value(), table->row(1)[0].string_value());
}

// End-to-end: raw table -> matcher -> Fig. 5 probabilities -> per-cluster
// distributions.
TEST(MatcherTest, PipelineIntoProbabilityAssignment) {
  auto table = MakePeopleTable();
  MatcherOptions options;
  options.exclude_columns = {"prob"};
  ASSERT_TRUE(AssignClusterIdentifiers(table.get(), "id", options).ok());
  DirtyTableInfo info{"people", "id", "prob", {}};
  auto details = AssignProbabilities(table.get(), info);
  ASSERT_TRUE(details.ok()) << details.status().ToString();
  // Per-cluster probabilities sum to 1.
  std::map<std::string, double> mass;
  for (const auto& d : *details) {
    mass[table->row(d.row)[0].string_value()] += d.probability;
  }
  for (const auto& [id, m] : mass) EXPECT_NEAR(m, 1.0, 1e-9) << id;
  // In entity A, the majority representation (banking) outranks the outlier.
  EXPECT_GT((*details)[0].probability, (*details)[1].probability);
}

// Writes leave row versions behind. The matcher reads only the rows visible
// at the committed version, as every probability pass does: a deleted row
// and the old version of an updated one get no cluster and no identifier.
TEST(MatcherTest, ReadsOnlyVisibleRowVersions) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("t", {{"id", DataType::kString},
                                               {"name", DataType::kString},
                                               {"city", DataType::kString}}))
                  .ok());
  ASSERT_TRUE(db.InsertMany("t", {{Value::Null(), Value::String("Mary"),
                                   Value::String("Toronto")},
                                  {Value::Null(), Value::String("John"),
                                   Value::String("Ottawa")}})
                  .ok());
  ASSERT_TRUE(db.ExecuteWrite("delete from t where name = 'Mary'").ok());
  ASSERT_TRUE(
      db.ExecuteWrite("update t set city = 'Kingston' where name = 'John'")
          .ok());
  auto table = db.GetTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ((*table)->num_rows(), 3u);  // Mary, John's old and new version

  auto result = AssignClusterIdentifiers(*table, "id");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_clusters, 1u);
  EXPECT_EQ(result->cluster_of_row,
            (std::vector<size_t>{MatchResult::kNoCluster,
                                 MatchResult::kNoCluster, 0}));
  EXPECT_TRUE((*table)->ValueAt(0, 0).is_null());
  EXPECT_TRUE((*table)->ValueAt(1, 0).is_null());
  EXPECT_EQ((*table)->ValueAt(2, 0).ToString(), "m0");
}

TEST(MatcherTest, EmptyTableYieldsNoClusters) {
  Table table(TableSchema("t", {{"a", DataType::kString}}));
  auto result = MatchTuples(table, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_clusters, 0u);
}

}  // namespace
}  // namespace conquer
