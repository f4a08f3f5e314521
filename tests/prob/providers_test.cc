// Tests of the alternative probability providers (uniform, source
// reliability) and the pluggable edit-distance assignment, and of the
// visible-rows contract every batch probability pass keeps.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>

#include "engine/database.h"
#include "prob/assigner.h"
#include "prob/edit_distance.h"
#include "prob/providers.h"

namespace conquer {
namespace {

std::unique_ptr<Table> MakeSourcedTable() {
  auto table = std::make_unique<Table>(
      TableSchema("t", {{"id", DataType::kString},
                        {"name", DataType::kString},
                        {"src", DataType::kString},
                        {"prob", DataType::kDouble}}));
  auto ins = [&](const char* id, const char* name, const char* src) {
    EXPECT_TRUE(table
                    ->Insert({Value::String(id), Value::String(name),
                              Value::String(src), Value::Null()})
                    .ok());
  };
  ins("c1", "John Smith", "crm");
  ins("c1", "Jon Smith", "webform");
  ins("c1", "J. Smith", "legacy");
  ins("c2", "Mary Jones", "crm");
  ins("c2", "Mary Jonse", "webform");
  ins("c3", "Wei Chen", "legacy");
  return table;
}

const DirtyTableInfo kInfo{"t", "id", "prob", {}};

TEST(UniformProviderTest, AssignsOneOverClusterSize) {
  auto table = MakeSourcedTable();
  ASSERT_TRUE(AssignUniformProbabilities(table.get(), kInfo).ok());
  EXPECT_NEAR(table->row(0)[3].double_value(), 1.0 / 3, 1e-12);
  EXPECT_NEAR(table->row(3)[3].double_value(), 0.5, 1e-12);
  EXPECT_NEAR(table->row(5)[3].double_value(), 1.0, 1e-12);
}

TEST(UniformProviderTest, RequiresProbColumn) {
  auto table = MakeSourcedTable();
  DirtyTableInfo no_prob{"t", "id", "", {}};
  EXPECT_FALSE(AssignUniformProbabilities(table.get(), no_prob).ok());
}

TEST(SourceReliabilityTest, WeightsBySourceNormalizedPerCluster) {
  auto table = MakeSourcedTable();
  std::unordered_map<std::string, double> reliability = {
      {"crm", 0.8}, {"webform", 0.1}, {"legacy", 0.1}};
  ASSERT_TRUE(AssignSourceReliabilityProbabilities(table.get(), kInfo, "src",
                                                   reliability)
                  .ok());
  // c1: crm 0.8, webform 0.1, legacy 0.1 -> normalized as-is.
  EXPECT_NEAR(table->row(0)[3].double_value(), 0.8, 1e-12);
  EXPECT_NEAR(table->row(1)[3].double_value(), 0.1, 1e-12);
  // c2: crm 0.8, webform 0.1 -> 8/9 and 1/9.
  EXPECT_NEAR(table->row(3)[3].double_value(), 8.0 / 9, 1e-12);
  EXPECT_NEAR(table->row(4)[3].double_value(), 1.0 / 9, 1e-12);
  // c3 singleton from a weighted source -> 1.
  EXPECT_NEAR(table->row(5)[3].double_value(), 1.0, 1e-12);
}

TEST(SourceReliabilityTest, UnknownSourcesUseDefault) {
  auto table = MakeSourcedTable();
  std::unordered_map<std::string, double> reliability = {{"crm", 1.0}};
  ASSERT_TRUE(AssignSourceReliabilityProbabilities(table.get(), kInfo, "src",
                                                   reliability,
                                                   /*default=*/0.5)
                  .ok());
  // c1: crm 1.0, others 0.5 each -> 0.5, 0.25, 0.25.
  EXPECT_NEAR(table->row(0)[3].double_value(), 0.5, 1e-12);
  EXPECT_NEAR(table->row(1)[3].double_value(), 0.25, 1e-12);
}

TEST(SourceReliabilityTest, ZeroTotalFallsBackToUniform) {
  auto table = MakeSourcedTable();
  std::unordered_map<std::string, double> reliability;  // everything 0
  ASSERT_TRUE(AssignSourceReliabilityProbabilities(table.get(), kInfo, "src",
                                                   reliability)
                  .ok());
  EXPECT_NEAR(table->row(0)[3].double_value(), 1.0 / 3, 1e-12);
}

TEST(SourceReliabilityTest, NegativeWeightsRejected) {
  auto table = MakeSourcedTable();
  std::unordered_map<std::string, double> reliability = {{"crm", -1.0}};
  EXPECT_FALSE(AssignSourceReliabilityProbabilities(table.get(), kInfo, "src",
                                                    reliability)
                   .ok());
  EXPECT_FALSE(AssignSourceReliabilityProbabilities(table.get(), kInfo, "src",
                                                    {}, -0.5)
                   .ok());
}

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("", ""), 0u);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(LevenshteinDistance("John", "Jon"), 1u);
}

TEST(LevenshteinTest, SymmetricAndNormalized) {
  EXPECT_EQ(LevenshteinDistance("abcd", "xy"),
            LevenshteinDistance("xy", "abcd"));
  EXPECT_NEAR(NormalizedEditDistance("abcd", ""), 1.0, 1e-12);
  EXPECT_NEAR(NormalizedEditDistance("", ""), 0.0, 1e-12);
  EXPECT_NEAR(NormalizedEditDistance("John", "Jon"), 0.25, 1e-12);
}

TEST(MixedEditDistanceTest, AveragesAcrossAttributes) {
  Table table(TableSchema("t", {{"s", DataType::kString},
                                {"n", DataType::kInt64}}));
  ASSERT_TRUE(table.Insert({Value::String("abcd"), Value::Int(100)}).ok());
  ASSERT_TRUE(table.Insert({Value::String("abcd"), Value::Int(50)}).ok());
  MixedEditDistance measure;
  // String identical (0), numeric |100-50|/100 = 0.5 -> average 0.25.
  EXPECT_NEAR(measure.Distance(table, 0, 1, {0, 1}), 0.25, 1e-12);
  EXPECT_NEAR(measure.Distance(table, 0, 1, {0}), 0.0, 1e-12);
}

TEST(MixedEditDistanceTest, NullHandling) {
  Table table(TableSchema("t", {{"s", DataType::kString}}));
  ASSERT_TRUE(table.Insert({Value::String("x")}).ok());
  ASSERT_TRUE(table.Insert({Value::Null()}).ok());
  ASSERT_TRUE(table.Insert({Value::Null()}).ok());
  MixedEditDistance measure;
  EXPECT_NEAR(measure.Distance(table, 0, 1, {0}), 1.0, 1e-12);
  EXPECT_NEAR(measure.Distance(table, 1, 2, {0}), 0.0, 1e-12);
}

TEST(EditDistanceAssignerTest, MedoidRankingMatchesIntuition) {
  auto table = MakeSourcedTable();
  MixedEditDistance measure;
  AssignerOptions options;
  options.attribute_columns = {"name"};
  auto details =
      AssignProbabilitiesWithDistance(table.get(), kInfo, measure, options);
  ASSERT_TRUE(details.ok()) << details.status().ToString();
  // In c1 {John Smith, Jon Smith, J. Smith} the medoid is one of the full
  // spellings; "J. Smith" is farthest and least likely.
  EXPECT_LT((*details)[2].probability, (*details)[0].probability);
  EXPECT_LT((*details)[2].probability, (*details)[1].probability);
  // Distribution per cluster.
  EXPECT_NEAR((*details)[0].probability + (*details)[1].probability +
                  (*details)[2].probability,
              1.0, 1e-12);
  // Singleton certainty.
  EXPECT_NEAR((*details)[5].probability, 1.0, 1e-12);
}

TEST(EditDistanceAssignerTest, IdenticalClusterGoesUniform) {
  Table table(TableSchema("t", {{"id", DataType::kString},
                                {"s", DataType::kString},
                                {"prob", DataType::kDouble}}));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(table
                    .Insert({Value::String("c"), Value::String("same"),
                             Value::Null()})
                    .ok());
  }
  MixedEditDistance measure;
  DirtyTableInfo info{"t", "id", "prob", {}};
  auto details = AssignProbabilitiesWithDistance(&table, info, measure);
  ASSERT_TRUE(details.ok());
  for (const auto& d : *details) EXPECT_NEAR(d.probability, 0.25, 1e-12);
}

// ---------------------------------------------------------------------------
// Every batch pass reads the rows visible at the committed version.
// ---------------------------------------------------------------------------

/// MakeSourcedTable's rows in a database, then one UPDATE and one DELETE on
/// the three-row cluster c1 through ExecuteWrite with no maintenance hook:
/// c1 keeps two visible rows (row 0 and the updated image at row 6) and two
/// dead versions (rows 1 and 2). Every stored probability starts at 0.125.
std::unique_ptr<Database> WrittenSourcedDatabase() {
  auto db = std::make_unique<Database>();
  EXPECT_TRUE(db->CreateTable(MakeSourcedTable()->schema()).ok());
  const char* rows[][3] = {{"c1", "John Smith", "crm"},
                           {"c1", "Jon Smith", "webform"},
                           {"c1", "J. Smith", "legacy"},
                           {"c2", "Mary Jones", "crm"},
                           {"c2", "Mary Jonse", "webform"},
                           {"c3", "Wei Chen", "legacy"}};
  for (const auto& r : rows) {
    EXPECT_TRUE(db->Insert("t", {Value::String(r[0]), Value::String(r[1]),
                                 Value::String(r[2]), Value::Double(0.125)})
                    .ok());
  }
  EXPECT_TRUE(db->ExecuteWrite(
                    "update t set name = 'Jon Smyth' where name = 'Jon Smith'")
                  .ok());
  EXPECT_TRUE(db->ExecuteWrite("delete from t where name = 'J. Smith'").ok());
  return db;
}

TEST(BatchPassVisibilityTest, EveryPassNormalizesTheVisibleClusters) {
  MixedEditDistance measure;
  const std::map<std::string, std::function<Status(Table*)>> passes = {
      {"information loss",
       [](Table* t) { return AssignProbabilities(t, kInfo).status(); }},
      {"medoid",
       [&](Table* t) {
         return AssignProbabilitiesWithDistance(t, kInfo, measure).status();
       }},
      {"uniform",
       [](Table* t) { return AssignUniformProbabilities(t, kInfo); }},
      {"source reliability", [](Table* t) {
         return AssignSourceReliabilityProbabilities(
             t, kInfo, "src", {{"crm", 0.8}, {"webform", 0.1}}, 0.1);
       }}};
  for (const auto& [name, pass] : passes) {
    SCOPED_TRACE(name);
    auto db = WrittenSourcedDatabase();
    auto table = db->GetTable("t");
    ASSERT_TRUE(table.ok());
    Table* t = *table;
    ASSERT_EQ(t->num_rows(), 7u);
    ASSERT_TRUE(pass(t).ok());

    std::map<std::string, double> sums;
    for (size_t pos : t->VisibleRowPositions(t->committed_version())) {
      sums[t->ValueAt(pos, 0).ToString()] += t->ValueAt(pos, 3).AsDouble();
    }
    ASSERT_EQ(sums.size(), 3u);
    for (const auto& [id, sum] : sums) {
      EXPECT_NEAR(sum, 1.0, 1e-12) << "cluster " << id;
    }
    // The dead versions keep their stored probabilities bit for bit.
    for (size_t dead : {1u, 2u}) {
      ASSERT_FALSE(t->RowVisibleAt(dead, t->committed_version()));
      const double p = t->ValueAt(dead, 3).AsDouble();
      const double stored = 0.125;
      EXPECT_EQ(std::memcmp(&p, &stored, sizeof(double)), 0) << "row " << dead;
    }
  }
}

TEST(BatchPassVisibilityTest, DetailsCoverTheVisibleRowsInRowOrder) {
  auto db = WrittenSourcedDatabase();
  auto table = db->GetTable("t");
  ASSERT_TRUE(table.ok());
  auto details = AssignProbabilities(*table, kInfo);
  ASSERT_TRUE(details.ok()) << details.status().ToString();
  std::vector<size_t> rows;
  for (const TupleProbability& t : *details) rows.push_back(t.row);
  EXPECT_EQ(rows, (std::vector<size_t>{0, 3, 4, 5, 6}));
}

}  // namespace
}  // namespace conquer
