// Property tests for incremental probability maintenance: after any
// sequence of SQL writes through Database::ExecuteWrite, every visible
// cluster's probabilities sum to 1 (within 1e-12) and clusters a write did
// not touch keep bit-identical probabilities. The direct ReassignClusters
// tests cover NULL-identifier matching, fully-deleted clusters, and the
// injected off-by-one fault the fuzzer's self-test relies on; the last
// section pins that batch and incremental assignment are one computation.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "gen/tpch_dirty.h"
#include "prob/assigner.h"
#include "prob/incremental.h"
#include "storage/table.h"
#include "types/value.h"

namespace conquer {
namespace {

constexpr const char* kWords[] = {"ann", "bob", "cid", "oslo", "rome", "lima"};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Per-cluster visible probabilities at the table's committed version, in
/// row-position order, keyed by the identifier's display form.
std::map<std::string, std::vector<double>> VisibleClusterProbs(
    const Table& t, size_t id_col, size_t prob_col) {
  std::map<std::string, std::vector<double>> out;
  for (size_t pos : t.VisibleRowPositions(t.committed_version())) {
    Value id = t.ValueAt(pos, id_col);
    if (id.is_null()) continue;
    out[id.ToString()].push_back(t.ValueAt(pos, prob_col).AsDouble());
  }
  return out;
}

// ---------------------------------------------------------------------------
// End-to-end: write sequences through Database::ExecuteWrite with the
// maintenance hook installed.
// ---------------------------------------------------------------------------

class IncrementalWriteTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    TableSchema people("people", {{"id", DataType::kString},
                                  {"name", DataType::kString},
                                  {"city", DataType::kString},
                                  {"prob", DataType::kDouble}});
    ASSERT_TRUE(db_.CreateTable(people).ok());
    ASSERT_TRUE(dirty_.AddTable({"people", "id", "prob", {}}).ok());
    ASSERT_TRUE(InstallIncrementalMaintenance(&db_, &dirty_).ok());

    // Three multi-member clusters (uniform, normalized) plus a singleton.
    // Attribute values are deterministic and distinct within each cluster,
    // so a DELETE on (id, name, city) hits exactly one row.
    std::vector<Row> rows;
    for (int k = 0; k < 3; ++k) {
      int members = 2 + k;  // sizes 2, 3, 4
      for (int m = 0; m < members; ++m) {
        rows.push_back({Value::String("c" + std::to_string(k)),
                        Value::String(kWords[m % 3]),
                        Value::String(kWords[3 + (m + k) % 3]),
                        Value::Double(1.0 / members)});
      }
    }
    rows.push_back({Value::String("c3"), Value::String("cid"),
                    Value::String("lima"), Value::Double(1.0)});
    ASSERT_TRUE(db_.InsertMany("people", std::move(rows)).ok());
    ASSERT_TRUE(db_.Analyze("people").ok());
  }

  std::string RandomWrite(Rng* rng) {
    std::string id = "c" + std::to_string(rng->Uniform(0, 3));
    auto word = [&] { return std::string(kWords[rng->Uniform(0, 5)]); };
    switch (rng->Uniform(0, 2)) {
      case 0:
        return "insert into people values ('" + id + "', '" + word() +
               "', '" + word() + "', 0.5)";
      case 1:
        return "update people set city = '" + word() + "' where id = '" +
               id + "'";
      default:
        return "delete from people where id = '" + id + "' and name = '" +
               word() + "'";
    }
  }

  Database db_;
  DirtySchema dirty_;
};

TEST_P(IncrementalWriteTest, WriteSequencesKeepEveryClusterNormalized) {
  auto table = db_.GetTable("people");
  ASSERT_TRUE(table.ok());
  Rng rng(GetParam());
  for (int step = 0; step < 12; ++step) {
    auto before = VisibleClusterProbs(**table, 0, 3);
    std::vector<Value> touched;
    std::string sql = RandomWrite(&rng);
    auto rs = db_.ExecuteWrite(sql, &touched);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString() << " for: " << sql;

    auto after = VisibleClusterProbs(**table, 0, 3);
    std::map<std::string, bool> was_touched;
    for (const Value& id : touched) {
      if (!id.is_null()) was_touched[id.ToString()] = true;
    }
    for (const auto& [id, probs] : after) {
      // Dfn 2 invariant: every visible cluster stays normalized.
      double sum = 0;
      for (double p : probs) sum += p;
      EXPECT_NEAR(sum, 1.0, 1e-12)
          << "cluster " << id << " after step " << step << ": " << sql;
      // Untouched clusters must be bitwise stable — incremental
      // maintenance may not perturb probabilities it had no reason to
      // recompute.
      if (was_touched.count(id) != 0) continue;
      auto it = before.find(id);
      ASSERT_NE(it, before.end()) << "cluster " << id << " appeared without "
                                  << "being touched by: " << sql;
      ASSERT_EQ(it->second.size(), probs.size()) << "cluster " << id;
      for (size_t i = 0; i < probs.size(); ++i) {
        EXPECT_TRUE(SameBits(it->second[i], probs[i]))
            << "cluster " << id << " member " << i << " drifted from "
            << it->second[i] << " to " << probs[i] << " under: " << sql;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalWriteTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST_F(IncrementalWriteTest, DeleteLeavingSingletonMakesItCertain) {
  // c0 has two members; delete one by its attribute value.
  auto table = db_.GetTable("people");
  ASSERT_TRUE(table.ok());
  Row victim = (*table)->row(0);
  std::string sql = "delete from people where id = 'c0' and name = " +
                    victim[1].ToSqlLiteral() + " and city = " +
                    victim[2].ToSqlLiteral();
  auto rs = db_.ExecuteWrite(sql);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows[0][0].int_value(), 1);

  auto probs = VisibleClusterProbs(**table, 0, 3);
  ASSERT_EQ(probs["c0"].size(), 1u);
  EXPECT_EQ(probs["c0"][0], 1.0);
}

TEST_F(IncrementalWriteTest, InsertIntoClusterRedistributesItsMass) {
  auto table = db_.GetTable("people");
  ASSERT_TRUE(table.ok());
  // The new member's deliberately wrong literal probability (0.5) must be
  // overwritten by renormalization, not trusted.
  auto rs = db_.ExecuteWrite(
      "insert into people values ('c1', 'ann', 'oslo', 0.5)");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();

  auto probs = VisibleClusterProbs(**table, 0, 3);
  ASSERT_EQ(probs["c1"].size(), 4u);
  double sum = 0;
  for (double p : probs["c1"]) {
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, 1.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(InstallIncrementalMaintenanceTest, HooksSurviveDirtySchemaChanges) {
  Database db;
  auto dirty = std::make_unique<DirtySchema>();
  ASSERT_TRUE(db.CreateTable(TableSchema("people",
                                         {{"id", DataType::kString},
                                          {"name", DataType::kString},
                                          {"prob", DataType::kDouble}}))
                  .ok());
  ASSERT_TRUE(dirty->AddTable({"people", "id", "prob", {}}).ok());
  ASSERT_TRUE(InstallIncrementalMaintenance(&db, dirty.get()).ok());
  // Registering more tables reallocates the schema's table vector, and the
  // schema may go away entirely: the installed hooks must not care.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        dirty->AddTable({"other" + std::to_string(i), "id", "prob", {}}).ok());
  }
  dirty.reset();

  ASSERT_TRUE(db.InsertMany("people", {{Value::String("c0"),
                                        Value::String("ann"),
                                        Value::Double(0.5)},
                                       {Value::String("c0"),
                                        Value::String("bob"),
                                        Value::Double(0.5)}})
                  .ok());
  auto rs = db.ExecuteWrite("delete from people where name = 'bob'");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  auto table = db.GetTable("people");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(VisibleClusterProbs(**table, 0, 2)["c0"],
            std::vector<double>{1.0});
}

// ---------------------------------------------------------------------------
// Direct ReassignClusters unit tests.
// ---------------------------------------------------------------------------

const DirtyTableInfo kInfo{"t", "id", "prob", {}};
const DirtyTableInfo kPeopleInfo{"people", "id", "prob", {}};

std::unique_ptr<Table> TwoClusterTable() {
  auto table = std::make_unique<Table>(
      TableSchema("t", {{"id", DataType::kString},
                        {"a", DataType::kString},
                        {"b", DataType::kString},
                        {"prob", DataType::kDouble}}));
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(table
                    ->Insert({Value::String("c0"), Value::String("ann"),
                              Value::String("oslo"), Value::Double(0.5)})
                    .ok());
  }
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(table
                    ->Insert({Value::String("c1"), Value::String("bob"),
                              Value::String("rome"), Value::Double(0.5)})
                    .ok());
  }
  return table;
}

TEST(ReassignClustersTest, NullIdentifierInsertJoinsNearestCluster) {
  auto table = TwoClusterTable();
  uint64_t v = table->BeginWrite();
  ASSERT_TRUE(table
                  ->InsertVersioned({Value::Null(), Value::String("ann"),
                                     Value::String("oslo"),
                                     Value::Double(0.5)},
                                    v)
                  .ok());
  table->CommitWrite(v);

  auto n = ReassignClusters(table.get(), kInfo, {Value::Null()}, v);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  // The new row duplicates c0 exactly, so it must join c0 (distance 0) and
  // c0 must be renormalized over its three members.
  EXPECT_EQ(table->ValueAt(4, 0).ToString(), "c0");
  auto probs = VisibleClusterProbs(*table, 0, 3);
  ASSERT_EQ(probs["c0"].size(), 3u);
  double sum = 0;
  for (double p : probs["c0"]) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // c1 was never touched: still exactly 0.5 / 0.5.
  ASSERT_EQ(probs["c1"].size(), 2u);
  EXPECT_TRUE(SameBits(probs["c1"][0], 0.5));
  EXPECT_TRUE(SameBits(probs["c1"][1], 0.5));
}

TEST(ReassignClustersTest, NullIdentifierOutlierFoundsSingletonCluster) {
  auto table = TwoClusterTable();
  uint64_t v = table->BeginWrite();
  ASSERT_TRUE(table
                  ->InsertVersioned({Value::Null(), Value::String("zephyr"),
                                     Value::String("quux"),
                                     Value::Double(0.5)},
                                    v)
                  .ok());
  table->CommitWrite(v);

  auto n = ReassignClusters(table.get(), kInfo, {Value::Null()}, v);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  Value id = table->ValueAt(4, 0);
  ASSERT_FALSE(id.is_null());
  EXPECT_NE(id.ToString(), "c0");
  EXPECT_NE(id.ToString(), "c1");
  // A fresh singleton is certain.
  EXPECT_EQ(table->ValueAt(4, 3).AsDouble(), 1.0);
}

TEST(ReassignClustersTest, FreshIdentifierSkipsExistingClusterIds) {
  // Identifiers are user data: the first fresh-id candidate is
  // "m<visible-count>", and a pre-existing cluster already named that must
  // not silently absorb the unmatched insert (nor get renormalized with a
  // foreign member).
  auto table = std::make_unique<Table>(
      TableSchema("t", {{"id", DataType::kString},
                        {"a", DataType::kString},
                        {"b", DataType::kString},
                        {"prob", DataType::kDouble}}));
  for (int i = 0; i < 2; ++i) {
    // Five rows will be visible after the insert, so "m5" collides.
    ASSERT_TRUE(table
                    ->Insert({Value::String("m5"), Value::String("ann"),
                              Value::String("oslo"), Value::Double(0.5)})
                    .ok());
    ASSERT_TRUE(table
                    ->Insert({Value::String("c1"), Value::String("bob"),
                              Value::String("rome"), Value::Double(0.5)})
                    .ok());
  }
  uint64_t v = table->BeginWrite();
  ASSERT_TRUE(table
                  ->InsertVersioned({Value::Null(), Value::String("zephyr"),
                                     Value::String("quux"),
                                     Value::Double(0.5)},
                                    v)
                  .ok());
  table->CommitWrite(v);

  auto n = ReassignClusters(table.get(), kInfo, {Value::Null()}, v);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  Value id = table->ValueAt(4, 0);
  ASSERT_FALSE(id.is_null());
  EXPECT_NE(id.ToString(), "m5");
  EXPECT_NE(id.ToString(), "c1");
  EXPECT_EQ(table->ValueAt(4, 3).AsDouble(), 1.0);  // singleton is certain
  // The colliding cluster was never touched: bitwise stable.
  auto probs = VisibleClusterProbs(*table, 0, 3);
  ASSERT_EQ(probs["m5"].size(), 2u);
  EXPECT_TRUE(SameBits(probs["m5"][0], 0.5));
  EXPECT_TRUE(SameBits(probs["m5"][1], 0.5));
}

TEST(ReassignClustersTest, FullyDeletedClusterIsSkipped) {
  auto table = TwoClusterTable();
  uint64_t v = table->BeginWrite();
  table->MarkRowDead(0, v);
  table->MarkRowDead(1, v);
  table->CommitWrite(v);

  auto n = ReassignClusters(table.get(), kInfo, {Value::String("c0")}, v);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 0u);  // nothing visible left to renormalize
  auto probs = VisibleClusterProbs(*table, 0, 3);
  EXPECT_EQ(probs.count("c0"), 0u);
  ASSERT_EQ(probs["c1"].size(), 2u);
  EXPECT_TRUE(SameBits(probs["c1"][0], 0.5));
}

TEST(ReassignClustersTest, InjectedFaultLeavesFirstTouchedClusterStale) {
  auto table = TwoClusterTable();
  // Shrink both clusters to singletons in one "statement".
  uint64_t v = table->BeginWrite();
  table->MarkRowDead(1, v);
  table->MarkRowDead(3, v);
  table->CommitWrite(v);
  const std::vector<Value> touched = {Value::String("c0"),
                                      Value::String("c1")};

  SetIncrementalFaultInjection(IncrementalFault::kSkipFirstCluster);
  auto n = ReassignClusters(table.get(), kInfo, touched, v);
  SetIncrementalFaultInjection(IncrementalFault::kNone);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 1u);
  // The off-by-one skipped c0: its survivor keeps the stale 0.5 while c1's
  // survivor was correctly promoted to certainty.
  EXPECT_EQ(table->ValueAt(0, 3).AsDouble(), 0.5);
  EXPECT_EQ(table->ValueAt(2, 3).AsDouble(), 1.0);

  // Without the fault the same reassignment repairs c0.
  auto again = ReassignClusters(table.get(), kInfo, touched, v);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 2u);
  EXPECT_EQ(table->ValueAt(0, 3).AsDouble(), 1.0);
}

TEST(ReassignClustersTest, TableWithoutProbColumnIsRejected) {
  auto table = TwoClusterTable();
  DirtyTableInfo clean{"t", "id", "", {}};
  auto n = ReassignClusters(table.get(), clean, {Value::String("c0")},
                            table->committed_version());
  EXPECT_FALSE(n.ok());
}

// ---------------------------------------------------------------------------
// Batch and incremental assignment are one computation: ReassignClusters
// over every visible identifier, in first-visible order at the committed
// version, leaves the probability column AssignProbabilities leaves.
// ---------------------------------------------------------------------------

/// Runs AssignProbabilities on `batch` and ReassignClusters on `incremental`
/// (two identically built copies of the same table) and checks that every
/// physical row's probability cell matches bit for bit.
void ExpectBatchEqualsIncremental(Table* batch, Table* incremental,
                                  const DirtyTableInfo& info) {
  auto details = AssignProbabilities(batch, info);
  ASSERT_TRUE(details.ok()) << details.status().ToString();

  const uint64_t snapshot = incremental->committed_version();
  auto id_col = incremental->schema().GetColumnIndex(info.id_column);
  ASSERT_TRUE(id_col.ok());
  std::vector<Value> ids;
  std::unordered_set<Value, ValueHash> seen;
  for (size_t pos : incremental->VisibleRowPositions(snapshot)) {
    Value id = incremental->ValueAt(pos, *id_col);
    ASSERT_FALSE(id.is_null()) << info.table_name << " row " << pos;
    if (seen.insert(id).second) ids.push_back(std::move(id));
  }
  auto n = ReassignClusters(incremental, info, ids, snapshot);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, ids.size());

  auto prob_col = batch->schema().GetColumnIndex(info.prob_column);
  ASSERT_TRUE(prob_col.ok());
  ASSERT_EQ(batch->num_rows(), incremental->num_rows());
  for (size_t r = 0; r < batch->num_rows(); ++r) {
    const Value a = batch->ValueAt(r, *prob_col);
    const Value b = incremental->ValueAt(r, *prob_col);
    ASSERT_EQ(a.is_null(), b.is_null()) << info.table_name << " row " << r;
    if (a.is_null()) continue;
    ASSERT_TRUE(SameBits(a.AsDouble(), b.AsDouble()))
        << info.table_name << " row " << r << ": batch " << a.AsDouble()
        << " vs incremental " << b.AsDouble();
  }
}

/// The IncrementalWriteTest data written through ExecuteWrite without a
/// maintenance hook: updated, deleted and inserted versions interleave the
/// clusters' rows.
std::unique_ptr<Database> WrittenPeopleDatabase() {
  auto db = std::make_unique<Database>();
  EXPECT_TRUE(db->CreateTable(TableSchema("people",
                                          {{"id", DataType::kString},
                                           {"name", DataType::kString},
                                           {"city", DataType::kString},
                                           {"prob", DataType::kDouble}}))
                  .ok());
  std::vector<Row> rows;
  for (int k = 0; k < 3; ++k) {
    for (int m = 0; m < 2 + k; ++m) {
      rows.push_back({Value::String("c" + std::to_string(k)),
                      Value::String(kWords[m % 3]),
                      Value::String(kWords[3 + (m + k) % 3]),
                      Value::Double(0.25)});
    }
  }
  EXPECT_TRUE(db->InsertMany("people", std::move(rows)).ok());
  for (const char* sql :
       {"update people set city = 'lima' where id = 'c2' and name = 'ann'",
        "delete from people where id = 'c1' and name = 'bob'",
        "insert into people values ('c0', 'cid', 'rome', 0.5)",
        "insert into people values ('c3', 'bob', 'oslo', 0.5)",
        "update people set id = 'c1' where id = 'c0' and name = 'bob'"}) {
    EXPECT_TRUE(db->ExecuteWrite(sql).ok()) << sql;
  }
  return db;
}

TEST(BatchIncrementalEquivalenceTest, WrittenTable) {
  auto batch = WrittenPeopleDatabase();
  auto incremental = WrittenPeopleDatabase();
  auto a = batch->GetTable("people");
  auto b = incremental->GetTable("people");
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectBatchEqualsIncremental(*a, *b, kPeopleInfo);
}

TEST(BatchIncrementalEquivalenceTest, TpchDirtyTables) {
  TpchDirtyConfig config;
  config.scale_factor = 0.002;
  config.fill_probabilities = false;
  auto batch = MakeTpchDirtyDatabase(config);
  auto incremental = MakeTpchDirtyDatabase(config);
  ASSERT_TRUE(batch.ok() && incremental.ok());
  size_t dirty_tables = 0;
  for (const DirtyTableInfo& info : batch->dirty.tables()) {
    if (info.prob_column.empty()) continue;
    SCOPED_TRACE(info.table_name);
    auto a = batch->db->GetTable(info.table_name);
    auto b = incremental->db->GetTable(info.table_name);
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectBatchEqualsIncremental(*a, *b, info);
    ++dirty_tables;
  }
  EXPECT_GE(dirty_tables, 6u);
}

}  // namespace
}  // namespace conquer
