// Property tests for incremental probability maintenance: after any
// sequence of SQL writes through Database::ExecuteWrite, every visible
// cluster's probabilities sum to 1 (within 1e-12) and clusters a write did
// not touch keep bit-identical probabilities. The direct ReassignClusters
// tests cover NULL-identifier matching, fully-deleted clusters, and the
// injected off-by-one fault the fuzzer's self-test relies on; later
// sections pin that batch and incremental assignment are one computation
// and that NULL-identifier matching leaves what a per-row rebuild of every
// representative leaves, bit for bit, under every identity rule of the
// value space, under a memory budget and for every identifier type.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "gen/tpch_dirty.h"
#include "prob/assigner.h"
#include "prob/dcf.h"
#include "prob/incremental.h"
#include "storage/buffer_pool.h"
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

// ---------------------------------------------------------------------------
// NULL-identifier matching against a reference: the loop as the engine ran it
// before it pruned and cached, where every NULL-id row rebuilds every
// cluster's representative from the table and interns all visible rows
// again into one value space. Pruning by the lower bound and ordering values
// by first-meet positions instead of interning must leave the same
// identifiers and the same probability bits.
// ---------------------------------------------------------------------------

/// V by its definition, apart from the CellElement and ValueSpace code
/// under test: (attribute, Value::ToString()) pairs ranked in first-intern
/// order.
class ReferenceSpace {
 public:
  /// Appends the indices of row `pos`'s values of `attrs`, interned in
  /// attribute order.
  void InternRow(const Table& table, size_t pos,
                 const std::vector<size_t>& attrs,
                 std::vector<uint32_t>* out) {
    RowCursor cursor(&table);
    cursor.Touch(pos);
    for (size_t a = 0; a < attrs.size(); ++a) {
      const std::string spelling = cursor.ValueAt(pos, attrs[a]).ToString();
      out->push_back(
          rank_.emplace(std::make_pair(a, spelling),
                        static_cast<uint32_t>(rank_.size()))
              .first->second);
    }
  }

  Dcf TupleDcf(const Table& table, size_t pos,
               const std::vector<size_t>& attrs) {
    std::vector<uint32_t> indices;
    InternRow(table, pos, attrs, &indices);
    return Dcf::ForTuple(std::move(indices));
  }

  /// The representative of `rows`, each interned in turn.
  Dcf Representative(const Table& table, const std::vector<size_t>& rows,
                     const std::vector<size_t>& attrs) {
    std::vector<Dcf> tuples;
    for (size_t pos : rows) tuples.push_back(TupleDcf(table, pos, attrs));
    return Dcf::MergeAll(tuples);
  }

 private:
  std::map<std::pair<size_t, std::string>, uint32_t> rank_;
};

using ReferenceMembers =
    std::unordered_map<Value, std::vector<size_t>, ValueHash>;

Result<Value> ReferenceFreshIdentifier(const Table& table, size_t id_col,
                                       const std::vector<size_t>& visible,
                                       const ReferenceMembers& members,
                                       size_t* counter) {
  const DataType type = table.schema().column(id_col).type;
  if (type == DataType::kString) {
    while (true) {
      Value cand =
          Value::String("m" + std::to_string(visible.size() + (*counter)++));
      if (members.find(cand) == members.end()) return cand;
    }
  }
  if (type == DataType::kBool) {
    for (bool b : {false, true}) {
      if (members.find(Value::Bool(b)) == members.end()) return Value::Bool(b);
    }
    return Status::ResourceExhausted("both BOOL values are taken");
  }
  if (type == DataType::kDouble) {
    double max_id = 0.0;
    for (size_t pos : visible) {
      Value v = table.ValueAt(pos, id_col);
      if (!v.is_null()) max_id = std::max(max_id, v.double_value());
    }
    while (true) {
      Value cand =
          Value::Double(max_id + 1.0 + static_cast<double>((*counter)++));
      if (members.find(cand) == members.end()) return cand;
    }
  }
  int64_t max_id = 0;
  for (size_t pos : visible) {
    Value v = table.ValueAt(pos, id_col);
    if (!v.is_null()) max_id = std::max(max_id, v.int_value());
  }
  while (true) {
    Value cand = Value::Int(max_id + 1 + static_cast<int64_t>((*counter)++));
    if (members.find(cand) == members.end()) return cand;
  }
}

Result<size_t> ReferenceReassignClusters(Table* table,
                                         const DirtyTableInfo& info,
                                         const std::vector<Value>& touched_ids,
                                         uint64_t snapshot) {
  const double merge_threshold = IncrementalOptions().merge_threshold;
  CONQUER_ASSIGN_OR_RETURN(size_t id_col,
                           table->schema().GetColumnIndex(info.id_column));
  CONQUER_ASSIGN_OR_RETURN(size_t prob_col,
                           table->schema().GetColumnIndex(info.prob_column));
  CONQUER_ASSIGN_OR_RETURN(std::vector<size_t> attrs,
                           ResolveAttributeColumns(*table, info));
  const std::vector<size_t> visible = table->VisibleRowPositions(snapshot);
  const double total_weight = static_cast<double>(visible.size());
  std::vector<Value> touched;
  std::unordered_set<Value, ValueHash> touched_set;
  bool touched_null = false;
  for (const Value& id : touched_ids) {
    if (id.is_null()) {
      touched_null = true;
      continue;
    }
    if (touched_set.insert(id).second) touched.push_back(id);
  }
  ReferenceMembers members;
  std::vector<size_t> null_rows;
  for (size_t pos : visible) {
    Value id = table->ValueAt(pos, id_col);
    if (id.is_null()) {
      null_rows.push_back(pos);
    } else {
      members[std::move(id)].push_back(pos);
    }
  }
  ReferenceSpace space;
  std::vector<StagedWrite> staged;
  if (touched_null && !null_rows.empty()) {
    size_t fresh_counter = 0;
    for (size_t pos : null_rows) {
      Dcf tuple = space.TupleDcf(*table, pos, attrs);
      const Value* best_id = nullptr;
      double best_dist = merge_threshold;
      for (const auto& [id, rows] : members) {
        const Dcf rep = space.Representative(*table, rows, attrs);
        double d =
            InformationLossDistance(tuple, rep, tuple.weight + rep.weight);
        if (d <= best_dist) {
          best_dist = d;
          best_id = &id;
        }
      }
      Value assigned;
      if (best_id != nullptr) {
        assigned = *best_id;
      } else {
        CONQUER_ASSIGN_OR_RETURN(
            assigned, ReferenceFreshIdentifier(*table, id_col, visible,
                                               members, &fresh_counter));
      }
      staged.push_back({pos, id_col, assigned});
      members[assigned].push_back(pos);
      if (touched_set.insert(assigned).second) touched.push_back(assigned);
    }
  }
  size_t renormalized = 0;
  for (const Value& id : touched) {
    auto it = members.find(id);
    if (it == members.end()) continue;
    std::vector<uint32_t> indices;  // a singleton interns nothing
    if (it->second.size() > 1) {
      for (size_t pos : it->second) {
        space.InternRow(*table, pos, attrs, &indices);
      }
    }
    for (const TupleProbability& t :
         InformationLossProbabilities(it->second, indices, total_weight)) {
      staged.push_back({t.row, prob_col, Value::Double(t.probability)});
    }
    ++renormalized;
  }
  ApplyStagedWrites(table, staged);
  return renormalized;
}

const DirtyTableInfo kRandomInfo{"r", "id", "prob", {}};

/// One row of the random table below under identifier `id`.
Row RandomRow(Rng* rng, const Value& id) {
  auto maybe_null = [&](Value v) {
    return rng->Chance(0.1) ? Value::Null() : std::move(v);
  };
  return {id,
          maybe_null(Value::String(kWords[rng->Uniform(0, 5)])),
          maybe_null(Value::Int(rng->Uniform(0, 4))),
          maybe_null(Value::Double(123456.0 + rng->Uniform(0, 3) * 0.4)),
          maybe_null(Value::Date(9000 + rng->Uniform(0, 2))),
          Value::Double(0.0)};
}

/// A random clustered table: clusters of 1-7 rows whose members share
/// attribute values drawn from small domains (strings, integers, doubles
/// that collide at six digits, dates, NULLs), probabilities assigned by the
/// batch pass.
std::unique_ptr<Table> RandomClusteredTable(Rng* rng, DataType id_type,
                                            size_t chunk_capacity,
                                            BufferPool* pool = nullptr) {
  auto table = std::make_unique<Table>(
      TableSchema("r", {{"id", id_type},
                        {"s", DataType::kString},
                        {"n", DataType::kInt64},
                        {"x", DataType::kDouble},
                        {"d", DataType::kDate},
                        {"prob", DataType::kDouble}}),
      chunk_capacity);
  table->AttachBufferPool(pool);
  const int64_t clusters = rng->Uniform(3, 40);
  for (int64_t c = 0; c < clusters; ++c) {
    const Value id = id_type == DataType::kString
                         ? Value::String("c" + std::to_string(c))
                         : Value::Int(c * 3 + 1);
    const int64_t members = rng->Uniform(1, 7);
    for (int64_t m = 0; m < members; ++m) {
      EXPECT_TRUE(table->Insert(RandomRow(rng, id)).ok());
    }
  }
  EXPECT_TRUE(AssignProbabilities(table.get(), kRandomInfo).ok());
  return table;
}

/// Every cell of the identifier (first) and probability (last) columns of
/// `got` equals `want`'s, the probabilities bit for bit.
void ExpectSameIdsAndProbabilities(const Table& got, const Table& want) {
  const size_t prob = got.schema().num_columns() - 1;
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (size_t r = 0; r < got.num_rows(); ++r) {
    const Value a = got.ValueAt(r, 0);
    const Value b = want.ValueAt(r, 0);
    ASSERT_EQ(a.type(), b.type()) << "row " << r;
    ASSERT_TRUE(a.is_null() || a == b)
        << "row " << r << ": " << a.ToString() << " vs " << b.ToString();
    const Value pa = got.ValueAt(r, prob);
    const Value pb = want.ValueAt(r, prob);
    ASSERT_EQ(pa.is_null(), pb.is_null()) << "row " << r;
    if (!pa.is_null()) {
      ASSERT_TRUE(SameBits(pa.AsDouble(), pb.AsDouble()))
          << "row " << r << ": " << pa.AsDouble() << " vs " << pb.AsDouble();
    }
  }
}

/// Inserts `rows` (identifier NULL) as one write into both tables, runs
/// ReassignClusters on `got` and the reference on `want`, and compares
/// every cell of the identifier and probability columns.
void InsertAndCompare(Table* got, Table* want, const std::vector<Row>& rows) {
  std::vector<Value> touched;
  for (Table* t : {got, want}) {
    const uint64_t v = t->BeginWrite();
    for (const Row& row : rows) {
      ASSERT_TRUE(t->InsertVersioned(row, v).ok());
    }
    t->CommitWrite(v);
  }
  for (const Row& row : rows) touched.push_back(row[0]);
  auto n =
      ReassignClusters(got, kRandomInfo, touched, got->committed_version());
  auto m = ReferenceReassignClusters(want, kRandomInfo, touched,
                                     want->committed_version());
  ASSERT_TRUE(n.ok() && m.ok());
  EXPECT_EQ(*n, *m);
  ExpectSameIdsAndProbabilities(*got, *want);
}

class NullIdMatchReferenceTest
    : public ::testing::TestWithParam<std::tuple<DataType, uint64_t>> {};

/// Eight writes of one to three NULL-id rows into both tables, compared
/// after each: copies of stored rows (which join their cluster or tie
/// between identical ones), perturbed by `perturb` half of the time, or
/// fresh rows from `fresh`.
void RunNullIdWrites(Rng* rng, Table* got, Table* want,
                     const std::function<void(Rng*, Row*)>& perturb,
                     const std::function<Row(Rng*)>& fresh) {
  for (int write = 0; write < 8; ++write) {
    SCOPED_TRACE("write " + std::to_string(write));
    std::vector<Row> rows;
    const int64_t k = rng->Uniform(1, 3);
    for (int64_t i = 0; i < k; ++i) {
      if (rng->Chance(0.6)) {
        Row copy = got->row(static_cast<size_t>(
            rng->Uniform(0, static_cast<int64_t>(got->num_rows()) - 1)));
        copy[0] = Value::Null();
        if (rng->Chance(0.5)) perturb(rng, &copy);
        rows.push_back(std::move(copy));
      } else {
        rows.push_back(fresh(rng));
      }
    }
    InsertAndCompare(got, want, rows);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

void PerturbInteger(Rng* rng, Row* row) {
  (*row)[2] = Value::Int(rng->Uniform(0, 4));
}

Row RandomNullIdRow(Rng* rng) { return RandomRow(rng, Value::Null()); }

TEST_P(NullIdMatchReferenceTest, SameIdentifiersAndProbabilityBits) {
  const auto [id_type, seed] = GetParam();
  Rng rng(seed);
  const size_t capacity = seed % 2 == 0 ? 7 : Table::kDefaultChunkCapacity;
  Rng twin = rng;
  auto got = RandomClusteredTable(&rng, id_type, capacity);
  auto want = RandomClusteredTable(&twin, id_type, capacity);
  RunNullIdWrites(&rng, got.get(), want.get(), PerturbInteger,
                  RandomNullIdRow);
}

// The same comparison on tables attached to a buffer pool whose budget is
// below one chunk: every unpinned chunk is evicted, so a read outside a pin
// trips the Debug residency assertions, or ASan's poisoning of the blocks a
// pin did not fault.
TEST_P(NullIdMatchReferenceTest, SameBitsUnderABudgetBelowOneChunk) {
  const auto [id_type, seed] = GetParam();
  BufferPool pool(1);
  Rng rng(seed);
  Rng twin = rng;
  auto got = RandomClusteredTable(&rng, id_type, 7, &pool);
  auto want = RandomClusteredTable(&twin, id_type, 7);
  RunNullIdWrites(&rng, got.get(), want.get(), PerturbInteger,
                  RandomNullIdRow);
  EXPECT_GT(pool.stats().chunks_evicted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, NullIdMatchReferenceTest,
    ::testing::Combine(::testing::Values(DataType::kString, DataType::kInt64),
                       ::testing::Range<uint64_t>(1, 9)));

// Two clusters with identical members are at exactly the same distance from
// a copy of their rows: the tie goes to the one the membership map visits
// last, in both implementations.
TEST(NullIdMatchReferenceTest, ExactTieBetweenTwoClusters) {
  for (DataType id_type : {DataType::kString, DataType::kInt64}) {
    auto make = [&] {
      auto t = std::make_unique<Table>(TableSchema(
          "r", {{"id", id_type},
                {"s", DataType::kString},
                {"n", DataType::kInt64},
                {"x", DataType::kDouble},
                {"d", DataType::kDate},
                {"prob", DataType::kDouble}}));
      for (int c = 0; c < 2; ++c) {
        const Value id = id_type == DataType::kString
                             ? Value::String("c" + std::to_string(c))
                             : Value::Int(c + 10);
        for (int m = 0; m < 2; ++m) {
          EXPECT_TRUE(t->Insert({id, Value::String(kWords[m]), Value::Int(m),
                                 Value::Double(1.5), Value::Date(9000),
                                 Value::Double(0.5)})
                          .ok());
        }
      }
      return t;
    };
    auto got = make();
    auto want = make();
    const Row dup = {Value::Null(), Value::String(kWords[0]), Value::Int(1),
                     Value::Double(1.5), Value::Date(9000), Value::Null()};
    InsertAndCompare(got.get(), want.get(), {dup});
    if (HasFatalFailure()) return;
    const Value joined = got->ValueAt(4, 0);
    EXPECT_TRUE(joined == got->ValueAt(0, 0) || joined == got->ValueAt(2, 0))
        << joined.ToString();
  }
}

// A multi-row INSERT whose first NULL row is an outlier: it founds a fresh
// cluster, and the second row, its copy, joins that cluster.
TEST(NullIdMatchReferenceTest, FirstRowFoundsTheClusterTheSecondJoins) {
  for (DataType id_type : {DataType::kString, DataType::kInt64}) {
    Rng rng(3);
    Rng twin = rng;
    auto got = RandomClusteredTable(&rng, id_type, 7);
    auto want = RandomClusteredTable(&twin, id_type, 7);
    const Row outlier = {Value::Null(), Value::String("zephyr"),
                         Value::Int(99), Value::Double(-1.0),
                         Value::Date(1), Value::Null()};
    InsertAndCompare(got.get(), want.get(), {outlier, outlier});
    if (HasFatalFailure()) return;
    const size_t first = got->num_rows() - 2;
    const Value fresh = got->ValueAt(first, 0);
    ASSERT_FALSE(fresh.is_null());
    EXPECT_TRUE(fresh == got->ValueAt(first + 1, 0));
    EXPECT_EQ(got->ValueAt(first, 5).AsDouble(), 0.5);
  }
}


// ---------------------------------------------------------------------------
// Every identity rule of V that NULL-identifier matching must reproduce
// without a value space, against the reference's (attribute, ToString())
// ranks.
// ---------------------------------------------------------------------------

/// A value from a small pool per type, so clusters share values and every
/// identity rule decides some match: the text 'NULL' beside NULL cells;
/// doubles that share a six-digit spelling (999999.5, 1e6 and 1000004 are
/// all "1e+06", across a decade; 123456.78 and 123457.2 are "123457"); -0
/// beside 0; NaNs of both signs; both infinities; BOOL and DATE payloads.
Value TrickyValue(Rng* rng, DataType type) {
  if (rng->Chance(0.15)) return Value::Null();
  switch (type) {
    case DataType::kString: {
      static const char* kTexts[] = {"NULL", "null", "ann", "bob"};
      return Value::String(kTexts[rng->Uniform(0, 3)]);
    }
    case DataType::kDouble: {
      const double inf = std::numeric_limits<double>::infinity();
      const double nan = std::numeric_limits<double>::quiet_NaN();
      const double kDoubles[] = {999999.5,  1e6,      1000004.0,
                                 999999.4,  123456.78, 123457.2,
                                 123456.4,  -0.0,     0.0,
                                 nan,       -nan,     inf,
                                 -inf};
      return Value::Double(kDoubles[rng->Uniform(0, 12)]);
    }
    case DataType::kBool:
      return Value::Bool(rng->Chance(0.5));
    case DataType::kDate:
      return Value::Date(9000 + rng->Uniform(0, 2));
    default:
      return Value::Int(rng->Uniform(0, 3));
  }
}

/// Schema "r": the identifier, one attribute per type in `attrs`, prob.
TableSchema TrickySchema(DataType id_type, const std::vector<DataType>& attrs) {
  std::vector<ColumnDef> cols = {{"id", id_type}};
  for (size_t a = 0; a < attrs.size(); ++a) {
    cols.push_back({"a" + std::to_string(a), attrs[a]});
  }
  cols.push_back({"prob", DataType::kDouble});
  return TableSchema("r", std::move(cols));
}

/// A row of TrickySchema: `base`'s attributes, each redrawn with
/// probability `redraw`.
Row TrickyRow(Rng* rng, const TableSchema& schema, const Value& id,
              const Row& base, double redraw) {
  Row row = {id};
  for (size_t c = 1; c + 1 < schema.num_columns(); ++c) {
    row.push_back(base.empty() || rng->Chance(redraw)
                      ? TrickyValue(rng, schema.column(c).type)
                      : base[c]);
  }
  row.push_back(Value::Double(0.0));
  return row;
}

/// Clusters of one to five members drawn around a random base row.
std::vector<Row> TrickyClusters(Rng* rng, const TableSchema& schema) {
  std::vector<Row> rows;
  const int64_t clusters = rng->Uniform(3, 30);
  for (int64_t c = 0; c < clusters; ++c) {
    const Value id = schema.column(0).type == DataType::kString
                         ? Value::String("c" + std::to_string(c))
                         : Value::Int(c * 3 + 1);
    const Row base = TrickyRow(rng, schema, id, {}, 1.0);
    const int64_t members = rng->Uniform(1, 5);
    for (int64_t m = 0; m < members; ++m) {
      rows.push_back(TrickyRow(rng, schema, id, base, 0.3));
    }
  }
  return rows;
}

/// A table holding `rows`, probabilities assigned by the batch pass.
std::unique_ptr<Table> TableOf(const TableSchema& schema,
                               const std::vector<Row>& rows, size_t capacity) {
  auto table = std::make_unique<Table>(schema, capacity);
  for (const Row& row : rows) EXPECT_TRUE(table->Insert(row).ok());
  EXPECT_TRUE(AssignProbabilities(table.get(), kRandomInfo).ok());
  return table;
}

class NullIdIdentityRuleTest
    : public ::testing::TestWithParam<std::tuple<DataType, uint64_t>> {};

TEST_P(NullIdIdentityRuleTest, SameIdentifiersAndProbabilityBits) {
  const auto [id_type, seed] = GetParam();
  const TableSchema schema =
      TrickySchema(id_type, {DataType::kString, DataType::kDouble,
                             DataType::kDouble, DataType::kBool,
                             DataType::kDate, DataType::kInt64});
  Rng rng(seed);
  const std::vector<Row> rows = TrickyClusters(&rng, schema);
  const size_t capacity = seed % 2 == 0 ? 5 : Table::kDefaultChunkCapacity;
  auto got = TableOf(schema, rows, capacity);
  auto want = TableOf(schema, rows, capacity);
  RunNullIdWrites(
      &rng, got.get(), want.get(),
      [&](Rng* r, Row* row) {
        const size_t c = static_cast<size_t>(
            r->Uniform(1, static_cast<int64_t>(schema.num_columns()) - 2));
        (*row)[c] = TrickyValue(r, schema.column(c).type);
      },
      [&](Rng* r) { return TrickyRow(r, schema, Value::Null(), {}, 1.0); });
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, NullIdIdentityRuleTest,
    ::testing::Combine(::testing::Values(DataType::kString, DataType::kInt64),
                       ::testing::Range<uint64_t>(1, 9)));

// More attributes than a 64-bit per-row mask holds. Copies differ from
// their source row mostly in the first 64 attributes, so a bound that
// dropped the matches past the 64th would prune the cluster they join, and
// positions that folded the attributes together would merge elements.
TEST(NullIdIdentityRuleTest, MoreThanSixtyFourAttributes) {
  std::vector<DataType> attrs;
  for (int a = 0; a < 100; ++a) {
    attrs.push_back(a % 2 == 0 ? DataType::kInt64 : DataType::kString);
  }
  const TableSchema schema = TrickySchema(DataType::kString, attrs);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::vector<Row> rows = TrickyClusters(&rng, schema);
    auto got = TableOf(schema, rows, 16);
    auto want = TableOf(schema, rows, 16);
    RunNullIdWrites(
        &rng, got.get(), want.get(),
        [&](Rng* r, Row* row) {
          for (size_t c = 1; c + 1 < schema.num_columns(); ++c) {
            if (c <= 64 && r->Chance(0.3)) {
              const int64_t novel = r->Uniform(100, 999);
              (*row)[c] = schema.column(c).type == DataType::kInt64
                              ? Value::Int(novel)
                              : Value::String("n" + std::to_string(novel));
            } else if (c > 64 && r->Chance(0.1)) {
              (*row)[c] = TrickyValue(r, schema.column(c).type);
            }
          }
        },
        [&](Rng* r) { return TrickyRow(r, schema, Value::Null(), {}, 1.0); });
    if (HasFatalFailure()) return;
  }
}

// A multi-row INSERT whose second NULL row's elements first occur in the
// first NULL row: copies of members of two clusters that share a new
// value. S places the first NULL row before every cluster and the second
// after them all, which neither row order nor placing the NULL rows
// together does.
TEST(NullIdIdentityRuleTest, SecondNullRowMeetsItsElementsInTheFirst) {
  const TableSchema schema = TrickySchema(
      DataType::kString, {DataType::kString, DataType::kDouble,
                          DataType::kInt64, DataType::kDate,
                          DataType::kString});
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::vector<Row> rows = TrickyClusters(&rng, schema);
    auto got = TableOf(schema, rows, 5);
    auto want = TableOf(schema, rows, 5);
    for (int write = 0; write < 4; ++write) {
      const auto pick = [&] {
        Row copy = rows[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(rows.size()) - 1))];
        copy[0] = Value::Null();
        copy[1] = Value::String("new" + std::to_string(write));
        return copy;
      };
      InsertAndCompare(got.get(), want.get(), {pick(), pick()});
      if (HasFatalFailure()) return;
    }
  }
}

/// A database holding table r, maintained by ReassignClusters or, when
/// `reference`, by ReferenceReassignClusters.
std::unique_ptr<Database> MaintainedDatabase(const TableSchema& schema,
                                             const std::vector<Row>& rows,
                                             bool reference) {
  auto db = std::make_unique<Database>();
  EXPECT_TRUE(db->CreateTable(schema).ok());
  EXPECT_TRUE(db->InsertMany("r", rows).ok());
  EXPECT_TRUE(AssignProbabilities(*db->GetTable("r"), kRandomInfo).ok());
  WriteMaintenanceHook hook;
  hook.id_column = "id";
  hook.after_write = [reference](Table* table,
                                 const std::vector<Value>& touched,
                                 uint64_t version) -> Status {
    return (reference
                ? ReferenceReassignClusters(table, kRandomInfo, touched,
                                            version)
                : ReassignClusters(table, kRandomInfo, touched, version))
        .status();
  };
  db->SetWriteHook("r", std::move(hook));
  return db;
}

/// Runs `sql` through ExecuteWrite on both databases and compares them.
void WriteBothAndCompare(Database* got, Database* want,
                         const std::string& sql) {
  SCOPED_TRACE(sql);
  auto a = got->ExecuteWrite(sql);
  auto b = want->ExecuteWrite(sql);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectSameIdsAndProbabilities(**got->GetTable("r"), **want->GetTable("r"));
}

/// Clusters c0..c5 of three members each, told apart by a0 ('m0'..'m2');
/// the other attributes come from the tricky pools.
std::vector<Row> ThreeMemberClusters(Rng* rng, const TableSchema& schema) {
  std::vector<Row> rows;
  for (int c = 0; c < 6; ++c) {
    const Value id = Value::String("c" + std::to_string(c));
    const Row base = TrickyRow(rng, schema, id, {}, 1.0);
    for (int m = 0; m < 3; ++m) {
      Row row = TrickyRow(rng, schema, id, base, 0.3);
      row[1] = Value::String("m" + std::to_string(m));
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

// An UPDATE that sets an identifier to NULL: the row is matched again, and
// its old cluster, renormalized in the same call, is ordered by S too.
TEST(NullIdIdentityRuleTest, UpdateToNullRenormalizesTheOldCluster) {
  const TableSchema schema = TrickySchema(
      DataType::kString, {DataType::kString, DataType::kDouble,
                          DataType::kBool, DataType::kDouble});
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::vector<Row> rows = ThreeMemberClusters(&rng, schema);
    auto got = MaintainedDatabase(schema, rows, false);
    auto want = MaintainedDatabase(schema, rows, true);
    for (const char* sql :
         {"update r set id = null where id = 'c2' and a0 = 'm0'",
          "update r set id = null where id = 'c4' and a0 <> 'm2'",
          "update r set id = null, a0 = 'm2' where id = 'c1' and a0 = 'm1'",
          // An outlier the old cluster's bound rules out: the cluster is
          // renormalized from positions no tuple pass supplied.
          "update r set id = null, a0 = 'zz', a1 = 4242.5, a2 = null, "
          "a3 = -1.5 where id = 'c3' and a0 = 'm0'"}) {
      WriteBothAndCompare(got.get(), want.get(), sql);
      if (HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Fresh identifiers of every identifier type, through ExecuteWrite.
// ---------------------------------------------------------------------------

/// A maintained database whose table r (id of `id_type`, s, prob) holds
/// `ids` with distinct names.
std::unique_ptr<Database> FreshIdDatabase(DataType id_type,
                                          const std::vector<Value>& ids,
                                          DirtySchema* dirty) {
  auto db = std::make_unique<Database>();
  EXPECT_TRUE(db->CreateTable(TableSchema("r", {{"id", id_type},
                                                {"s", DataType::kString},
                                                {"prob", DataType::kDouble}}))
                  .ok());
  EXPECT_TRUE(dirty->AddTable({"r", "id", "prob", {}}).ok());
  EXPECT_TRUE(InstallIncrementalMaintenance(db.get(), dirty).ok());
  std::vector<Row> rows;
  for (size_t i = 0; i < ids.size(); ++i) {
    rows.push_back({ids[i], Value::String(kWords[i % 6]), Value::Double(0.5)});
  }
  EXPECT_TRUE(db->InsertMany("r", std::move(rows)).ok());
  return db;
}

TEST(FreshIdentifierTest, DoubleIdentifiersTakeTheLargestPlusOne) {
  DirtySchema dirty;
  auto db = FreshIdDatabase(
      DataType::kDouble,
      {Value::Double(1.5), Value::Double(1.5), Value::Double(-7.25)}, &dirty);
  auto rs = db->ExecuteWrite("insert into r values (null, 'zzzzzz', null)");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  const Table& t = **db->GetTable("r");
  EXPECT_EQ(t.ValueAt(3, 0), Value::Double(2.5));
  EXPECT_EQ(t.ValueAt(3, 2).AsDouble(), 1.0);
  rs = db->ExecuteWrite(
      "insert into r values (null, 'yyyyyy', null), (null, 'xxxxxx', null)");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(t.ValueAt(4, 0), Value::Double(3.5));
  EXPECT_EQ(t.ValueAt(5, 0), Value::Double(4.5));
}

TEST(FreshIdentifierTest, BoolIdentifiersTakeTheUnusedValueOrAbortTheWrite) {
  DirtySchema dirty;
  auto db = FreshIdDatabase(DataType::kBool,
                            {Value::Bool(true), Value::Bool(true)}, &dirty);
  auto rs = db->ExecuteWrite("insert into r values (null, 'zzzzzz', null)");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  const Table& t = **db->GetTable("r");
  EXPECT_EQ(t.ValueAt(2, 0), Value::Bool(false));
  EXPECT_EQ(t.ValueAt(2, 2).AsDouble(), 1.0);
  // Both values are taken now: the next outlier has no identifier, so the
  // write fails and rolls back.
  const uint64_t before = t.committed_version();
  rs = db->ExecuteWrite("insert into r values (null, 'yyyyyy', null)");
  EXPECT_EQ(rs.status().code(), StatusCode::kResourceExhausted)
      << rs.status().ToString();
  EXPECT_EQ(t.committed_version(), before);
  EXPECT_EQ(t.VisibleRowPositions(t.committed_version()).size(), 3u);
  auto count = db->Query("select count(*) from r");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].int_value(), 3);
  // A NULL-id row that joins an existing cluster still needs no identifier.
  rs = db->ExecuteWrite("insert into r values (null, 'zzzzzz', null)");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(t.ValueAt(t.VisibleRowPositions(t.committed_version()).back(), 0),
            Value::Bool(false));
}

}  // namespace
}  // namespace conquer
