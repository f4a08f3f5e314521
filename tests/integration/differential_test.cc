// Differential clean-answer harness: seeded-random dirty databases of 2-4
// tables with mixed cluster sizes (including exact probability-sum = 1
// edge cases), random rewritable SPJ queries, and two independent engines —
// CleanAnswerEngine::Query (RewriteClean over SQL) against
// NaiveCandidateEvaluator::Evaluate (candidate enumeration, Dfn 3-5).
//
// The same matrix runs sequentially and with a worker pool (morsel size
// lowered so the small tables actually take the parallel operator paths),
// asserting that parallel probabilities are BIT-identical to the sequential
// run, not merely close: the partitioned aggregation is designed so float
// accumulation order never depends on thread count.

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "common/rng.h"
#include "common/str_util.h"
#include "core/clean_engine.h"
#include "core/naive_eval.h"
#include "tests/engine/explain_text.h"

namespace conquer {
namespace {

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

bool RowsEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].TotalCompare(b[i]) != 0) return false;
  }
  return true;
}

/// A randomly generated dirty database: a join tree of 2-4 tables with the
/// root at t0; each non-root table is referenced by an earlier one.
struct RandomDirtyDb {
  Database db;
  DirtySchema dirty;
  std::vector<std::string> tables;
  std::vector<std::vector<std::string>> attrs;
  std::vector<int> parent_of;
};

/// Cluster probabilities: mostly random (normalized), but a configurable
/// slice of entities get exact dyadic distributions (1.0, 0.5+0.5,
/// 0.25*4) whose sums are exactly 1.0 in binary floating point — the
/// edge cases where "approximately consistent" answers sit exactly on the
/// probability-1 boundary.
std::vector<double> MakeClusterProbs(Rng* rng, int* k) {
  if (rng->Chance(0.35)) {
    switch (rng->Uniform(0, 2)) {
      case 0: *k = 1; return {1.0};
      case 1: *k = 2; return {0.5, 0.5};
      default: *k = 4; return {0.25, 0.25, 0.25, 0.25};
    }
  }
  *k = static_cast<int>(rng->Uniform(1, 4));
  std::vector<double> probs(*k);
  double sum = 0;
  for (double& p : probs) {
    p = 0.05 + rng->NextDouble();
    sum += p;
  }
  for (double& p : probs) p /= sum;
  return probs;
}

void BuildRandomDb(uint64_t seed, RandomDirtyDb* out) {
  Rng rng(seed);
  int num_tables = static_cast<int>(rng.Uniform(2, 4));

  std::vector<int> referenced_by(num_tables, -1);
  for (int t = 1; t < num_tables; ++t) {
    referenced_by[t] = static_cast<int>(rng.Uniform(0, t - 1));
  }
  out->parent_of = referenced_by;

  // Entities with probabilities decided up front so the candidate count can
  // be tamed before any rows exist.
  std::vector<std::vector<std::vector<double>>> entity_probs(num_tables);
  int64_t product = 1;
  for (int t = 0; t < num_tables; ++t) {
    int entities = static_cast<int>(rng.Uniform(2, 4));
    for (int e = 0; e < entities; ++e) {
      int k = 0;
      entity_probs[t].push_back(MakeClusterProbs(&rng, &k));
      product *= k;
    }
  }
  for (auto& table_entities : entity_probs) {
    for (auto& probs : table_entities) {
      if (probs.size() > 1 && product > 4096) {
        product /= static_cast<int64_t>(probs.size());
        probs = {1.0};
      }
    }
  }

  // Children before parents so FK targets exist at insert time.
  for (int t = num_tables - 1; t >= 0; --t) {
    std::string name = "t" + std::to_string(t);
    std::vector<ColumnDef> cols = {{"id", DataType::kString}};
    int num_attrs = static_cast<int>(rng.Uniform(1, 2));
    std::vector<std::string> attr_names;
    for (int a = 0; a < num_attrs; ++a) {
      attr_names.push_back(StringPrintf("a%d_%d", t, a));
      cols.push_back({attr_names.back(), DataType::kInt64});
    }
    std::vector<int> children;
    for (int c = 0; c < num_tables; ++c) {
      if (referenced_by[c] == t) children.push_back(c);
    }
    for (int c : children) {
      cols.push_back({StringPrintf("fk%d", c), DataType::kString});
    }
    cols.push_back({"prob", DataType::kDouble});
    ASSERT_TRUE(out->db.CreateTable(TableSchema(name, cols)).ok());

    DirtyTableInfo info;
    info.table_name = name;
    info.id_column = "id";
    info.prob_column = "prob";
    for (int c : children) {
      info.foreign_ids.push_back(
          {StringPrintf("fk%d", c), "t" + std::to_string(c)});
    }
    ASSERT_TRUE(out->dirty.AddTable(info).ok());

    for (size_t e = 0; e < entity_probs[t].size(); ++e) {
      const std::vector<double>& probs = entity_probs[t][e];
      for (size_t j = 0; j < probs.size(); ++j) {
        Row row;
        row.push_back(Value::String(StringPrintf("t%d_e%zu", t, e)));
        for (int a = 0; a < num_attrs; ++a) {
          row.push_back(Value::Int(rng.Uniform(0, 5)));
        }
        for (int c : children) {
          int64_t target = rng.Uniform(
              0, static_cast<int64_t>(entity_probs[c].size()) - 1);
          row.push_back(Value::String(
              StringPrintf("t%d_e%lld", c, (long long)target)));
        }
        row.push_back(Value::Double(probs[j]));
        ASSERT_TRUE(out->db.Insert(name, std::move(row)).ok());
      }
    }
    out->tables.insert(out->tables.begin(), name);
    out->attrs.insert(out->attrs.begin(), attr_names);
  }
}

std::string BuildRandomRewritableQuery(uint64_t seed,
                                       const RandomDirtyDb& db) {
  Rng rng(seed ^ 0x5eed5eed);
  int n = static_cast<int>(db.tables.size());
  std::vector<std::string> select = {"t0.id"};
  for (int t = 0; t < n; ++t) {
    for (const std::string& a : db.attrs[t]) {
      if (rng.Chance(0.6)) select.push_back(db.tables[t] + "." + a);
    }
    if (t > 0 && rng.Chance(0.4)) select.push_back(db.tables[t] + ".id");
  }
  std::vector<std::string> where;
  for (int t = 1; t < n; ++t) {
    where.push_back(StringPrintf("t%d.fk%d = t%d.id", db.parent_of[t], t, t));
  }
  const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
  for (int t = 0; t < n; ++t) {
    for (const std::string& a : db.attrs[t]) {
      if (rng.Chance(0.5)) {
        where.push_back(StringPrintf("%s.%s %s %lld", db.tables[t].c_str(),
                                     a.c_str(), ops[rng.Uniform(0, 5)],
                                     (long long)rng.Uniform(0, 5)));
      }
    }
  }
  std::string sql = "select " + Join(select, ", ") + " from ";
  for (int t = 0; t < n; ++t) {
    if (t > 0) sql += ", ";
    sql += db.tables[t];
  }
  if (!where.empty()) sql += " where " + Join(where, " and ");
  return sql;
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, EngineMatchesOracleSequentiallyAndInParallel) {
  RandomDirtyDb rdb;
  BuildRandomDb(GetParam(), &rdb);
  // Small tables: shrink the morsel so the parallel scan/join/aggregate
  // paths actually engage instead of falling back to sequential.
  rdb.db.mutable_exec_context()->morsel_size = 2;

  CleanAnswerEngine engine(&rdb.db, &rdb.dirty);
  NaiveCandidateEvaluator naive(&rdb.db, &rdb.dirty);

  for (uint64_t qseed = 0; qseed < 3; ++qseed) {
    std::string sql =
        BuildRandomRewritableQuery(GetParam() * 131 + qseed, rdb);
    SCOPED_TRACE(sql);

    auto check = engine.Check(sql);
    ASSERT_TRUE(check.ok()) << check.status().ToString();
    ASSERT_TRUE(check->rewritable) << check->reason;

    auto slow = naive.Evaluate(sql, /*max_candidates=*/1 << 13);
    ASSERT_TRUE(slow.ok()) << slow.status().ToString();

    rdb.db.SetThreads(1);
    auto sequential = engine.Query(sql);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();

    ASSERT_EQ(sequential->answers.size(), slow->answers.size());
    for (const CleanAnswer& a : slow->answers) {
      ASSERT_NEAR(sequential->ProbabilityOf(a.row), a.probability, 1e-9);
    }

    // Every (batch size, thread count) combination must reproduce the
    // sequential baseline exactly: same rows, same order, bit-identical
    // SUM(prob) probabilities. Batch size 1 degenerates to row-at-a-time,
    // 7 leaves ragged final batches everywhere, 1024 is the default.
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
      for (size_t threads : {size_t{1}, size_t{3}}) {
        rdb.db.mutable_exec_context()->batch_size = batch_size;
        rdb.db.SetThreads(threads);
        auto run = engine.Query(sql);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        const std::string label = " (batch_size=" + std::to_string(batch_size) +
                                  ", threads=" + std::to_string(threads) + ")";
        ASSERT_EQ(run->answers.size(), sequential->answers.size()) << label;
        for (size_t i = 0; i < run->answers.size(); ++i) {
          EXPECT_TRUE(
              RowsEqual(run->answers[i].row, sequential->answers[i].row))
              << "answer row " << i << " differs" << label;
          EXPECT_EQ(Bits(run->answers[i].probability),
                    Bits(sequential->answers[i].probability))
              << "probability of answer " << i << " is not bit-identical"
              << label;
        }
      }
    }
    rdb.db.mutable_exec_context()->batch_size = 1024;

    // Chunk geometry must be invisible: capacity 1 makes every zone map
    // trivially tight (maximum pruning opportunity), 7 leaves ragged chunk
    // tails, 65536 is the production default with everything in one chunk.
    // Results must stay bit-identical to the sequential baseline across
    // capacities and thread counts.
    for (size_t capacity : {size_t{1}, size_t{7}, size_t{1024},
                            size_t{65536}}) {
      for (const std::string& name : rdb.tables) {
        auto t = rdb.db.GetTable(name);
        ASSERT_TRUE(t.ok());
        (*t)->Rechunk(capacity);
      }
      for (size_t threads : {size_t{1}, size_t{3}}) {
        rdb.db.SetThreads(threads);
        auto run = engine.Query(sql);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        const std::string label = " (chunk_capacity=" +
                                  std::to_string(capacity) +
                                  ", threads=" + std::to_string(threads) + ")";
        ASSERT_EQ(run->answers.size(), sequential->answers.size()) << label;
        for (size_t i = 0; i < run->answers.size(); ++i) {
          EXPECT_TRUE(
              RowsEqual(run->answers[i].row, sequential->answers[i].row))
              << "answer row " << i << " differs" << label;
          EXPECT_EQ(Bits(run->answers[i].probability),
                    Bits(sequential->answers[i].probability))
              << "probability of answer " << i << " is not bit-identical"
              << label;
        }
      }
    }
    for (const std::string& name : rdb.tables) {
      auto t = rdb.db.GetTable(name);
      ASSERT_TRUE(t.ok());
      (*t)->Rechunk(Table::kDefaultChunkCapacity);
    }
    rdb.db.SetThreads(1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 25));

// Determinism at realistic scale and the default morsel size: a grouped
// SUM over doubles whose addition order would visibly drift under a
// thread-dependent merge.
class ParallelDeterminismTest : public ::testing::Test {
 protected:
  static std::vector<Row> Run(Database* db, const std::string& sql,
                              size_t threads) {
    db->SetThreads(threads);
    auto rs = db->Query(sql);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    return rs.ok() ? std::move(rs->rows) : std::vector<Row>{};
  }

  /// The HashAggregate node's tracked state for `sql` at `threads`.
  static uint64_t AggregateMemory(Database* db, const std::string& sql,
                                  size_t threads) {
    db->SetThreads(threads);
    QueryStats stats;
    auto rs = db->Query(sql, &stats);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    std::vector<const PlanNodeStats*> stack = {&stats.plan};
    while (!stack.empty()) {
      const PlanNodeStats* node = stack.back();
      stack.pop_back();
      if (node->description.rfind("HashAggregate", 0) == 0) {
        return node->metrics.peak_memory_bytes;
      }
      for (const PlanNodeStats& c : node->children) stack.push_back(&c);
    }
    return 0;
  }

  static void ExpectBitIdentical(const std::vector<Row>& a,
                                 const std::vector<Row>& b,
                                 const std::string& label) {
    ASSERT_EQ(a.size(), b.size()) << label;
    for (size_t r = 0; r < a.size(); ++r) {
      ASSERT_EQ(a[r].size(), b[r].size()) << label;
      for (size_t c = 0; c < a[r].size(); ++c) {
        if (a[r][c].type() == DataType::kDouble &&
            b[r][c].type() == DataType::kDouble) {
          EXPECT_EQ(Bits(a[r][c].double_value()), Bits(b[r][c].double_value()))
              << label << ": row " << r << " col " << c;
        } else {
          EXPECT_EQ(a[r][c].TotalCompare(b[r][c]), 0)
              << label << ": row " << r << " col " << c;
        }
      }
    }
  }
};

TEST_F(ParallelDeterminismTest, GroupBySumBitIdenticalAcrossThreadCounts) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("t", {{"g", DataType::kInt64},
                                               {"v", DataType::kDouble}}))
                  .ok());
  Rng rng(7);
  std::vector<Row> rows;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back({Value::Int(rng.Uniform(0, 199)),
                    Value::Double(rng.NextDouble() - 0.5)});
  }
  ASSERT_TRUE(db.InsertMany("t", std::move(rows)).ok());

  const std::string sql = "select g, sum(v), count(*) from t group by g";
  std::vector<Row> baseline = Run(&db, sql, 1);
  ASSERT_EQ(baseline.size(), 200u);
  for (size_t threads : {2u, 3u, 4u}) {
    ExpectBitIdentical(baseline, Run(&db, sql, threads),
                       "threads=" + std::to_string(threads));
  }
}

TEST_F(ParallelDeterminismTest, JoinAggregateBitIdenticalAcrossThreadCounts) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("fact", {{"k", DataType::kInt64},
                                                  {"v", DataType::kDouble}}))
                  .ok());
  ASSERT_TRUE(db.CreateTable(TableSchema("dim", {{"k", DataType::kInt64},
                                                 {"w", DataType::kDouble}}))
                  .ok());
  Rng rng(11);
  std::vector<Row> fact_rows;
  for (int i = 0; i < 12000; ++i) {
    fact_rows.push_back({Value::Int(rng.Uniform(0, 3999)),
                         Value::Double(rng.NextDouble())});
  }
  ASSERT_TRUE(db.InsertMany("fact", std::move(fact_rows)).ok());
  std::vector<Row> dim_rows;
  for (int i = 0; i < 4000; ++i) {
    dim_rows.push_back({Value::Int(i), Value::Double(rng.NextDouble())});
  }
  ASSERT_TRUE(db.InsertMany("dim", std::move(dim_rows)).ok());

  const std::string sql =
      "select dim.k, sum(fact.v), sum(dim.w) from fact, dim "
      "where fact.k = dim.k group by dim.k";
  std::vector<Row> baseline = Run(&db, sql, 1);
  ASSERT_FALSE(baseline.empty());
  for (size_t threads : {2u, 4u}) {
    ExpectBitIdentical(baseline, Run(&db, sql, threads),
                       "threads=" + std::to_string(threads));
  }

  // No degree buffers the aggregate's whole input: its state stays within
  // twice the single-threaded run's.
  const uint64_t sequential_memory = AggregateMemory(&db, sql, 1);
  ASSERT_GT(sequential_memory, 0u);
  for (size_t threads : {2u, 4u}) {
    EXPECT_LE(AggregateMemory(&db, sql, threads), 2 * sequential_memory)
        << "threads=" << threads;
  }
}

// A hash join whose tiny build side seeds the probe scan of an indexed table
// with its keys: the scan's workers read the probes the join's keys
// resolved to, so threads {1, 3} x index access on/off must all return the
// bits of the sequential scanned plan.
TEST_F(ParallelDeterminismTest, IndexSeededJoinBitIdenticalAcrossThreads) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("fact", {{"k", DataType::kInt64},
                                                  {"v", DataType::kDouble}}))
                  .ok());
  ASSERT_TRUE(db.CreateTable(TableSchema("dim", {{"k", DataType::kInt64},
                                                 {"w", DataType::kDouble}}))
                  .ok());
  Rng rng(13);
  std::vector<Row> fact_rows;
  for (int i = 0; i < 12000; ++i) {
    fact_rows.push_back({Value::Int(rng.Uniform(0, 999)),
                         Value::Double(rng.NextDouble())});
  }
  ASSERT_TRUE(db.InsertMany("fact", std::move(fact_rows)).ok());
  (*db.GetTable("fact"))->Rechunk(1000);
  std::vector<Row> dim_rows;
  for (int i = 0; i < 40; ++i) {
    Value key = Value::Null();
    if (i != 7) key = Value::Int(i * 25 % 1000);
    dim_rows.push_back({std::move(key), Value::Double(rng.NextDouble())});
  }
  ASSERT_TRUE(db.InsertMany("dim", std::move(dim_rows)).ok());
  ASSERT_TRUE(db.CreateIndex("fact", "k").ok());
  ASSERT_TRUE(db.AnalyzeAll().ok());

  const std::string sql =
      "select dim.k, sum(fact.v), sum(dim.w) from fact, dim "
      "where fact.k = dim.k group by dim.k";
  auto plan = ExplainText(db, "explain " + sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("IndexScan(fact"), std::string::npos) << *plan;

  db.mutable_exec_context()->enable_index_scan = false;
  std::vector<Row> baseline = Run(&db, sql, 1);
  ASSERT_FALSE(baseline.empty());
  for (bool index_scan : {true, false}) {
    db.mutable_exec_context()->enable_index_scan = index_scan;
    for (size_t threads : {1u, 3u}) {
      ExpectBitIdentical(baseline, Run(&db, sql, threads),
                         "index_scan=" + std::to_string(index_scan) +
                             " threads=" + std::to_string(threads));
    }
  }
  db.mutable_exec_context()->enable_index_scan = true;
}

// Out-of-core differential sweep: with only two chunks' worth of memory
// budget the scans evict and reload constantly, including right after
// MVCC writes dirtied chunks (forcing spill-file round-trips). Clean
// answers must stay bit-identical to the unconstrained sequential run
// across the batch-size / thread matrix.
TEST(OutOfCoreDifferentialTest, TwoChunkBudgetIsBitIdenticalAcrossMatrix) {
  RandomDirtyDb rdb;
  BuildRandomDb(42, &rdb);
  rdb.db.mutable_exec_context()->morsel_size = 2;
  for (const std::string& name : rdb.tables) {
    auto t = rdb.db.GetTable(name);
    ASSERT_TRUE(t.ok());
    (*t)->Rechunk(7);
  }
  // Size the budget off the pool's own accounting: room for two average
  // chunks, so most of every table is evicted at any moment.
  const BufferPool::Stats st = rdb.db.buffer_pool()->stats();
  ASSERT_GT(st.registered_chunks, 2u);
  ASSERT_GT(st.resident_bytes, 0u);
  const uint64_t two_chunks = 2 * (st.resident_bytes / st.registered_chunks);

  CleanAnswerEngine engine(&rdb.db, &rdb.dirty);
  const std::string sql = BuildRandomRewritableQuery(42 * 131, rdb);
  SCOPED_TRACE(sql);

  for (int phase = 0; phase < 2; ++phase) {
    if (phase == 1) {
      // Dirty some chunks through the write path, then shrink the budget
      // again so the dirtied payloads must survive a spill round-trip.
      rdb.db.SetMemoryBudget(0);
      ASSERT_TRUE(
          rdb.db.ExecuteWrite("delete from t0 where id = 't0_e0'").ok());
      auto upd = rdb.db.ExecuteWrite(
          "update t1 set a1_0 = 3 where id = 't1_e1'");
      ASSERT_TRUE(upd.ok()) << upd.status().ToString();
    }
    rdb.db.SetMemoryBudget(0);
    rdb.db.SetThreads(1);
    rdb.db.mutable_exec_context()->batch_size = 1024;
    auto baseline = engine.Query(sql);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

    rdb.db.SetMemoryBudget(two_chunks);
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
      for (size_t threads : {size_t{1}, size_t{3}}) {
        rdb.db.mutable_exec_context()->batch_size = batch_size;
        rdb.db.SetThreads(threads);
        auto run = engine.Query(sql);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        const std::string label =
            " (phase=" + std::to_string(phase) +
            ", batch_size=" + std::to_string(batch_size) +
            ", threads=" + std::to_string(threads) + ")";
        ASSERT_EQ(run->answers.size(), baseline->answers.size()) << label;
        for (size_t i = 0; i < run->answers.size(); ++i) {
          EXPECT_TRUE(
              RowsEqual(run->answers[i].row, baseline->answers[i].row))
              << "answer row " << i << " differs" << label;
          EXPECT_EQ(Bits(run->answers[i].probability),
                    Bits(baseline->answers[i].probability))
              << "probability of answer " << i << " is not bit-identical"
              << label;
        }
      }
    }
    // The budget genuinely constrained the run.
    EXPECT_GT(rdb.db.buffer_pool()->stats().chunks_evicted, 0u);
  }
}

TEST_F(ParallelDeterminismTest, ExplainAnalyzeReportsWorkers) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("t", {{"g", DataType::kInt64},
                                               {"v", DataType::kDouble}}))
                  .ok());
  Rng rng(3);
  std::vector<Row> rows;
  for (int i = 0; i < 8000; ++i) {
    rows.push_back({Value::Int(rng.Uniform(0, 9)),
                    Value::Double(rng.NextDouble())});
  }
  ASSERT_TRUE(db.InsertMany("t", std::move(rows)).ok());

  db.SetThreads(3);
  auto analyzed =
      ExplainText(db, "explain analyze select g, sum(v) from t group by g");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->find("workers=3"), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("worker_rows=["), std::string::npos) << *analyzed;

  // Sequential runs must not claim any parallelism.
  db.SetThreads(1);
  auto sequential =
      ExplainText(db, "explain analyze select g, sum(v) from t group by g");
  ASSERT_TRUE(sequential.ok());
  EXPECT_EQ(sequential->find("workers="), std::string::npos) << *sequential;
}

}  // namespace
}  // namespace conquer
