// Ablation benchmarks for the design choices behind the reproduction:
//
//  1. Naive candidate enumeration vs. the SQL rewriting — the paper's
//     Section 3 motivation: enumeration is exponential in the number of
//     non-singleton clusters, the rewriting is one SQL query.
//  2. Identifier indexes + statistics on vs. off — the paper's experimental
//     setup builds indexes on identifiers and runs RUNSTATS; this measures
//     what that buys on a representative join query.
//  3. Rewrite-only cost (parse + Dfn 7 check + AST rewrite) vs. full
//     execution — the rewriting itself must be negligible.

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/bench_util.h"
#include "core/clean_engine.h"
#include "core/naive_eval.h"
#include "gen/tpch_queries.h"

namespace conquer {
namespace {

// ---- 1. enumeration vs. rewriting on a small dirty database ----

/// Builds a two-table dirty database with `clusters` two-tuple clusters per
/// table (so 2^(2*clusters) candidate databases).
void BuildSmallDirtyDb(int clusters, Database* db, DirtySchema* dirty) {
  Status s = db->CreateTable(TableSchema("orders", {{"id", DataType::kString},
                                                    {"cid", DataType::kString},
                                                    {"qty", DataType::kInt64},
                                                    {"prob", DataType::kDouble}}));
  s = db->CreateTable(TableSchema("cust", {{"id", DataType::kString},
                                           {"bal", DataType::kInt64},
                                           {"prob", DataType::kDouble}}));
  (void)s;
  for (int i = 0; i < clusters; ++i) {
    std::string oid = "o" + std::to_string(i);
    std::string cid = "c" + std::to_string(i);
    for (int j = 0; j < 2; ++j) {
      (void)db->Insert("orders", {Value::String(oid), Value::String(cid),
                                  Value::Int(j + i), Value::Double(0.5)});
      (void)db->Insert("cust", {Value::String(cid), Value::Int(10000 * (j + 1)),
                                Value::Double(0.5)});
    }
  }
  (void)dirty->AddTable({"orders", "id", "prob", {{"cid", "cust"}}});
  (void)dirty->AddTable({"cust", "id", "prob", {}});
}

const char* kSmallQuery =
    "select o.id, c.id from orders o, cust c "
    "where o.cid = c.id and c.bal > 15000";

void BM_NaiveEnumeration(benchmark::State& state) {
  Database db;
  DirtySchema dirty;
  BuildSmallDirtyDb(static_cast<int>(state.range(0)), &db, &dirty);
  NaiveCandidateEvaluator naive(&db, &dirty);
  for (auto _ : state) {
    auto answers = naive.Evaluate(kSmallQuery, /*max_candidates=*/1ull << 40);
    if (!answers.ok()) state.SkipWithError(answers.status().ToString().c_str());
    benchmark::DoNotOptimize(answers->answers.size());
  }
  state.counters["candidates"] =
      std::pow(2.0, 2.0 * static_cast<double>(state.range(0)));
}

void BM_Rewriting(benchmark::State& state) {
  Database db;
  DirtySchema dirty;
  BuildSmallDirtyDb(static_cast<int>(state.range(0)), &db, &dirty);
  CleanAnswerEngine engine(&db, &dirty);
  for (auto _ : state) {
    auto answers = engine.Query(kSmallQuery);
    if (!answers.ok()) state.SkipWithError(answers.status().ToString().c_str());
    benchmark::DoNotOptimize(answers->answers.size());
  }
  state.counters["candidates"] =
      std::pow(2.0, 2.0 * static_cast<double>(state.range(0)));
}

BENCHMARK(BM_NaiveEnumeration)
    ->Name("Ablation/NaiveEnumeration")
    ->DenseRange(2, 8, 2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Rewriting)
    ->Name("Ablation/Rewriting")
    ->DenseRange(2, 8, 2)
    ->Unit(benchmark::kMillisecond);

// ---- 2. indexes + statistics on/off ----

void BM_Q10WithAndWithoutIndexes(benchmark::State& state) {
  bool with_indexes = state.range(0) != 0;
  // A private copy of the database so index state is isolated.
  TpchDirtyConfig config;
  config.scale_factor = 0.005;
  config.inconsistency_factor = 3;
  static std::unique_ptr<TpchDirtyDatabase> plain, indexed;
  auto& slot = with_indexes ? indexed : plain;
  if (!slot) {
    auto gen = MakeTpchDirtyDatabase(config);
    if (!gen.ok()) {
      state.SkipWithError(gen.status().ToString().c_str());
      return;
    }
    slot = std::make_unique<TpchDirtyDatabase>(std::move(gen).value());
    if (with_indexes) {
      if (Status s = slot->BuildIndexesAndStats(); !s.ok()) {
        state.SkipWithError(s.ToString().c_str());
        return;
      }
    }
  }
  CleanAnswerEngine engine(slot->db.get(), &slot->dirty);
  const TpchQuery* q = FindTpchQuery(10);
  for (auto _ : state) {
    auto answers = engine.Query(q->sql);
    if (!answers.ok()) state.SkipWithError(answers.status().ToString().c_str());
    benchmark::DoNotOptimize(answers->answers.size());
  }
}

BENCHMARK(BM_Q10WithAndWithoutIndexes)
    ->Name("Ablation/IndexesAndStats")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// ---- 3. rewrite-only cost ----

void BM_RewriteOnly(benchmark::State& state) {
  TpchDirtyDatabase& db = bench::GetCachedDb(5, 3);
  CleanAnswerEngine engine(db.db.get(), &db.dirty);
  const TpchQuery* q = FindTpchQuery(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto sql = engine.RewrittenSql(q->sql);
    if (!sql.ok()) state.SkipWithError(sql.status().ToString().c_str());
    benchmark::DoNotOptimize(sql->size());
  }
}

BENCHMARK(BM_RewriteOnly)
    ->Name("Ablation/RewriteOnly")
    ->Arg(3)
    ->Arg(9)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace conquer

BENCHMARK_MAIN();
