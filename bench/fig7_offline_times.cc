// Figure 7: offline annotation costs on the largest relation (lineitem) —
// identifier propagation, probability computation (the Fig. 5 algorithm),
// and a linear-scan baseline — as the inconsistency factor grows
// (paper: sf=1, if in {1, 5, 25}; scale reduced here).
//
// Paper claims: propagation time is insensitive to if (it depends only on
// total relation sizes); probability-computation time grows with if (more
// tuples merge into each cluster representative); both stay within an
// off-line-reasonable budget relative to a linear scan.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "prob/assigner.h"
#include "prob/propagate.h"

namespace conquer {
namespace {

constexpr int kSfMilli = 4;  // sf = 0.004

void BM_IdentifierPropagation(benchmark::State& state) {
  int iff = static_cast<int>(state.range(0));
  TpchDirtyDatabase& db = bench::GetCachedDb(kSfMilli, iff);
  // Propagate only lineitem's foreign identifiers (the paper times the
  // lineitem relation).
  std::vector<PropagationSpec> specs;
  for (const PropagationSpec& s : db.propagation_specs) {
    if (s.table == "lineitem") specs.push_back(s);
  }
  for (auto _ : state) {
    auto stats = PropagateIdentifiers(db.db.get(), db.dirty, specs);
    if (!stats.ok()) state.SkipWithError(stats.status().ToString().c_str());
    benchmark::DoNotOptimize(stats->rows_updated);
  }
  auto t = db.db->GetTable("lineitem");
  state.counters["rows"] = t.ok() ? static_cast<double>((*t)->num_rows()) : 0;
}

void BM_ProbabilityComputation(benchmark::State& state) {
  int iff = static_cast<int>(state.range(0));
  TpchDirtyDatabase& db = bench::GetCachedDb(kSfMilli, iff);
  auto table = db.db->GetTable("lineitem");
  if (!table.ok()) {
    state.SkipWithError("no lineitem");
    return;
  }
  const DirtyTableInfo* info = db.dirty.Find("lineitem");
  for (auto _ : state) {
    auto details = AssignProbabilities(*table, *info);
    if (!details.ok()) state.SkipWithError(details.status().ToString().c_str());
    benchmark::DoNotOptimize(details->size());
  }
  state.counters["rows"] = static_cast<double>((*table)->num_rows());
}

void BM_LinearScan(benchmark::State& state) {
  int iff = static_cast<int>(state.range(0));
  TpchDirtyDatabase& db = bench::GetCachedDb(kSfMilli, iff);
  auto table = db.db->GetTable("lineitem");
  if (!table.ok()) {
    state.SkipWithError("no lineitem");
    return;
  }
  for (auto _ : state) {
    size_t touched = 0;
    Row row;
    for (size_t i = 0; i < (*table)->num_rows(); ++i) {
      (*table)->GetRowInto(i, &row);
      touched += row.size();
      benchmark::DoNotOptimize(row.data());
    }
    benchmark::DoNotOptimize(touched);
  }
  state.counters["rows"] = static_cast<double>((*table)->num_rows());
}

BENCHMARK(BM_IdentifierPropagation)
    ->Name("Fig7/Propagation")
    ->Arg(1)
    ->Arg(5)
    ->Arg(25)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);
BENCHMARK(BM_ProbabilityComputation)
    ->Name("Fig7/ProbabilityCalculation")
    ->Arg(1)
    ->Arg(5)
    ->Arg(25)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);
BENCHMARK(BM_LinearScan)
    ->Name("Fig7/LinearScan")
    ->Arg(1)
    ->Arg(5)
    ->Arg(25)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace
}  // namespace conquer

BENCHMARK_MAIN();
