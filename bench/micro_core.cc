// Micro-benchmarks of the core primitives: SQL parsing, binding, the
// RewriteClean transformation, DCF operations, value interning, the
// information-loss distance, NULL-identifier matching and the clean-answer
// GROUP BY, and the buffer pool's chunk fault. These bound the constant
// factors behind the offline (Fig. 7) and online (Fig. 8) costs, the cost
// of a write's maintenance and the out-of-core (Fig. 10) lookup.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <numeric>

#include "common/rng.h"
#include "common/str_util.h"
#include "common/task_pool.h"
#include "exec/operators.h"
#include "gen/tpch_queries.h"
#include "plan/binder.h"
#include "prob/dcf.h"
#include "prob/incremental.h"
#include "sql/parser.h"
#include "storage/dictionary.h"
#include "storage/segment.h"
#include "storage/table.h"

namespace conquer {
namespace {

void BM_ParseQuery(benchmark::State& state) {
  const std::string& sql = FindTpchQuery(static_cast<int>(state.range(0)))->sql;
  for (auto _ : state) {
    auto stmt = Parser::Parse(sql);
    if (!stmt.ok()) state.SkipWithError("parse failed");
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_ParseQuery)->Name("Micro/Parse")->Arg(3)->Arg(9);

void BM_StatementToString(benchmark::State& state) {
  auto stmt = Parser::Parse(FindTpchQuery(9)->sql);
  for (auto _ : state) {
    std::string text = (*stmt)->ToString();
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_StatementToString)->Name("Micro/Print");

void BM_StatementClone(benchmark::State& state) {
  auto stmt = Parser::Parse(FindTpchQuery(9)->sql);
  for (auto _ : state) {
    auto copy = (*stmt)->Clone();
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_StatementClone)->Name("Micro/CloneAst");

void BM_DcfMerge(benchmark::State& state) {
  Rng rng(7);
  std::vector<Dcf> tuples;
  for (int i = 0; i < 64; ++i) {
    std::vector<uint32_t> values;
    for (int a = 0; a < 16; ++a) {
      values.push_back(static_cast<uint32_t>(a * 100 + rng.Uniform(0, 20)));
    }
    tuples.push_back(Dcf::ForTuple(std::move(values)));
  }
  for (auto _ : state) {
    Dcf rep = tuples[0];
    for (size_t i = 1; i < tuples.size(); ++i) rep = Dcf::Merge(rep, tuples[i]);
    benchmark::DoNotOptimize(rep.weight);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_DcfMerge)->Name("Micro/DcfMerge64");

void BM_InformationLossDistance(benchmark::State& state) {
  Rng rng(9);
  std::vector<uint32_t> a, b;
  for (int i = 0; i < 16; ++i) {
    a.push_back(static_cast<uint32_t>(i * 100 + rng.Uniform(0, 20)));
    b.push_back(static_cast<uint32_t>(i * 100 + rng.Uniform(0, 20)));
  }
  Dcf da = Dcf::ForTuple(a);
  Dcf db_ = Dcf::ForTuple(b);
  Dcf rep = Dcf::Merge(da, db_);
  for (auto _ : state) {
    double d = InformationLossDistance(da, rep, 1000.0);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_InformationLossDistance)->Name("Micro/InfoLossDistance");

/// Interning the cells of a lineitem-shaped table (keys, a quantity, three
/// doubles, flag and mode strings, two dates and a comment) through
/// InternRow, as the Fig. 5 pass reads them: 1024 rows of 11 attributes per
/// iteration. Arg(0) interns into a fresh space, where most values are new;
/// Arg(1) into a warm space that already holds them all, as when a pass
/// meets values again.
void BM_ValueSpaceIntern(benchmark::State& state) {
  Table table(TableSchema("lineitem", {{"l_orderkey", DataType::kInt64},
                                       {"l_partkey", DataType::kInt64},
                                       {"l_quantity", DataType::kInt64},
                                       {"l_extendedprice", DataType::kDouble},
                                       {"l_discount", DataType::kDouble},
                                       {"l_tax", DataType::kDouble},
                                       {"l_returnflag", DataType::kString},
                                       {"l_shipmode", DataType::kString},
                                       {"l_shipdate", DataType::kDate},
                                       {"l_commitdate", DataType::kDate},
                                       {"l_comment", DataType::kString}}));
  Rng rng(13);
  const char* kFlags[] = {"A", "N", "R"};
  const char* kModes[] = {"AIR", "MAIL", "RAIL", "SHIP", "TRUCK"};
  for (int i = 0; i < 1024; ++i) {
    table.InsertUnchecked(
        {Value::Int(i / 4), Value::Int(rng.Uniform(1, 2000)),
         Value::Int(rng.Uniform(1, 50)),
         Value::Double(900.0 +
                       static_cast<double>(rng.Uniform(0, 10000000)) / 100.0),
         Value::Double(static_cast<double>(rng.Uniform(0, 10)) / 100.0),
         Value::Double(static_cast<double>(rng.Uniform(0, 8)) / 100.0),
         Value::String(kFlags[rng.Uniform(0, 2)]),
         Value::String(kModes[rng.Uniform(0, 4)]),
         Value::Date(8000 + rng.Uniform(0, 2500)),
         Value::Date(8000 + rng.Uniform(0, 2500)),
         Value::String("carefully final deposits " +
                       std::to_string(rng.Uniform(0, 100000)))});
  }
  std::vector<size_t> attrs(table.schema().num_columns());
  std::iota(attrs.begin(), attrs.end(), size_t{0});
  std::vector<uint32_t> indices;
  auto intern_table = [&](ValueSpace* space) {
    RowCursor cursor(&table);
    uint64_t sum = 0;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      indices.clear();
      InternRow(&cursor, r, attrs, space, &indices);
      sum += std::accumulate(indices.begin(), indices.end(), uint64_t{0});
    }
    return sum;
  };
  const bool warm = state.range(0) == 1;
  ValueSpace warm_space;
  intern_table(&warm_space);
  for (auto _ : state) {
    ValueSpace fresh;
    benchmark::DoNotOptimize(intern_table(warm ? &warm_space : &fresh));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(table.num_rows() * attrs.size()));
}
BENCHMARK(BM_ValueSpaceIntern)->Name("Micro/ValueSpaceIntern")->Arg(0)->Arg(1);

/// Incremental maintenance of one NULL-identifier insert against Arg
/// orders-shaped clusters of three near-duplicate rows: one walk of the id
/// column, the table interned once, a lower bound per cluster and the
/// exact distances it cannot rule out, then the joined cluster's
/// renormalization. The row's identifier is reset to NULL before every
/// run, so each iteration matches the same row against the same clusters.
void BM_NullIdMatch(benchmark::State& state) {
  Table table(TableSchema("orders", {{"id", DataType::kString},
                                     {"o_custkey", DataType::kInt64},
                                     {"o_orderstatus", DataType::kString},
                                     {"o_totalprice", DataType::kDouble},
                                     {"o_orderdate", DataType::kDate},
                                     {"o_comment", DataType::kString},
                                     {"prob", DataType::kDouble}}));
  Rng rng(17);
  const char* kStatus[] = {"F", "O", "P"};
  Row null_row;
  for (int64_t c = 0; c < state.range(0); ++c) {
    const Row base = {
        Value::String("o" + std::to_string(c)),
        Value::Int(rng.Uniform(1, 1500)),
        Value::String(kStatus[rng.Uniform(0, 2)]),
        Value::Double(100.0 + static_cast<double>(rng.Uniform(0, 40000000)) /
                                  100.0),
        Value::Date(8000 + rng.Uniform(0, 2400)),
        Value::String("pending requests " + std::to_string(c)),
        Value::Double(1.0 / 3.0)};
    for (int d = 0; d < 3; ++d) {
      Row row = base;
      // A duplicate changes one attribute half of the time.
      if (d > 0 && rng.Chance(0.5)) row[1] = Value::Int(rng.Uniform(1, 1500));
      if (c == 0 && d == 0) {
        null_row = row;
        null_row[0] = Value::Null();
        null_row[3] = Value::Double(row[3].AsDouble() + 7.0);
      }
      table.InsertUnchecked(row);
    }
  }
  const size_t pos = table.num_rows();
  table.InsertUnchecked(null_row);
  const DirtyTableInfo info{"orders", "id", "prob", {}};
  const std::vector<Value> touched = {Value::Null()};
  for (auto _ : state) {
    table.SetValue(pos, 0, Value::Null());
    auto n = ReassignClusters(&table, info, touched, table.committed_version());
    if (!n.ok()) state.SkipWithError("maintenance failed");
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_NullIdMatch)
    ->Name("Micro/NullIdMatch")
    ->Arg(500)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_LikeMatch(benchmark::State& state) {
  std::string text = "the quick brown fox jumps over the lazy dog";
  for (auto _ : state) {
    bool m1 = LikeMatch(text, "%brown%dog");
    bool m2 = LikeMatch(text, "the%cat");
    benchmark::DoNotOptimize(m1);
    benchmark::DoNotOptimize(m2);
  }
}
BENCHMARK(BM_LikeMatch)->Name("Micro/LikeMatch");

/// Fig. 8 Q1's rewritten aggregate over 64k lineitem-shaped rows: GROUP BY
/// the string id, two string flags, an INT64 quantity and two DOUBLEs, with
/// SUM(prob). Ids come in clusters of one to three duplicates that mostly
/// share their attributes, so about 70% of the rows start a group (Q1 at
/// sf 0.01: 44.6k groups from 58.9k rows).
std::unique_ptr<Table> MakeQ1ShapedTable() {
  auto table = std::make_unique<Table>(TableSchema(
      "lineitem", {{"id", DataType::kString},
                   {"l_returnflag", DataType::kString},
                   {"l_linestatus", DataType::kString},
                   {"l_quantity", DataType::kInt64},
                   {"l_extendedprice", DataType::kDouble},
                   {"l_discount", DataType::kDouble},
                   {"prob", DataType::kDouble}}));
  Rng rng(11);
  const char* kFlags[] = {"A", "N", "R"};
  const char* kStatus[] = {"F", "O"};
  int64_t cluster = 0;
  for (int rows = 0; rows < 65536; ++cluster) {
    const int64_t size = rng.Uniform(1, 3);
    const int64_t quantity = rng.Uniform(1, 50);
    const double price = 900.0 + static_cast<double>(rng.Uniform(0, 100000));
    for (int64_t d = 0; d < size && rows < 65536; ++d, ++rows) {
      // A duplicate changes one attribute half of the time.
      const bool perturbed = d > 0 && rng.Chance(0.5);
      Status s = table->Insert(
          {Value::String("L" + std::to_string(cluster)),
           Value::String(kFlags[cluster % 3]),
           Value::String(kStatus[cluster % 2]),
           Value::Int(perturbed ? quantity + 1 : quantity),
           Value::Double(price), Value::Double(0.01 * (cluster % 11)),
           Value::Double(1.0 / static_cast<double>(size))});
      if (!s.ok()) return nullptr;
    }
  }
  return table;
}

ExprPtr ColumnSlot(int slot, DataType type) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kColumnRef;
  e->slot = slot;
  e->resolved_type = type;
  return e;
}

/// The hash-aggregate insert kernel at degree 1 and 4. Timed is the
/// HashAggregate's self time (its time minus its scan's), reported per
/// input row; output_share is the part of it spent building output rows.
void BM_HashAggregate(benchmark::State& state) {
  static const std::unique_ptr<Table> table = MakeQ1ShapedTable();
  if (table == nullptr) {
    state.SkipWithError("table build failed");
    return;
  }
  const size_t degree = static_cast<size_t>(state.range(0));
  std::unique_ptr<TaskPool> pool;
  if (degree > 1) pool = std::make_unique<TaskPool>(degree);
  ExecContext ctx;
  ctx.pool = pool.get();
  const DataType kTypes[] = {DataType::kString, DataType::kString,
                             DataType::kString, DataType::kInt64,
                             DataType::kDouble, DataType::kDouble};
  std::vector<ExprPtr> keys_owned;
  std::vector<const Expr*> keys;
  for (int k = 0; k < 6; ++k) {
    keys_owned.push_back(ColumnSlot(k, kTypes[k]));
    keys.push_back(keys_owned.back().get());
  }
  ExprPtr sum = Expr::MakeAggregate(AggFunc::kSum,
                                    ColumnSlot(6, DataType::kDouble));
  sum->resolved_type = DataType::kDouble;
  std::vector<const Expr*> items = keys;
  items.push_back(sum.get());

  double self_seconds = 0.0;
  double output_seconds = 0.0;
  uint64_t input_rows = 0;
  uint64_t groups = 0;
  for (auto _ : state) {
    HashAggregateOp agg(
        std::make_unique<SeqScanOp>(table.get(), 0, 7, nullptr, ctx), keys,
        items, ctx);
    RowBatch batch;
    bool ok = agg.Open().ok();
    while (ok) {
      auto more = agg.NextBatch(&batch);
      ok = more.ok() && *more;
      if (!more.ok()) state.SkipWithError("aggregate failed");
      benchmark::DoNotOptimize(batch.rows);
    }
    agg.Close();
    const OperatorMetrics& scan = agg.Children()[0]->metrics();
    const double self = agg.metrics().total_seconds() - scan.total_seconds();
    state.SetIterationTime(self);
    self_seconds += self;
    output_seconds += agg.metrics().next_seconds;
    input_rows += scan.rows_produced;
    groups = agg.metrics().hash_entries;
  }
  state.counters["ns_per_input_row"] =
      input_rows > 0 ? self_seconds * 1e9 / static_cast<double>(input_rows)
                     : 0.0;
  state.counters["groups"] = static_cast<double>(groups);
  state.counters["output_share"] =
      self_seconds > 0 ? output_seconds / self_seconds : 0.0;
}
BENCHMARK(BM_HashAggregate)
    ->Name("Micro/HashAggregate")
    ->Arg(1)
    ->Arg(4)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// A lineitem-shaped segment (the generator's 24 columns) holding one
/// 65,536-row chunk, written once to a temp file removed at exit.
struct LineitemSegment {
  TableSchema schema{
      "lineitem", {{"id", DataType::kString},
                   {"l_linekey", DataType::kInt64},
                   {"l_orderkey", DataType::kInt64},
                   {"l_order_id", DataType::kString},
                   {"l_partkey", DataType::kInt64},
                   {"l_part_id", DataType::kString},
                   {"l_suppkey", DataType::kInt64},
                   {"l_supp_id", DataType::kString},
                   {"l_pskey", DataType::kInt64},
                   {"l_partsupp_id", DataType::kString},
                   {"l_linenumber", DataType::kInt64},
                   {"l_quantity", DataType::kInt64},
                   {"l_extendedprice", DataType::kDouble},
                   {"l_discount", DataType::kDouble},
                   {"l_tax", DataType::kDouble},
                   {"l_returnflag", DataType::kString},
                   {"l_linestatus", DataType::kString},
                   {"l_shipdate", DataType::kDate},
                   {"l_commitdate", DataType::kDate},
                   {"l_receiptdate", DataType::kDate},
                   {"l_shipinstruct", DataType::kString},
                   {"l_shipmode", DataType::kString},
                   {"l_comment", DataType::kString},
                   {"prob", DataType::kDouble}}};
  std::string path;
  Status status;

  LineitemSegment() {
    path = (std::filesystem::temp_directory_path() /
            StringPrintf("conquer-micro-fault-%ld.seg",
                         static_cast<long>(::getpid())))
               .string();
    Table table(schema);
    Rng rng(23);
    for (int64_t i = 0; i < 65536; ++i) {
      Row row;
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        switch (schema.column(c).type) {
          case DataType::kString:
            row.push_back(Value::String(
                "s" + std::to_string(c) + "_" +
                std::to_string(rng.Uniform(0, c == 0 ? 20000 : 500))));
            break;
          case DataType::kDouble:
            row.push_back(Value::Double(rng.NextDouble() * 1000.0));
            break;
          case DataType::kDate:
            row.push_back(Value::Date(8000 + rng.Uniform(0, 2500)));
            break;
          default:
            row.push_back(Value::Int(i * 7 + static_cast<int64_t>(c)));
            break;
        }
      }
      table.InsertUnchecked(row);
    }
    status = WriteTableSegment(&table, path);
  }
  ~LineitemSegment() { std::filesystem::remove(path); }
};

/// One chunk fault plus decode: pins every row of the rewritten clean
/// lookup's 5 columns (id, l_orderkey, l_quantity, l_extendedprice, prob),
/// or of all 24, of an evicted lineitem chunk whose segment sits in the
/// page cache. The pool's one-byte budget evicts the chunk again at every
/// unpin.
void BM_ChunkFault(benchmark::State& state) {
  static const LineitemSegment segment;
  if (!segment.status.ok()) {
    state.SkipWithError(segment.status.ToString().c_str());
    return;
  }
  BufferPool pool(1);
  Table table(segment.schema);
  table.AttachBufferPool(&pool);
  const Status loaded = LoadTableSegment(&table, segment.path);
  if (!loaded.ok()) {
    state.SkipWithError(loaded.ToString().c_str());
    return;
  }
  ColumnSet cols = {0, 2, 11, 12, 23};
  if (state.range(0) == 24) {
    cols.resize(24);
    std::iota(cols.begin(), cols.end(), 0u);
  }
  const BufferPool::Stats before = pool.stats();
  for (auto _ : state) {
    ChunkPin pin = table.PinChunk(0, cols);
    benchmark::DoNotOptimize(pin->column(cols.back()).null_data());
  }
  const BufferPool::Stats after = pool.stats();
  const double faults =
      static_cast<double>(after.chunks_loaded - before.chunks_loaded);
  state.counters["mb_per_fault"] =
      faults > 0 ? static_cast<double>(after.bytes_read - before.bytes_read) /
                       faults / (1 << 20)
                 : 0.0;
  state.SetBytesProcessed(
      static_cast<int64_t>(after.bytes_read - before.bytes_read));
}
BENCHMARK(BM_ChunkFault)
    ->Name("Micro/ChunkFault")
    ->Arg(5)
    ->Arg(24)
    ->Unit(benchmark::kMicrosecond);

/// One point-lookup fault: the same 5 columns of the evicted chunk, but
/// only at one row, so the pin reads one block (1,024 rows) of each.
void BM_ChunkFaultLookup(benchmark::State& state) {
  static const LineitemSegment segment;
  if (!segment.status.ok()) {
    state.SkipWithError(segment.status.ToString().c_str());
    return;
  }
  BufferPool pool(1);
  Table table(segment.schema);
  table.AttachBufferPool(&pool);
  const Status loaded = LoadTableSegment(&table, segment.path);
  if (!loaded.ok()) {
    state.SkipWithError(loaded.ToString().c_str());
    return;
  }
  const ColumnSet cols = {0, 2, 11, 12, 23};
  const uint32_t row = 40000;
  const BufferPool::Stats before = pool.stats();
  for (auto _ : state) {
    ChunkPin pin = table.PinChunk(0, cols, RowSpan(&row, 1));
    benchmark::DoNotOptimize(pin->column(cols.back()).double_data()[row]);
  }
  const BufferPool::Stats after = pool.stats();
  const double faults =
      static_cast<double>(after.chunks_loaded - before.chunks_loaded);
  state.counters["mb_per_fault"] =
      faults > 0 ? static_cast<double>(after.bytes_read - before.bytes_read) /
                       faults / (1 << 20)
                 : 0.0;
  state.SetBytesProcessed(
      static_cast<int64_t>(after.bytes_read - before.bytes_read));
}
BENCHMARK(BM_ChunkFaultLookup)
    ->Name("Micro/ChunkFault/lookup")
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace conquer

BENCHMARK_MAIN();
