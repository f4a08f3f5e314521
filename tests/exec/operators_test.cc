// Unit tests for the batch operators, exercised directly (not through SQL)
// to pin the wide-row contract and per-operator behaviour.

#include "exec/operators.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "common/task_pool.h"

namespace conquer {
namespace {

const ExecContext kCtx;  // degree 1, default batch and morsel sizes

std::unique_ptr<Table> MakeNumbersTable(int n) {
  auto table = std::make_unique<Table>(
      TableSchema("nums", {{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(table->Insert({Value::Int(i), Value::Int(i % 3)}).ok());
  }
  return table;
}

// One Open/NextBatch/Close cycle at `capacity` rows per batch. Rows are
// copied out, so the operator recycles the batch's row buffers.
std::vector<Row> DrainAt(Operator* op, size_t capacity) {
  std::vector<Row> rows;
  EXPECT_TRUE(op->Open().ok());
  RowBatch batch;
  batch.capacity = capacity;
  while (true) {
    auto more = op->NextBatch(&batch);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    EXPECT_FALSE(batch.rows.empty());
    EXPECT_LE(batch.rows.size(), capacity);
    rows.insert(rows.end(), batch.rows.begin(), batch.rows.end());
  }
  op->Close();
  return rows;
}

void ExpectSameRows(const std::vector<Row>& a, const std::vector<Row>& b,
                    const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].size(), b[r].size()) << label << " row " << r;
    for (size_t c = 0; c < a[r].size(); ++c) {
      EXPECT_EQ(a[r][c].TotalCompare(b[r][c]), 0)
          << label << " row " << r << " col " << c;
    }
  }
}

// Drains `op` at batch capacities 1, 7 and 1024 (re-opening it each time);
// every capacity must return identical rows in identical order.
std::vector<Row> Drain(Operator* op) {
  std::vector<Row> rows = DrainAt(op, 1);
  for (size_t capacity : {size_t{7}, size_t{1024}}) {
    ExpectSameRows(rows, DrainAt(op, capacity),
                   "capacity " + std::to_string(capacity));
  }
  return rows;
}

ExprPtr Slot(int slot, DataType type = DataType::kInt64) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kColumnRef;
  e->slot = slot;
  e->resolved_type = type;
  return e;
}

TEST(SeqScanOpTest, ProducesWideRowsAtOffset) {
  auto table = MakeNumbersTable(3);
  SeqScanOp scan(table.get(), /*slot_offset=*/2, /*total_slots=*/5, nullptr,
                 kCtx);
  auto rows = Drain(&scan);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(rows[0][0].is_null());
  EXPECT_TRUE(rows[0][1].is_null());
  EXPECT_EQ(rows[0][2].int_value(), 0);  // column a at offset 2
  EXPECT_EQ(rows[2][2].int_value(), 2);
  EXPECT_TRUE(rows[0][4].is_null());
}

TEST(SeqScanOpTest, PushedFilterApplies) {
  auto table = MakeNumbersTable(9);
  ExprPtr pred = Expr::MakeBinary(BinaryOp::kEq, Slot(1),
                                  Expr::MakeLiteral(Value::Int(0)));
  SeqScanOp scan(table.get(), 0, 2, std::move(pred), kCtx);
  auto rows = Drain(&scan);
  EXPECT_EQ(rows.size(), 3u);  // b == 0 for a in {0,3,6}
}

TEST(SeqScanOpTest, ReopenRestartsTheScan) {
  auto table = MakeNumbersTable(4);
  SeqScanOp scan(table.get(), 0, 2, nullptr, kCtx);
  EXPECT_EQ(Drain(&scan).size(), 4u);
  EXPECT_EQ(Drain(&scan).size(), 4u);  // second Open() rewinds
}

TEST(IndexScanOpTest, LooksUpOnlyMatchingRows) {
  auto table = MakeNumbersTable(9);
  ASSERT_TRUE(table->CreateIndex("b").ok());
  IndexScanOp scan(table.get(), /*column=*/1, Value::Int(1), 0, 2, nullptr,
                   kCtx);
  auto rows = Drain(&scan);
  EXPECT_EQ(rows.size(), 3u);  // a in {1,4,7}
  for (const Row& r : rows) EXPECT_EQ(r[1].int_value(), 1);
}

// Keys published as a hash join would, already ready for the scan.
RuntimeFilterPtr JoinKeys(std::vector<Value> keys) {
  auto filter = std::make_shared<RuntimeFilter>(RuntimeFilter::Kind::kKeys);
  filter->keys = std::move(keys);
  filter->ready.store(true);
  return filter;
}

TEST(IndexScanOpTest, SeedsTheCandidatesOfEveryKeyInPositionOrder) {
  auto table = MakeNumbersTable(9);
  table->Rechunk(4);
  ASSERT_TRUE(table->CreateIndex("b").ok());
  // A repeated key adds nothing; candidates of both keys interleave in
  // position order within and across chunks.
  IndexScanOp scan(table.get(), /*column=*/1,
                   JoinKeys({Value::Int(2), Value::Int(1), Value::Int(2)}), 0,
                   2, nullptr, kCtx);
  auto rows = Drain(&scan);
  ASSERT_EQ(rows.size(), 6u);
  const int64_t expected[] = {1, 2, 4, 5, 7, 8};
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0].int_value(), expected[i]);
  }
  EXPECT_EQ(scan.metrics().index_probes, 3u);  // one per chunk
  EXPECT_EQ(scan.metrics().index_rows, 6u);

  // A double beyond 2^52 has no sound probe on an INT64 column: the scan
  // seeds every visible row and leaves the check to its consumer.
  IndexScanOp wide(table.get(), /*column=*/1,
                   JoinKeys({Value::Int(1), Value::Double(1e17)}), 0, 2,
                   nullptr, kCtx);
  EXPECT_EQ(Drain(&wide).size(), 9u);
  EXPECT_EQ(wide.metrics().index_probes, 0u);
}

TEST(FilterOpTest, DropsNonMatching) {
  auto table = MakeNumbersTable(10);
  auto scan = std::make_unique<SeqScanOp>(table.get(), 0, 2, nullptr, kCtx);
  ExprPtr pred = Expr::MakeBinary(BinaryOp::kGt, Slot(0),
                                  Expr::MakeLiteral(Value::Int(6)));
  FilterOp filter(std::move(scan), std::move(pred));
  EXPECT_EQ(Drain(&filter).size(), 3u);  // 7, 8, 9
}

// `a <op> 0` over a scan of `table` (Drain covers capacities 1, 7, 1024).
std::vector<Row> FilterA(const Table& table, BinaryOp op) {
  auto scan = std::make_unique<SeqScanOp>(&table, 0, 2, nullptr, kCtx);
  ExprPtr pred =
      Expr::MakeBinary(op, Slot(0), Expr::MakeLiteral(Value::Int(0)));
  FilterOp filter(std::move(scan), std::move(pred));
  return Drain(&filter);
}

TEST(FilterOpTest, AllTrueKeepsEveryRowInOrder) {
  auto table = MakeNumbersTable(100);
  auto rows = FilterA(*table, BinaryOp::kGe);
  ASSERT_EQ(rows.size(), 100u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0].int_value(), static_cast<int64_t>(i));
  }
}

TEST(FilterOpTest, AllFalseEmitsNothing) {
  auto table = MakeNumbersTable(100);
  EXPECT_TRUE(FilterA(*table, BinaryOp::kLt).empty());
}

TEST(FilterOpTest, EmptyInputEmitsNothing) {
  auto table = MakeNumbersTable(0);
  EXPECT_TRUE(FilterA(*table, BinaryOp::kGe).empty());
}

TEST(FilterOpTest, NullComparisonsDropRows) {
  // SQL semantics: a NULL comparison is not TRUE, so the row drops.
  Table table(
      TableSchema("nums", {{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(table
                    .Insert({i % 2 == 0 ? Value::Int(i) : Value::Null(),
                             Value::Int(i)})
                    .ok());
  }
  auto rows = FilterA(table, BinaryOp::kGe);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1].int_value(), 0);  // b of rows 0 and 2
  EXPECT_EQ(rows[1][1].int_value(), 2);
}

TEST(HashJoinOpTest, JoinsOnSlots) {
  // Two tables sharing the wide layout [t1.a, t1.b, t2.x, t2.y].
  auto t1 = MakeNumbersTable(6);  // slots 0,1
  auto t2 = std::make_unique<Table>(
      TableSchema("other", {{"x", DataType::kInt64}, {"y", DataType::kString}}));
  ASSERT_TRUE(t2->Insert({Value::Int(0), Value::String("zero")}).ok());
  ASSERT_TRUE(t2->Insert({Value::Int(2), Value::String("two")}).ok());

  auto build = std::make_unique<SeqScanOp>(t2.get(), 2, 4, nullptr, kCtx);
  auto probe = std::make_unique<SeqScanOp>(t1.get(), 0, 4, nullptr, kCtx);
  // join on t1.b (slot 1) == t2.x (slot 2)
  HashJoinOp join(std::move(build), std::move(probe), {2}, {1},
                  /*build_slots=*/{2, 3}, /*probe_slots=*/{0, 1}, kCtx);
  auto rows = Drain(&join);
  // t1.b values: 0,1,2,0,1,2 -> matches for 0 (x2) and 2 (x2) = 4 rows.
  ASSERT_EQ(rows.size(), 4u);
  for (const Row& r : rows) {
    EXPECT_EQ(r[1].int_value(), r[2].int_value());  // join key equal
    EXPECT_FALSE(r[3].is_null());                   // build columns merged
  }
}

TEST(HashJoinOpTest, NullKeysNeverMatch) {
  auto t1 = std::make_unique<Table>(
      TableSchema("l", {{"k", DataType::kInt64}}));
  ASSERT_TRUE(t1->Insert({Value::Null()}).ok());
  ASSERT_TRUE(t1->Insert({Value::Int(1)}).ok());
  auto t2 = std::make_unique<Table>(
      TableSchema("r", {{"k", DataType::kInt64}}));
  ASSERT_TRUE(t2->Insert({Value::Null()}).ok());
  ASSERT_TRUE(t2->Insert({Value::Int(1)}).ok());

  auto build = std::make_unique<SeqScanOp>(t2.get(), 1, 2, nullptr, kCtx);
  auto probe = std::make_unique<SeqScanOp>(t1.get(), 0, 2, nullptr, kCtx);
  HashJoinOp join(std::move(build), std::move(probe), {1}, {0},
                  /*build_slots=*/{1}, /*probe_slots=*/{0}, kCtx);
  EXPECT_EQ(Drain(&join).size(), 1u);  // only 1 = 1; NULL != NULL
}

TEST(HashJoinOpTest, EmptyKeysMakeCrossProduct) {
  auto t1 = MakeNumbersTable(3);
  auto t2 = MakeNumbersTable(4);
  auto build = std::make_unique<SeqScanOp>(t2.get(), 2, 4, nullptr, kCtx);
  auto probe = std::make_unique<SeqScanOp>(t1.get(), 0, 4, nullptr, kCtx);
  HashJoinOp join(std::move(build), std::move(probe), {}, {},
                  /*build_slots=*/{2, 3}, /*probe_slots=*/{0, 1}, kCtx);
  EXPECT_EQ(Drain(&join).size(), 12u);
}

TEST(HashJoinOpTest, KeySeededIndexScanProbeMatchesTheSeqScanProbe) {
  // Wide layout [t1.a, t1.b, t2.x, t2.y]. The build side carries a
  // duplicate key and a NULL key, the probe side a NULL key and an inner
  // filter; both sides' NULLs must match nothing.
  auto t1 = MakeNumbersTable(9);  // slots 0,1; probe side, indexed on b
  ASSERT_TRUE(t1->Insert({Value::Int(9), Value::Null()}).ok());
  t1->Rechunk(4);
  ASSERT_TRUE(t1->CreateIndex("b").ok());
  auto t2 = std::make_unique<Table>(
      TableSchema("other", {{"x", DataType::kInt64}, {"y", DataType::kString}}));
  ASSERT_TRUE(t2->Insert({Value::Int(2), Value::String("two")}).ok());
  ASSERT_TRUE(t2->Insert({Value::Int(0), Value::String("zero")}).ok());
  ASSERT_TRUE(t2->Insert({Value::Int(2), Value::String("again")}).ok());
  ASSERT_TRUE(t2->Insert({Value::Int(7), Value::String("none")}).ok());
  ASSERT_TRUE(t2->Insert({Value::Null(), Value::String("null")}).ok());

  // Inner predicate a > 2, bound to the wide layout.
  auto inner_filter = [] {
    return Expr::MakeBinary(BinaryOp::kGt, Slot(0),
                            Expr::MakeLiteral(Value::Int(2)));
  };
  HashJoinOp scanned(
      std::make_unique<SeqScanOp>(t2.get(), 2, 4, nullptr, kCtx),
      std::make_unique<SeqScanOp>(t1.get(), 0, 4, inner_filter(), kCtx), {2},
      {1}, /*build_slots=*/{2, 3}, /*probe_slots=*/{0, 1}, kCtx);
  auto keys = std::make_shared<RuntimeFilter>(RuntimeFilter::Kind::kKeys);
  auto index_scan = std::make_unique<IndexScanOp>(
      t1.get(), /*column=*/1, keys, 0, 4, inner_filter(), kCtx);
  const IndexScanOp* probe = index_scan.get();
  HashJoinOp seeded(std::make_unique<SeqScanOp>(t2.get(), 2, 4, nullptr, kCtx),
                    std::move(index_scan), {2}, {1}, /*build_slots=*/{2, 3},
                    /*probe_slots=*/{0, 1}, kCtx);
  seeded.AddRuntimeFilterTarget(keys, 0);

  auto expected = Drain(&scanned);
  auto rows = Drain(&seeded);
  // a > 2 with b in {0, 2}: a in {3, 5, 6, 8}; b = 2 matches two build rows.
  ASSERT_EQ(rows.size(), 6u);
  ExpectSameRows(expected, rows, "seeded vs scanned probe");
  // The join published its distinct non-NULL keys {0, 2, 7}; the seeded
  // scan materialized only the four probe rows that can join.
  EXPECT_EQ(keys->keys.size(), 3u);
  EXPECT_EQ(probe->metrics().rows_produced, 4u);
  EXPECT_EQ(seeded.metrics().probe_rows, 4u);
  EXPECT_GT(probe->metrics().index_probes, 0u);
}

TEST(HashAggregateOpTest, SameGroupsAtEveryDegree) {
  // A Fig.-8-shaped clean-answer aggregate: GROUP BY a string id, a second
  // string, an INT64 and a DOUBLE (NULLs, -0.0 and +0.0 included), SUM of
  // a three-factor DOUBLE product with NULL factors. Two-row morsels split
  // each window into many morsels, so the two-phase pass runs on every
  // worker; groups, their order, the key bits and the sums must match the
  // inline run bit for bit at every degree and batch size.
  auto table = std::make_unique<Table>(TableSchema(
      "fig8", {{"id", DataType::kString},
               {"name", DataType::kString},
               {"n", DataType::kInt64},
               {"d", DataType::kDouble},
               {"p1", DataType::kDouble},
               {"p2", DataType::kDouble},
               {"p3", DataType::kDouble}}));
  for (int i = 0; i < 600; ++i) {
    const int c = (i * 37) % 23;
    ASSERT_TRUE(
        table
            ->Insert({Value::String("c" + std::to_string(c)),
                      c % 5 == 0 ? Value::Null()
                                 : Value::String("n" + std::to_string(c % 4)),
                      Value::Int(c % 3),
                      c % 2 == 0 ? Value::Double(0.25 * (c % 4))
                                 : Value::Double(i % 3 == 0 ? 0.0 : -0.0),
                      Value::Double(1.0 / (i + 3)),
                      i % 17 == 0 ? Value::Null()
                                  : Value::Double(0.1 * (i % 7 + 1)),
                      Value::Double(1.0 / (i % 11 + 2))})
            .ok());
  }
  ExprPtr id = Slot(0, DataType::kString);
  ExprPtr name = Slot(1, DataType::kString);
  ExprPtr n = Slot(2);
  ExprPtr d = Slot(3, DataType::kDouble);
  auto product = [] {
    ExprPtr p12 = Expr::MakeBinary(BinaryOp::kMul, Slot(4, DataType::kDouble),
                                   Slot(5, DataType::kDouble));
    p12->resolved_type = DataType::kDouble;
    ExprPtr p = Expr::MakeBinary(BinaryOp::kMul, std::move(p12),
                                 Slot(6, DataType::kDouble));
    p->resolved_type = DataType::kDouble;
    return p;
  };
  ExprPtr sum = Expr::MakeAggregate(AggFunc::kSum, product());
  sum->resolved_type = DataType::kDouble;
  // The same sum through the scalar evaluator: adding +0.0 to a product of
  // positive factors is exact, so the two sums agree bit for bit only if
  // the compiled product multiplies in EvalBinary's order.
  ExprPtr plus_zero = Expr::MakeBinary(
      BinaryOp::kAdd, product(), Expr::MakeLiteral(Value::Double(0.0)));
  plus_zero->resolved_type = DataType::kDouble;
  ExprPtr evaluated = Expr::MakeAggregate(AggFunc::kSum, std::move(plus_zero));
  evaluated->resolved_type = DataType::kDouble;
  ExprPtr count = Expr::MakeAggregate(AggFunc::kCount, nullptr);
  count->resolved_type = DataType::kInt64;
  std::vector<const Expr*> keys = {id.get(), name.get(), n.get(), d.get()};
  std::vector<const Expr*> items = {id.get(),  name.get(),      n.get(),
                                    d.get(),   sum.get(),       count.get(),
                                    evaluated.get()};
  auto bits = [](const Value& v) {
    return v.is_null() ? uint64_t{0}
                       : std::bit_cast<uint64_t>(v.double_value());
  };

  std::vector<Row> reference;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
      const std::string label = "threads " + std::to_string(threads) +
                                " batch " + std::to_string(batch);
      std::unique_ptr<TaskPool> pool;
      if (threads > 1) pool = std::make_unique<TaskPool>(threads);
      ExecContext ctx;
      ctx.pool = pool.get();
      ctx.morsel_size = 2;
      ctx.batch_size = batch;
      HashAggregateOp agg(
          std::make_unique<SeqScanOp>(table.get(), 0, 7, nullptr, ctx), keys,
          items, ctx);
      std::vector<Row> rows = DrainAt(&agg, batch);
      EXPECT_EQ(agg.metrics().parallel_degree, threads) << label;
      EXPECT_EQ(agg.metrics().hash_entries, rows.size()) << label;
      EXPECT_GT(agg.metrics().peak_memory_bytes, 0u) << label;
      if (reference.empty()) {
        reference = rows;
        ASSERT_EQ(reference.size(), 23u);
      }
      ExpectSameRows(reference, rows, label);
      for (size_t r = 0; r < rows.size() && r < reference.size(); ++r) {
        EXPECT_EQ(bits(rows[r][3]), bits(reference[r][3])) << label;
        EXPECT_EQ(bits(rows[r][4]), bits(reference[r][4])) << label;
        EXPECT_EQ(bits(rows[r][4]), bits(rows[r][6])) << label << " row " << r;
      }
    }
  }
  // Odd ids see both zeros in column d within one group, which outputs the
  // zero it saw first; some of them saw -0.0 first.
  size_t negative_zero_groups = 0;
  for (const Row& row : reference) {
    if (!row[3].is_null() && row[3].double_value() == 0.0 &&
        std::signbit(row[3].double_value())) {
      ++negative_zero_groups;
    }
  }
  EXPECT_GT(negative_zero_groups, 0u);
}

TEST(HashAggregateOpTest, RuntimeValueOutsideItsKeyTypeIsInternal) {
  // A key bound as INT64 that meets a DOUBLE at runtime fails instead of
  // grouping by some other word.
  auto table = std::make_unique<Table>(
      TableSchema("d", {{"d", DataType::kDouble}}));
  ASSERT_TRUE(table->Insert({Value::Double(1.5)}).ok());
  ExprPtr key = Slot(0, DataType::kInt64);
  std::vector<const Expr*> keys = {key.get()};
  HashAggregateOp agg(
      std::make_unique<SeqScanOp>(table.get(), 0, 1, nullptr, kCtx), keys,
      keys, kCtx);
  Status s = agg.Open();
  EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
  agg.Close();
}

TEST(ProjectOpTest, EvaluatesExpressions) {
  auto table = MakeNumbersTable(3);
  auto scan = std::make_unique<SeqScanOp>(table.get(), 0, 2, nullptr, kCtx);
  ExprPtr doubled = Expr::MakeBinary(BinaryOp::kMul, Slot(0),
                                     Expr::MakeLiteral(Value::Int(2)));
  std::vector<const Expr*> items = {doubled.get()};
  ProjectOp project(std::move(scan), items);
  auto rows = Drain(&project);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[2][0].int_value(), 4);
  EXPECT_EQ(rows[2].size(), 1u);  // narrow row
}

TEST(SortOpTest, SortsByMultipleKeys) {
  auto table = MakeNumbersTable(6);
  auto scan = std::make_unique<SeqScanOp>(table.get(), 0, 2, nullptr, kCtx);
  ExprPtr a = Slot(0), b = Slot(1);
  std::vector<const Expr*> items = {b.get(), a.get()};
  auto project = std::make_unique<ProjectOp>(std::move(scan), items);
  SortOp sort(std::move(project), {{0, false}, {1, true}});
  auto rows = Drain(&sort);
  ASSERT_EQ(rows.size(), 6u);
  // b ascending, then a descending: (0,3),(0,0),(1,4),(1,1),(2,5),(2,2)
  EXPECT_EQ(rows[0][1].int_value(), 3);
  EXPECT_EQ(rows[1][1].int_value(), 0);
  EXPECT_EQ(rows[4][1].int_value(), 5);
}

TEST(DistinctOpTest, RemovesDuplicates) {
  auto table = MakeNumbersTable(9);
  auto scan = std::make_unique<SeqScanOp>(table.get(), 0, 2, nullptr, kCtx);
  ExprPtr b = Slot(1);
  std::vector<const Expr*> items = {b.get()};
  auto project = std::make_unique<ProjectOp>(std::move(scan), items);
  DistinctOp distinct(std::move(project));
  EXPECT_EQ(Drain(&distinct).size(), 3u);
}

TEST(LimitOpTest, StopsEarly) {
  auto table = MakeNumbersTable(100);
  auto scan = std::make_unique<SeqScanOp>(table.get(), 0, 2, nullptr, kCtx);
  LimitOp limit(std::move(scan), 7);
  EXPECT_EQ(Drain(&limit).size(), 7u);
}

TEST(StripColumnsOpTest, TruncatesRows) {
  auto table = MakeNumbersTable(2);
  auto scan = std::make_unique<SeqScanOp>(table.get(), 0, 2, nullptr, kCtx);
  ExprPtr a = Slot(0), b = Slot(1);
  std::vector<const Expr*> items = {a.get(), b.get()};
  auto project = std::make_unique<ProjectOp>(std::move(scan), items);
  StripColumnsOp strip(std::move(project), 1);
  auto rows = Drain(&strip);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].size(), 1u);
}

TEST(HashAggregateOpTest, GroupsAndAggregates) {
  auto table = MakeNumbersTable(9);
  auto scan = std::make_unique<SeqScanOp>(table.get(), 0, 2, nullptr, kCtx);
  ExprPtr key = Slot(1);
  ExprPtr sum_arg = Slot(0);
  ExprPtr sum = Expr::MakeAggregate(AggFunc::kSum, sum_arg->Clone());
  sum->resolved_type = DataType::kInt64;
  ExprPtr count = Expr::MakeAggregate(AggFunc::kCount, nullptr);
  std::vector<const Expr*> keys = {key.get()};
  std::vector<const Expr*> items = {key.get(), sum.get(), count.get()};
  HashAggregateOp agg(std::move(scan), keys, items, kCtx);
  auto rows = Drain(&agg);
  ASSERT_EQ(rows.size(), 3u);
  for (const Row& r : rows) {
    int64_t k = r[0].int_value();
    // a values for key k: k, k+3, k+6 -> sum = 3k + 9, count = 3.
    EXPECT_EQ(r[1].int_value(), 3 * k + 9);
    EXPECT_EQ(r[2].int_value(), 3);
  }
}

TEST(ExplainPlanTest, RendersIndentedTree) {
  auto table = MakeNumbersTable(1);
  auto scan = std::make_unique<SeqScanOp>(table.get(), 0, 2, nullptr, kCtx);
  LimitOp limit(std::move(scan), 1);
  std::string text = ExplainPlan(limit);
  EXPECT_NE(text.find("Limit(1)\n  SeqScan(nums)"), std::string::npos) << text;
}

}  // namespace
}  // namespace conquer
