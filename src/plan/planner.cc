#include "plan/planner.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <set>

#include "exec/operators.h"

namespace conquer {

namespace {

/// Cost-model crossover between an index probe and the vectorized scan: a
/// probe materializes matches row-at-a-time (plus a per-chunk lookup),
/// which measures out to roughly kIndexCostFactor times the per-row cost of
/// the streaming scan. The index therefore wins only when the equality is
/// expected to keep at most 1-in-kIndexCostFactor rows.
constexpr double kIndexCostFactor = 8.0;

/// A hash join whose probe scan is seeded from the index with its build
/// keys pays one multi-chunk index probe per build key; require the probe
/// table to be at least this many times larger than the build estimate
/// before seeding it instead of scanning it.
constexpr double kInljBuildFactor = 16.0;

/// Numeric image of a literal for histogram probes; false for NULL,
/// strings and NaN (none has an ordering position in the histogram).
bool LiteralAsDouble(const Value& v, double* x) {
  if (v.is_null() || v.type() == DataType::kString) return false;
  const double d = v.AsDouble();
  if (std::isnan(d)) return false;
  *x = d;
  return true;
}

void CollectFromIndices(const Expr& e, std::set<int>* out) {
  if (e.kind == Expr::Kind::kColumnRef) {
    out->insert(e.from_index);
    return;
  }
  if (e.left) CollectFromIndices(*e.left, out);
  if (e.right) CollectFromIndices(*e.right, out);
}

/// Marks every wide slot some expression reads (column pruning input).
void CollectSlots(const Expr& e, std::vector<bool>* referenced) {
  if (e.kind == Expr::Kind::kColumnRef) {
    (*referenced)[e.slot] = true;
    return;
  }
  if (e.left) CollectSlots(*e.left, referenced);
  if (e.right) CollectSlots(*e.right, referenced);
}

/// Splits a binary comparison into (column, literal), normalizing the
/// operator as if the column were on the left (`5 < col` reads `col > 5`).
/// Returns false unless the conjunct has exactly that shape.
bool SplitColumnLiteral(const Expr& e, const Expr** col, const Expr** lit,
                        BinaryOp* op) {
  *op = e.bop;
  if (e.left->kind == Expr::Kind::kColumnRef &&
      e.right->kind == Expr::Kind::kLiteral) {
    *col = e.left.get();
    *lit = e.right.get();
    return true;
  }
  if (e.right->kind == Expr::Kind::kColumnRef &&
      e.left->kind == Expr::Kind::kLiteral) {
    *col = e.right.get();
    *lit = e.left.get();
    switch (e.bop) {
      case BinaryOp::kLt: *op = BinaryOp::kGt; break;
      case BinaryOp::kLe: *op = BinaryOp::kGe; break;
      case BinaryOp::kGt: *op = BinaryOp::kLt; break;
      case BinaryOp::kGe: *op = BinaryOp::kLe; break;
      default: break;
    }
    return true;
  }
  return false;
}

/// Single-conjunct selectivity: equi-depth histograms (built by ANALYZE)
/// estimate `=`, `<`, `<=`, `>`, `>=` and BETWEEN (two range conjuncts);
/// NDV covers equality on unanalyzed or string columns; fixed fractions
/// remain the last resort.
double EstimateSelectivity(const Expr& e, const std::vector<Table*>& tables) {
  if (e.kind != Expr::Kind::kBinary) return 0.5;
  const Expr* col = nullptr;
  const Expr* lit = nullptr;
  BinaryOp op = e.bop;
  const Histogram* hist = nullptr;
  double x = 0.0;
  switch (e.bop) {
    case BinaryOp::kEq:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      if (SplitColumnLiteral(e, &col, &lit, &op)) {
        const Table* t = tables[col->from_index];
        const Histogram& h = t->column_stats(col->column_index).histogram;
        if (!h.empty() && h.total() > 0 &&
            LiteralAsDouble(lit->literal, &x)) {
          hist = &h;
        }
      }
      break;
    default:
      break;
  }
  switch (op) {
    case BinaryOp::kEq: {
      if (hist != nullptr) {
        return std::clamp(
            hist->EstimateEqual(x) / static_cast<double>(hist->total()), 0.0,
            1.0);
      }
      // col = literal: 1/NDV when statistics exist.
      if (col != nullptr) {
        const Table* t = tables[col->from_index];
        size_t ndv = t->column_stats(col->column_index).num_distinct;
        if (ndv > 0) return 1.0 / static_cast<double>(ndv);
      }
      return 0.05;
    }
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (hist != nullptr) {
        const double total = static_cast<double>(hist->total());
        double rows = 0.0;
        switch (op) {
          case BinaryOp::kLt: rows = hist->EstimateLess(x); break;
          case BinaryOp::kLe: rows = hist->EstimateLessEqual(x); break;
          case BinaryOp::kGt: rows = total - hist->EstimateLessEqual(x); break;
          default: rows = total - hist->EstimateLess(x); break;
        }
        return std::clamp(rows / total, 0.0, 1.0);
      }
      return 0.33;
    }
    case BinaryOp::kNe:
      return 0.9;
    case BinaryOp::kLike:
      return 0.25;
    case BinaryOp::kAnd: {
      return EstimateSelectivity(*e.left, tables) *
             EstimateSelectivity(*e.right, tables);
    }
    case BinaryOp::kOr: {
      double a = EstimateSelectivity(*e.left, tables);
      double b = EstimateSelectivity(*e.right, tables);
      return std::min(1.0, a + b);
    }
    default:
      return 0.5;
  }
}

/// One equi-join predicate between two FROM tables.
struct JoinEdge {
  int left_from;
  int left_slot;
  int right_from;
  int right_slot;
};

ExprPtr AndCombine(ExprPtr a, ExprPtr b) {
  if (!a) return b;
  if (!b) return a;
  return Expr::MakeBinary(BinaryOp::kAnd, std::move(a), std::move(b));
}

/// A point-lookup candidate: `col = literal` on an indexed column whose
/// probe is sound for the literal (ChunkIndex::ResolveProbe). Recording a
/// candidate does NOT consume the conjunct — it stays in the table filter,
/// so cardinality estimates are access-path independent and the IndexScanOp
/// re-applies the full predicate to its candidate rows.
struct IndexLookup {
  size_t column = SIZE_MAX;  ///< table-local indexed column; SIZE_MAX = none
  Value key;
  double eq_sel = 1.0;  ///< estimated selectivity of the equality conjunct
};

/// Per-edge join selectivity from distinct-value statistics: the classic
/// 1/max(NDV_left, NDV_right); 0.05 when statistics are missing.
double EdgeSelectivity(const BoundQuery& q, const JoinEdge& e) {
  auto ndv_of = [&q](int from, int slot) -> size_t {
    size_t col = static_cast<size_t>(slot) - q.slot_offsets[from];
    return q.tables[from]->column_stats(col).num_distinct;
  };
  size_t l = ndv_of(e.left_from, e.left_slot);
  size_t r = ndv_of(e.right_from, e.right_slot);
  size_t m = std::max(l, r);
  if (m == 0) return 0.05;
  return 1.0 / static_cast<double>(m);
}

}  // namespace

Result<OperatorPtr> Planner::Plan(const BoundQuery& q,
                                  const ExecContext& exec) {
  const SelectStatement& stmt = *q.stmt;
  size_t n = stmt.from.size();

  // ---- Column pruning: which wide slots does the query actually read? ----
  // Every expression the executor evaluates on a wide row comes from the
  // WHERE clause, the select list, GROUP BY, or ORDER BY; scans materialize
  // only these slots and joins copy only these slots, leaving the rest NULL.
  std::vector<bool> referenced(q.total_slots, false);
  if (stmt.where) CollectSlots(*stmt.where, &referenced);
  for (const auto& item : stmt.select_list) {
    CollectSlots(*item.expr, &referenced);
  }
  for (const auto& g : stmt.group_by) CollectSlots(*g, &referenced);
  for (const auto& o : stmt.order_by) CollectSlots(*o.expr, &referenced);

  // ---- Classify WHERE conjuncts. ----
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(stmt.where.get(), &conjuncts);

  std::vector<ExprPtr> table_filters(n);  // single-table predicates
  std::vector<JoinEdge> edges;
  struct Residual {
    const Expr* expr;
    std::set<int> tables;
    bool applied = false;
  };
  std::vector<Residual> residuals;
  std::vector<IndexLookup> lookups(n);

  for (const Expr* c : conjuncts) {
    std::set<int> refs;
    CollectFromIndices(*c, &refs);
    if (refs.empty()) {
      // Constant predicate: keep as residual applied at the first chance.
      residuals.push_back({c, refs, false});
      continue;
    }
    if (refs.size() == 1) {
      int t = *refs.begin();
      // Candidate for an index point lookup? Recorded, not consumed: the
      // conjunct still joins the table filter below, so estimates and the
      // residual predicate are identical whichever access path wins.
      if (c->kind == Expr::Kind::kBinary && c->bop == BinaryOp::kEq &&
          lookups[t].column == SIZE_MAX) {
        const Expr* col = nullptr;
        const Expr* lit = nullptr;
        BinaryOp op;
        if (SplitColumnLiteral(*c, &col, &lit, &op) &&
            !lit->literal.is_null()) {
          const ChunkIndex* idx = q.tables[t]->GetIndex(col->column_index);
          if (idx != nullptr) {
            bool unsupported = false;
            idx->ResolveProbe(lit->literal,
                              q.tables[t]->dictionary(col->column_index),
                              &unsupported);
            if (!unsupported) {
              lookups[t].column = col->column_index;
              lookups[t].key = lit->literal;
              lookups[t].eq_sel = EstimateSelectivity(*c, q.tables);
            }
          }
        }
      }
      table_filters[t] = AndCombine(std::move(table_filters[t]), c->Clone());
      continue;
    }
    if (refs.size() == 2 && c->kind == Expr::Kind::kBinary &&
        c->bop == BinaryOp::kEq &&
        c->left->kind == Expr::Kind::kColumnRef &&
        c->right->kind == Expr::Kind::kColumnRef) {
      edges.push_back({c->left->from_index, c->left->slot,
                       c->right->from_index, c->right->slot});
      continue;
    }
    residuals.push_back({c, refs, false});
  }

  // ---- Per-table cardinality estimates and access paths. ----
  std::vector<double> est(n);
  std::vector<std::pair<size_t, size_t>> ranges(n);
  std::vector<bool> point_lookup(n, false);
  const bool enable_index = exec.enable_index_scan;
  for (size_t i = 0; i < n; ++i) {
    const Table* t = q.tables[i];
    ranges[i] = {q.slot_offsets[i], t->schema().num_columns()};
    // The estimate is access-path independent (the index candidate's
    // equality is part of the filter), so join ordering and build-side
    // choices cannot drift between index-on and index-off plans.
    double rows = static_cast<double>(t->num_rows());
    if (table_filters[i]) {
      rows *= EstimateSelectivity(*table_filters[i], q.tables);
    }
    est[i] = std::max(rows, 1.0);
    // Cost-based access path: probe the index only when the equality is
    // estimated selective enough to beat the vectorized full scan.
    point_lookup[i] = enable_index && lookups[i].column != SIZE_MAX &&
                      lookups[i].eq_sel * kIndexCostFactor <= 1.0;
  }

  // Raw scan pointers survive the moves into the join tree; runtime filters
  // are attached through them as joins above each scan are constructed.
  std::vector<SeqScanOp*> seq_scans(n, nullptr);
  // Builds table i's scan, with its pushed-down filter, when the join order
  // reaches it. `join_keys`, when given, seeds an IndexScan on the indexed
  // column `key_column` with the build keys of the hash join above it.
  auto make_scan = [&](size_t i, RuntimeFilterPtr join_keys = nullptr,
                       size_t key_column = 0) -> OperatorPtr {
    const Table* t = q.tables[i];
    std::unique_ptr<SeqScanOp> scan;
    if (join_keys) {
      scan = std::make_unique<IndexScanOp>(
          t, key_column, std::move(join_keys), q.slot_offsets[i],
          q.total_slots, std::move(table_filters[i]), exec, &referenced);
    } else if (point_lookup[i]) {
      scan = std::make_unique<IndexScanOp>(
          t, lookups[i].column, lookups[i].key, q.slot_offsets[i],
          q.total_slots, std::move(table_filters[i]), exec, &referenced);
    } else {
      scan = std::make_unique<SeqScanOp>(t, q.slot_offsets[i], q.total_slots,
                                         std::move(table_filters[i]), exec,
                                         &referenced);
      seq_scans[i] = scan.get();
    }
    scan->set_est_rows(est[i]);
    return scan;
  };

  const bool push_runtime_filters = exec.enable_runtime_filters;
  // Pushes one Bloom filter per join key from `join` into the SeqScan that
  // owns each probe-side key slot. Safe because every scan in the probe
  // subtree opens only after the join's build completes (FillRuntimeFilters
  // runs between the two), and a Bloom filter only drops rows the join
  // itself would reject.
  auto attach_runtime_filters = [&](HashJoinOp* join,
                                    const std::vector<int>& probe_keys) {
    if (!push_runtime_filters) return;
    for (size_t k = 0; k < probe_keys.size(); ++k) {
      const size_t slot = static_cast<size_t>(probe_keys[k]);
      for (size_t t = 0; t < n; ++t) {
        if (seq_scans[t] == nullptr) continue;
        if (slot < ranges[t].first || slot >= ranges[t].first + ranges[t].second) {
          continue;
        }
        auto rf = std::make_shared<RuntimeFilter>();
        join->AddRuntimeFilterTarget(rf, k);
        seq_scans[t]->AddRuntimeFilter(std::move(rf), slot - ranges[t].first);
        break;
      }
    }
  };

  // ---- Join ordering (greedy). ----
  std::set<int> joined;
  std::vector<std::pair<size_t, size_t>> joined_ranges;
  // Start from the smallest estimated table.
  int first = 0;
  for (size_t i = 1; i < n; ++i) {
    if (est[i] < est[first]) first = static_cast<int>(i);
  }
  OperatorPtr plan = make_scan(first);
  joined.insert(first);
  joined_ranges.push_back(ranges[first]);
  double plan_est = est[first];

  auto apply_ready_residuals = [&](OperatorPtr p) {
    for (auto& r : residuals) {
      if (r.applied) continue;
      bool ready = true;
      for (int t : r.tables) ready = ready && joined.count(t) > 0;
      if (ready) {
        p = std::make_unique<FilterOp>(std::move(p), r.expr->Clone());
        r.applied = true;
      }
    }
    return p;
  };
  plan = apply_ready_residuals(std::move(plan));

  while (joined.size() < n) {
    // The smallest table connected to the joined set by an edge.
    int best = -1;
    for (const JoinEdge& e : edges) {
      int other = -1;
      if (joined.count(e.left_from) && !joined.count(e.right_from)) {
        other = e.right_from;
      } else if (joined.count(e.right_from) && !joined.count(e.left_from)) {
        other = e.left_from;
      }
      if (other >= 0 && (best < 0 || est[other] < est[best])) best = other;
    }
    bool cross = false;
    if (best < 0) {
      // No connecting edge: cross product with the smallest remaining table.
      cross = true;
      for (size_t i = 0; i < n; ++i) {
        if (joined.count(static_cast<int>(i))) continue;
        if (best < 0 || est[i] < est[best]) best = static_cast<int>(i);
      }
    }

    // Every edge between `best` and the joined set becomes a key of this
    // join (an equality cycle's closing edge included), so no edge is ever
    // left over to filter on later.
    std::vector<int> new_keys, old_keys;
    double step_sel = 1.0;  // product of the consumed edges' selectivities
    if (!cross) {
      for (const JoinEdge& e : edges) {
        if (e.left_from == best && joined.count(e.right_from)) {
          new_keys.push_back(e.left_slot);
          old_keys.push_back(e.right_slot);
          step_sel *= EdgeSelectivity(q, e);
        } else if (e.right_from == best && joined.count(e.left_from)) {
          new_keys.push_back(e.right_slot);
          old_keys.push_back(e.left_slot);
          step_sel *= EdgeSelectivity(q, e);
        }
      }
    }

    // Referenced slots each side populates: the emitted row copies exactly
    // these (unreferenced slots stay NULL all the way up the plan).
    auto referenced_slots =
        [&referenced](const std::vector<std::pair<size_t, size_t>>& rs) {
          std::vector<uint32_t> out;
          for (const auto& [offset, len] : rs) {
            for (size_t i = 0; i < len; ++i) {
              if (referenced[offset + i]) {
                out.push_back(static_cast<uint32_t>(offset + i));
              }
            }
          }
          return out;
        };
    std::vector<uint32_t> new_slots = referenced_slots({ranges[best]});
    std::vector<uint32_t> old_slots = referenced_slots(joined_ranges);

    // Build on the smaller side. Scans of base tables have known estimates;
    // the running plan uses its rolling estimate.
    OperatorPtr next;
    if (est[best] <= plan_est) {
      auto join = std::make_unique<HashJoinOp>(
          make_scan(best), std::move(plan), new_keys, old_keys,
          std::move(new_slots), std::move(old_slots), exec);
      attach_runtime_filters(join.get(), old_keys);
      next = std::move(join);
    } else {
      // The running plan is the (much) smaller side. When the new table's
      // single join key is indexed, seed its scan with the build's distinct
      // keys instead of scanning all of it: only chunks holding candidates
      // are pinned, so out of core only those fault in, and the join
      // re-checks every key. DOUBLE key columns keep the full scan: their
      // NaN rows are candidates for every probe, and a NaN build key would
      // seed every row. The keys flow whether or not Bloom filters are
      // pushed.
      RuntimeFilterPtr join_keys;
      size_t key_column = 0;
      if (enable_index && !cross && new_keys.size() == 1 &&
          !point_lookup[best] && plan_est * kInljBuildFactor <= est[best]) {
        key_column = static_cast<size_t>(new_keys[0]) - q.slot_offsets[best];
        const Table* t = q.tables[best];
        if (t->GetIndex(key_column) != nullptr &&
            t->schema().column(key_column).type != DataType::kDouble) {
          join_keys =
              std::make_shared<RuntimeFilter>(RuntimeFilter::Kind::kKeys);
        }
      }
      auto join = std::make_unique<HashJoinOp>(
          std::move(plan), make_scan(best, join_keys, key_column), old_keys,
          new_keys, std::move(old_slots), std::move(new_slots), exec);
      if (join_keys) join->AddRuntimeFilterTarget(std::move(join_keys), 0);
      attach_runtime_filters(join.get(), new_keys);
      next = std::move(join);
    }
    plan = std::move(next);
    joined.insert(best);
    joined_ranges.push_back(ranges[best]);
    // NDV-based rolling estimate (EdgeSelectivity per consumed edge): the
    // old 1/max(rows) formula collapsed every join to min(inputs), which on
    // duplicate-heavy data underestimated the running plan by orders of
    // magnitude and made later joins build on the (huge) plan side.
    plan_est = std::max(1.0, plan_est * est[best] * (cross ? 1.0 : step_sel));
    plan->set_est_rows(plan_est);

    plan = apply_ready_residuals(std::move(plan));
  }

  // ---- Aggregation or projection to narrow rows. ----
  std::vector<const Expr*> items;
  for (const auto& item : stmt.select_list) items.push_back(item.expr.get());

  if (q.is_aggregate) {
    std::vector<const Expr*> keys;
    for (const auto& g : stmt.group_by) keys.push_back(g.get());
    plan = std::make_unique<HashAggregateOp>(std::move(plan), keys, items,
                                             exec);
  } else {
    plan = std::make_unique<ProjectOp>(std::move(plan), items);
  }

  if (stmt.distinct) {
    plan = std::make_unique<DistinctOp>(std::move(plan));
  }

  if (!stmt.order_by.empty()) {
    std::vector<SortKey> keys;
    for (size_t i = 0; i < stmt.order_by.size(); ++i) {
      keys.push_back(
          {q.order_by_output_columns[i], stmt.order_by[i].descending});
    }
    plan = std::make_unique<SortOp>(std::move(plan), std::move(keys));
  }

  if (q.num_visible_columns < stmt.select_list.size()) {
    plan = std::make_unique<StripColumnsOp>(std::move(plan),
                                            q.num_visible_columns);
  }

  if (stmt.limit >= 0) {
    plan = std::make_unique<LimitOp>(std::move(plan), stmt.limit);
  }

  return plan;
}

}  // namespace conquer
