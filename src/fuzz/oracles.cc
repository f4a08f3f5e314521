#include "fuzz/oracles.h"

#include <cmath>
#include <cstring>

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_set>

#include "common/str_util.h"
#include "core/clean_engine.h"
#include "core/naive_eval.h"
#include "prob/assigner.h"
#include "prob/dcf.h"
#include "prob/incremental.h"
#include "storage/table.h"

namespace conquer {
namespace fuzz {
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

void ApplyInjection(BugInjection inject, size_t threads, CleanAnswerSet* set) {
  switch (inject) {
    case BugInjection::kNone:
      break;
    case BugInjection::kProbBias:
      for (CleanAnswer& a : set->answers) {
        a.probability *= 1.0 + 1.0 / 1024.0;
      }
      break;
    case BugInjection::kDropAnswer:
      if (!set->answers.empty()) set->answers.pop_back();
      break;
    case BugInjection::kParallelSkew:
      if (threads > 1) {
        for (CleanAnswer& a : set->answers) {
          a.probability += 1.0 / (1 << 30);
        }
      }
      break;
    case BugInjection::kRenormSkip:
    case BugInjection::kMatchSkip:
      // Injected into the prob layer itself (SetIncrementalFaultInjection),
      // not into the answer sets.
      break;
  }
}

/// "" when `run` reproduces `baseline` exactly (same rows, same order,
/// bit-identical probabilities); otherwise a description of the divergence.
std::string DiffAnswerSets(const CleanAnswerSet& baseline,
                           const CleanAnswerSet& run,
                           const std::string& label) {
  if (run.answers.size() != baseline.answers.size()) {
    return StringPrintf("answer count %zu != baseline %zu %s",
                        run.answers.size(), baseline.answers.size(),
                        label.c_str());
  }
  for (size_t i = 0; i < run.answers.size(); ++i) {
    if (!RowsEqual(run.answers[i].row, baseline.answers[i].row)) {
      return StringPrintf("answer row %zu differs from baseline %s", i,
                          label.c_str());
    }
    if (Bits(run.answers[i].probability) !=
        Bits(baseline.answers[i].probability)) {
      return StringPrintf(
          "probability of answer %zu not bit-identical to baseline "
          "(%.17g vs %.17g) %s",
          i, run.answers[i].probability, baseline.answers[i].probability,
          label.c_str());
    }
  }
  return "";
}

struct OracleRun {
  const FuzzCase& c;
  const OracleOptions& opts;
  BuiltDb built;
  std::string sql;
  OracleReport report;

  void Fail(ViolationKind kind, std::string message) {
    if (!report.ok()) return;  // keep the first violation
    report.kind = kind;
    report.violation = std::move(message);
  }

  /// One engine run under the current database configuration, with the
  /// injected bug applied. Engine errors become kEngineError violations.
  bool Query(const CleanAnswerEngine& engine, size_t threads,
             const std::string& label, CleanAnswerSet* out) {
    built.db->SetThreads(threads);
    auto run = engine.Query(sql);
    if (!run.ok()) {
      Fail(ViolationKind::kEngineError,
           "engine error " + label + ": " + run.status().ToString());
      return false;
    }
    *out = std::move(run).value();
    ApplyInjection(opts.inject, threads, out);
    return true;
  }

  void RestoreChunkCapacities() {
    for (const FuzzTable& t : c.tables) {
      auto table = built.db->GetTable(t.name);
      if (!table.ok()) continue;
      size_t capacity =
          t.chunk_capacity > 0 ? t.chunk_capacity : Table::kDefaultChunkCapacity;
      (*table)->Rechunk(capacity);
    }
  }
};

void CheckInputIntegrity(OracleRun* r) {
  for (const ClusterSum& cluster : ClusterProbabilitySums(r->c)) {
    if (std::abs(cluster.sum - 1.0) > 1e-9) {
      r->Fail(ViolationKind::kInputIntegrity,
              StringPrintf(
                  "cluster %s.%s probabilities sum to %.17g, expected ~1 "
                  "(%zu rows)",
                  cluster.table.c_str(), cluster.id.c_str(), cluster.sum,
                  cluster.rows));
      return;
    }
  }
}

/// The reject path: a deliberately non-rewritable mutant must be diagnosed
/// by the checker with a reason, and refused by Query.
void CheckRejectPath(OracleRun* r, const CleanAnswerEngine& engine) {
  auto check = engine.Check(r->sql);
  if (!check.ok()) {
    r->Fail(ViolationKind::kExpectation,
            "checker errored on mutant '" + r->c.query.mutation +
                "': " + check.status().ToString());
    return;
  }
  if (check->rewritable) {
    r->Fail(ViolationKind::kExpectation,
            "mutant '" + r->c.query.mutation +
                "' was accepted as rewritable: " + r->sql);
    return;
  }
  if (check->reason.empty()) {
    r->Fail(ViolationKind::kExpectation,
            "mutant '" + r->c.query.mutation + "' rejected without a reason");
    return;
  }
  auto run = engine.Query(r->sql);
  if (run.ok()) {
    r->Fail(ViolationKind::kExpectation,
            "Query executed a non-rewritable mutant '" + r->c.query.mutation +
                "' instead of rejecting it");
  }
}

void CheckProbabilityRange(OracleRun* r, const CleanAnswerSet& answers,
                           const std::string& label, double tolerance) {
  for (size_t i = 0; i < answers.answers.size(); ++i) {
    double p = answers.answers[i].probability;
    if (!(p >= -tolerance && p <= 1.0 + tolerance) || std::isnan(p)) {
      r->Fail(ViolationKind::kRange,
              StringPrintf("%s probability of answer %zu is %.17g, outside "
                           "[0, 1]",
                           label.c_str(), i, p));
      return;
    }
  }
}

void CheckAgainstNaive(OracleRun* r, const CleanAnswerSet& baseline) {
  NaiveCandidateEvaluator naive(r->built.db.get(), &r->built.dirty);
  auto slow = naive.Evaluate(r->sql, r->opts.max_candidates);
  if (!slow.ok()) {
    if (slow.status().code() == StatusCode::kResourceExhausted) {
      return;  // candidate cap hit; sweeps still gate the run
    }
    r->Fail(ViolationKind::kEngineError,
            "naive oracle error: " + slow.status().ToString());
    return;
  }
  r->report.naive_checked = true;
  CheckProbabilityRange(r, *slow, "naive", r->opts.naive_tolerance);
  if (slow->answers.size() != baseline.answers.size()) {
    r->Fail(ViolationKind::kNaiveMismatch,
            StringPrintf("engine returned %zu answers, naive oracle %zu",
                         baseline.answers.size(), slow->answers.size()));
    return;
  }
  for (const CleanAnswer& a : slow->answers) {
    double engine_p = baseline.ProbabilityOf(a.row);
    if (std::abs(engine_p - a.probability) > r->opts.naive_tolerance) {
      r->Fail(ViolationKind::kNaiveMismatch,
              StringPrintf("engine probability %.17g != naive %.17g for an "
                           "answer of: %s",
                           engine_p, a.probability, r->sql.c_str()));
      return;
    }
  }
}

void RunConfigSweeps(OracleRun* r, const CleanAnswerEngine& engine,
                     const CleanAnswerSet& baseline) {
  ExecContext* ctx = r->built.db->mutable_exec_context();
  const size_t default_batch = ctx->batch_size;
  CleanAnswerSet run;

  for (size_t threads : r->opts.thread_counts) {
    for (size_t batch : r->opts.batch_sizes) {
      ctx->batch_size = batch;
      std::string label = StringPrintf("(threads=%zu, batch_size=%zu)",
                                       threads, batch);
      if (!r->Query(engine, threads, label, &run)) return;
      std::string diff = DiffAnswerSets(baseline, run, label);
      if (!diff.empty()) {
        r->Fail(ViolationKind::kConfigMismatch, diff);
        return;
      }
    }
  }
  ctx->batch_size = default_batch;

  for (size_t capacity : r->opts.chunk_capacities) {
    for (const FuzzTable& t : r->c.tables) {
      auto table = r->built.db->GetTable(t.name);
      if (table.ok()) (*table)->Rechunk(capacity);
    }
    for (size_t threads : r->opts.thread_counts) {
      std::string label = StringPrintf("(chunk_capacity=%zu, threads=%zu)",
                                       capacity, threads);
      if (!r->Query(engine, threads, label, &run)) return;
      std::string diff = DiffAnswerSets(baseline, run, label);
      if (!diff.empty()) {
        r->Fail(ViolationKind::kConfigMismatch, diff);
        return;
      }
    }
  }
  r->RestoreChunkCapacities();

  if (r->opts.sweep_pruning_flags) {
    struct FlagConfig {
      bool zone, bloom, index;
      const char* label;
    };
    // Index access is swept like the pruning flags: IndexScan returns
    // candidate supersets, in scan row order, that the full predicate or
    // the hash join above re-verifies, so disabling it must be invisible
    // down to the last probability bit.
    static const FlagConfig kFlagConfigs[] = {
        {false, true, true, "(zone_pruning=off)"},
        {true, false, true, "(runtime_filters=off)"},
        {true, true, false, "(index_scan=off)"},
        {false, false, false,
         "(zone_pruning=off, runtime_filters=off, index_scan=off)"},
    };
    for (const FlagConfig& fc : kFlagConfigs) {
      ctx->enable_zone_pruning = fc.zone;
      ctx->enable_runtime_filters = fc.bloom;
      ctx->enable_index_scan = fc.index;
      for (size_t threads : r->opts.thread_counts) {
        std::string label =
            StringPrintf("%s threads=%zu", fc.label, threads);
        if (!r->Query(engine, threads, label, &run)) break;
        std::string diff = DiffAnswerSets(baseline, run, label);
        if (!diff.empty()) {
          r->Fail(ViolationKind::kConfigMismatch, diff);
          break;
        }
      }
      if (!r->report.ok()) break;
    }
    ctx->enable_zone_pruning = true;
    ctx->enable_runtime_filters = true;
    ctx->enable_index_scan = true;
  }
}

/// Visible per-cluster state of one dirty table: member row positions and
/// stored probabilities, keyed by the identifier's string form, in
/// first-visible-row order (std::map for deterministic iteration).
struct ClusterState {
  std::vector<size_t> rows;
  std::vector<double> probs;
};

Result<std::map<std::string, ClusterState>> VisibleClusters(
    const Table& table, const FuzzTable& ft, uint64_t snapshot) {
  CONQUER_ASSIGN_OR_RETURN(size_t id_col,
                           table.schema().GetColumnIndex(ft.id_column));
  CONQUER_ASSIGN_OR_RETURN(size_t prob_col,
                           table.schema().GetColumnIndex(ft.prob_column));
  std::map<std::string, ClusterState> out;
  RowCursor cursor(&table);
  for (size_t pos : table.VisibleRowPositions(snapshot)) {
    cursor.Touch(pos);
    Value id = cursor.ValueAt(pos, id_col);
    Value prob = cursor.ValueAt(pos, prob_col);
    ClusterState& cluster = out[id.is_null() ? "<null>" : id.ToString()];
    cluster.rows.push_back(pos);
    cluster.probs.push_back(prob.is_null() ? 0.0 : prob.AsDouble());
  }
  return out;
}

/// The columns maintenance reads: all but the identifier and probability.
std::vector<size_t> AttributeColumns(const Table& table, const FuzzTable& ft) {
  std::vector<size_t> attrs;
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    const std::string& name = table.schema().column(c).name;
    if (EqualsIgnoreCase(name, ft.id_column) ||
        EqualsIgnoreCase(name, ft.prob_column)) {
      continue;
    }
    attrs.push_back(c);
  }
  return attrs;
}

/// Independent recomputation of one cluster's Figure-5 probabilities from
/// the batch assigner's primitives (not the incremental path under test).
Result<std::vector<double>> RecomputeClusterProbs(
    const Table& table, const FuzzTable& ft, const std::vector<size_t>& rows,
    double total_weight) {
  const std::vector<size_t> attrs = AttributeColumns(table, ft);
  if (rows.size() == 1) return std::vector<double>{1.0};
  ValueSpace space;
  CONQUER_ASSIGN_OR_RETURN(
      Dcf rep, BuildClusterRepresentative(table, rows, attrs, &space));
  double s_sum = 0.0;
  std::vector<double> dist(rows.size());
  RowCursor cursor(&table);
  for (size_t i = 0; i < rows.size(); ++i) {
    cursor.Touch(rows[i]);
    std::vector<uint32_t> indices;
    for (size_t a = 0; a < attrs.size(); ++a) {
      indices.push_back(space.Intern(a, cursor.ValueAt(rows[i], attrs[a])));
    }
    dist[i] = InformationLossDistance(Dcf::ForTuple(indices), rep,
                                      total_weight);
    s_sum += dist[i];
  }
  std::vector<double> probs(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    probs[i] = s_sum <= 1e-12
                   ? 1.0 / static_cast<double>(rows.size())
                   : (1.0 - dist[i] / s_sum) /
                         static_cast<double>(rows.size() - 1);
  }
  return probs;
}

/// Positions of the rows a write appended with a NULL identifier. The write
/// appended the versions from `rows_before` on, and `touched_ids` lists the
/// identifiers of every touched version in touch order, an appended version
/// last in its group: one entry per INSERTed row, (old, new) per UPDATEd
/// row.
std::vector<size_t> AppendedNullIdRows(const Table& table, size_t rows_before,
                                       const std::vector<Value>& touched_ids) {
  std::vector<size_t> out;
  const size_t appended = table.num_rows() - rows_before;
  if (appended == 0 || touched_ids.size() < appended ||
      touched_ids.size() % appended != 0) {
    return out;
  }
  const size_t stride = touched_ids.size() / appended;
  for (size_t k = 0; k < appended; ++k) {
    if (touched_ids[k * stride + stride - 1].is_null()) {
      out.push_back(rows_before + k);
    }
  }
  return out;
}

/// (e) NULL-identifier matching, recomputed naively: in position order,
/// each row of `null_rows` must hold an identifier, either of a cluster
/// whose information-loss distance to the row is the smallest over all
/// clusters (within 1e-9) and within the merge threshold, or a fresh one
/// when no cluster is within the threshold. Clusters are the other visible
/// rows grouped by identifier plus the rows matched before. Adds each
/// row's identifier to `joined` (maintenance renormalized that cluster);
/// returns the violation, or "" when every row checks out.
Result<std::string> CheckNullIdMatches(
    const Table& table, const FuzzTable& ft,
    const std::vector<size_t>& null_rows, uint64_t snapshot,
    std::unordered_set<std::string>* joined) {
  CONQUER_ASSIGN_OR_RETURN(size_t id_col,
                           table.schema().GetColumnIndex(ft.id_column));
  const std::vector<size_t> attrs = AttributeColumns(table, ft);
  const double threshold = IncrementalOptions().merge_threshold;
  const std::unordered_set<size_t> pending(null_rows.begin(), null_rows.end());
  std::map<std::string, std::vector<size_t>> clusters;
  RowCursor cursor(&table);
  for (size_t pos : table.VisibleRowPositions(snapshot)) {
    if (pending.count(pos) > 0) continue;
    cursor.Touch(pos);
    const Value id = cursor.ValueAt(pos, id_col);
    if (!id.is_null()) clusters[id.ToString()].push_back(pos);
  }
  ValueSpace space;
  for (size_t pos : null_rows) {
    cursor.Touch(pos);
    const Value id = cursor.ValueAt(pos, id_col);
    if (id.is_null()) {
      return StringPrintf("NULL-id row %zu was left without an identifier",
                          pos);
    }
    const Dcf tuple = TupleDcf(&cursor, pos, attrs, &space);
    const std::string name = id.ToString();
    double best = std::numeric_limits<double>::infinity();
    double own = best;
    std::string best_id;
    for (const auto& [cid, rows] : clusters) {
      CONQUER_ASSIGN_OR_RETURN(
          Dcf rep, BuildClusterRepresentative(table, rows, attrs, &space));
      const double d =
          InformationLossDistance(tuple, rep, tuple.weight + rep.weight);
      if (d < best) {
        best = d;
        best_id = cid;
      }
      if (cid == name) own = d;
    }
    if (clusters.count(name) > 0) {
      if (own > best + 1e-9 || own > threshold + 1e-9) {
        return StringPrintf(
            "NULL-id row %zu joined cluster %s at distance %.17g, but the "
            "nearest cluster %s is at %.17g (threshold %g)",
            pos, name.c_str(), own, best_id.c_str(), best, threshold);
      }
    } else if (best <= threshold - 1e-9) {
      return StringPrintf(
          "NULL-id row %zu founded cluster %s, but cluster %s is within the "
          "threshold %g at distance %.17g",
          pos, name.c_str(), best_id.c_str(), threshold, best);
    }
    clusters[name].push_back(pos);
    joined->insert(name);
  }
  return std::string();
}

/// The mutation stage: replays the case's writes one by one through the
/// engine write path, checking after every step that incremental
/// maintenance kept the visible state coherent and the live query still
/// matches the naive oracle on the extracted snapshot.
void RunMutationStage(OracleRun* r, const CleanAnswerEngine& engine) {
  // Per-table cluster state before any write, for the untouched-cluster
  // bitwise-stability check.
  std::map<std::string, std::map<std::string, ClusterState>> prev;
  for (const FuzzTable& t : r->c.tables) {
    if (t.prob_column.empty()) continue;
    auto table = r->built.db->GetTable(t.name);
    if (!table.ok()) continue;
    auto clusters =
        VisibleClusters(**table, t, (*table)->committed_version());
    if (clusters.ok()) prev[ToLower(t.name)] = std::move(*clusters);
  }

  for (size_t step = 0; step < r->c.writes.size(); ++step) {
    const FuzzWrite& w = r->c.writes[step];
    size_t rows_before = 0;
    if (auto t = r->built.db->GetTable(w.table); t.ok()) {
      rows_before = (*t)->num_rows();
    }
    std::vector<Value> touched_ids;
    auto written = r->built.db->ExecuteWrite(w.sql, &touched_ids);
    if (!written.ok()) {
      r->Fail(ViolationKind::kEngineError,
              StringPrintf("write step %zu failed: %s sql: %s", step,
                           written.status().ToString().c_str(),
                           w.sql.c_str()));
      return;
    }
    std::unordered_set<std::string> touched;
    for (const Value& id : touched_ids) {
      touched.insert(id.is_null() ? "<null>" : id.ToString());
    }

    const FuzzTable* written_table = r->c.FindTable(w.table);
    if (written_table != nullptr && !written_table->prob_column.empty()) {
      auto table = r->built.db->GetTable(w.table);
      if (!table.ok()) return;
      const uint64_t snapshot = (*table)->committed_version();
      // (e) first: the clusters NULL-id rows joined were renormalized, so
      // they count as touched in (b) and (c).
      const std::vector<size_t> null_rows =
          AppendedNullIdRows(**table, rows_before, touched_ids);
      auto null_check = CheckNullIdMatches(**table, *written_table, null_rows,
                                           snapshot, &touched);
      if (!null_check.ok()) {
        r->Fail(ViolationKind::kEngineError,
                "mutation oracle: " + null_check.status().ToString());
        return;
      }
      if (!null_check->empty()) {
        r->Fail(ViolationKind::kMaintenance,
                StringPrintf("after write step %zu (%s), %s", step,
                             w.sql.c_str(), null_check->c_str()));
        return;
      }
      auto clusters = VisibleClusters(**table, *written_table, snapshot);
      if (!clusters.ok()) {
        r->Fail(ViolationKind::kEngineError,
                "mutation oracle: " + clusters.status().ToString());
        return;
      }
      const double total_weight = static_cast<double>(
          (*table)->VisibleRowPositions(snapshot).size());
      std::map<std::string, ClusterState>& before = prev[ToLower(w.table)];
      for (const auto& [id, cluster] : *clusters) {
        // (a) Sums to ~1 no matter what the write did.
        double sum = 0.0;
        for (double p : cluster.probs) sum += p;
        if (std::abs(sum - 1.0) > 1e-9) {
          r->Fail(ViolationKind::kMaintenance,
                  StringPrintf("after write step %zu (%s), cluster %s.%s "
                               "probabilities sum to %.17g",
                               step, w.sql.c_str(), w.table.c_str(),
                               id.c_str(), sum));
          return;
        }
        if (touched.count(id) > 0) {
          // (b) Touched clusters match an independent recomputation.
          auto expected = RecomputeClusterProbs(**table, *written_table,
                                                cluster.rows, total_weight);
          if (!expected.ok()) {
            r->Fail(ViolationKind::kEngineError,
                    "mutation oracle: " + expected.status().ToString());
            return;
          }
          for (size_t i = 0; i < cluster.probs.size(); ++i) {
            if (std::abs(cluster.probs[i] - (*expected)[i]) > 1e-9) {
              r->Fail(
                  ViolationKind::kMaintenance,
                  StringPrintf(
                      "after write step %zu (%s), touched cluster %s.%s "
                      "member %zu has probability %.17g, recomputation "
                      "says %.17g",
                      step, w.sql.c_str(), w.table.c_str(), id.c_str(), i,
                      cluster.probs[i], (*expected)[i]));
              return;
            }
          }
        } else {
          // (c) Untouched clusters bitwise unchanged.
          auto it = before.find(id);
          if (it != before.end() &&
              (it->second.probs.size() != cluster.probs.size() ||
               !std::equal(it->second.probs.begin(), it->second.probs.end(),
                           cluster.probs.begin(),
                           [](double a, double b) {
                             return Bits(a) == Bits(b);
                           }))) {
            r->Fail(ViolationKind::kMaintenance,
                    StringPrintf("after write step %zu (%s), untouched "
                                 "cluster %s.%s changed",
                                 step, w.sql.c_str(), w.table.c_str(),
                                 id.c_str()));
            return;
          }
        }
      }
      before = std::move(*clusters);
    }

    // (d) The live query: bit-identical across thread counts, and agreeing
    // with the naive oracle evaluated on the extracted visible snapshot.
    CleanAnswerSet baseline;
    std::string label = StringPrintf("(write step %zu, threads=1)", step);
    if (!r->Query(engine, 1, label, &baseline)) return;
    CheckProbabilityRange(r, baseline, label, 0.0);
    if (!r->report.ok()) return;
    CleanAnswerSet run;
    for (size_t threads : r->opts.thread_counts) {
      if (threads == 1) continue;
      label = StringPrintf("(write step %zu, threads=%zu)", step, threads);
      if (!r->Query(engine, threads, label, &run)) return;
      std::string diff = DiffAnswerSets(baseline, run, label);
      if (!diff.empty()) {
        r->Fail(ViolationKind::kConfigMismatch, diff);
        return;
      }
    }
    // Index on/off after every write: appends fed the tail chunk's index
    // slice and updates invalidated touched slices, so this is where lazy
    // per-chunk rebuild must still reproduce the scan bit-for-bit.
    ExecContext* ctx = r->built.db->mutable_exec_context();
    ctx->enable_index_scan = false;
    label = StringPrintf("(write step %zu, index_scan=off)", step);
    bool index_off_ok = r->Query(engine, 1, label, &run);
    ctx->enable_index_scan = true;
    if (!index_off_ok) return;
    std::string index_diff = DiffAnswerSets(baseline, run, label);
    if (!index_diff.empty()) {
      r->Fail(ViolationKind::kConfigMismatch, index_diff);
      return;
    }
    auto snap = ExtractVisibleSnapshot(r->c, *r->built.db);
    if (!snap.ok()) {
      r->Fail(ViolationKind::kEngineError,
              "snapshot extraction: " + snap.status().ToString());
      return;
    }
    auto snap_built = BuildFuzzDatabase(*snap);
    if (!snap_built.ok()) {
      r->Fail(ViolationKind::kEngineError,
              "snapshot rebuild: " + snap_built.status().ToString());
      return;
    }
    NaiveCandidateEvaluator naive(snap_built->db.get(), &snap_built->dirty);
    auto slow = naive.Evaluate(r->sql, r->opts.max_candidates);
    if (!slow.ok()) {
      if (slow.status().code() == StatusCode::kResourceExhausted) continue;
      r->Fail(ViolationKind::kEngineError,
              "naive oracle error after write step " + std::to_string(step) +
                  ": " + slow.status().ToString());
      return;
    }
    if (slow->answers.size() != baseline.answers.size()) {
      r->Fail(ViolationKind::kNaiveMismatch,
              StringPrintf("after write step %zu (%s), engine returned %zu "
                           "answers, naive oracle %zu",
                           step, w.sql.c_str(), baseline.answers.size(),
                           slow->answers.size()));
      return;
    }
    for (const CleanAnswer& a : slow->answers) {
      double engine_p = baseline.ProbabilityOf(a.row);
      if (std::abs(engine_p - a.probability) > r->opts.naive_tolerance) {
        r->Fail(ViolationKind::kNaiveMismatch,
                StringPrintf("after write step %zu (%s), engine probability "
                             "%.17g != naive %.17g",
                             step, w.sql.c_str(), engine_p, a.probability));
        return;
      }
    }
  }
}

}  // namespace

Result<BugInjection> ParseBugInjection(std::string_view name) {
  std::string lower = ToLower(name);
  if (lower == "none" || lower.empty()) return BugInjection::kNone;
  if (lower == "prob_bias") return BugInjection::kProbBias;
  if (lower == "drop_answer") return BugInjection::kDropAnswer;
  if (lower == "parallel_skew") return BugInjection::kParallelSkew;
  if (lower == "renorm_skip") return BugInjection::kRenormSkip;
  if (lower == "match_skip") return BugInjection::kMatchSkip;
  return Status::InvalidArgument(
      "unknown bug injection '" + std::string(name) +
      "' (expected none, prob_bias, drop_answer, parallel_skew, "
      "renorm_skip or match_skip)");
}

const char* ViolationKindToString(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kNone:
      return "none";
    case ViolationKind::kExpectation:
      return "expectation";
    case ViolationKind::kInputIntegrity:
      return "input-integrity";
    case ViolationKind::kEngineError:
      return "engine-error";
    case ViolationKind::kRange:
      return "probability-range";
    case ViolationKind::kNaiveMismatch:
      return "naive-mismatch";
    case ViolationKind::kConfigMismatch:
      return "config-mismatch";
    case ViolationKind::kMaintenance:
      return "maintenance";
  }
  return "unknown";
}

Result<OracleReport> RunOracles(const FuzzCase& c, const OracleOptions& opts) {
  CONQUER_ASSIGN_OR_RETURN(BuiltDb built, BuildFuzzDatabase(c));
  OracleRun r{c, opts, std::move(built), c.query.Sql(), {}};

  CheckInputIntegrity(&r);
  if (!r.report.ok()) return r.report;

  CleanAnswerEngine engine(r.built.db.get(), &r.built.dirty);

  if (!c.query.expect_rewritable) {
    CheckRejectPath(&r, engine);
    return r.report;
  }

  auto check = engine.Check(r.sql);
  if (!check.ok()) {
    r.Fail(ViolationKind::kExpectation,
           "checker error on expected-rewritable query: " +
               check.status().ToString() + " sql: " + r.sql);
    return r.report;
  }
  if (!check->rewritable) {
    r.Fail(ViolationKind::kExpectation,
           "expected-rewritable query rejected (" + check->reason +
               "): " + r.sql);
    return r.report;
  }

  // Sequential baseline under default execution settings.
  CleanAnswerSet baseline;
  if (!r.Query(engine, 1, "(baseline)", &baseline)) return r.report;
  r.report.num_answers = baseline.answers.size();
  CheckProbabilityRange(&r, baseline, "engine", 0.0);
  if (!r.report.ok()) return r.report;

  CheckAgainstNaive(&r, baseline);
  if (!r.report.ok()) return r.report;

  RunConfigSweeps(&r, engine, baseline);
  if (r.report.ok() && !c.writes.empty()) {
    if (opts.inject == BugInjection::kRenormSkip) {
      SetIncrementalFaultInjection(IncrementalFault::kSkipFirstCluster);
    } else if (opts.inject == BugInjection::kMatchSkip) {
      SetIncrementalFaultInjection(IncrementalFault::kSkipMatch);
    }
    RunMutationStage(&r, engine);
    SetIncrementalFaultInjection(IncrementalFault::kNone);
  }
  r.built.db->SetThreads(1);
  return r.report;
}

}  // namespace fuzz
}  // namespace conquer
