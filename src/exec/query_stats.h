#ifndef CONQUER_EXEC_QUERY_STATS_H_
#define CONQUER_EXEC_QUERY_STATS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exec/operator.h"

namespace conquer {

/// \brief One node of an executed plan: its description, the counters it
/// collected, and its children. `self_seconds` is the node's total time
/// minus its children's totals (children run inside the parent's pull).
struct PlanNodeStats {
  std::string description;
  OperatorMetrics metrics;
  double self_seconds = 0.0;
  std::vector<PlanNodeStats> children;
};

/// \brief End-to-end statistics of one Database::Query call: phase timings
/// (parse/bind/plan/exec), result size, the estimated peak of materialized
/// operator state, and the executed plan annotated with per-operator
/// counters. This is what EXPLAIN ANALYZE renders and what the Fig. 8/9
/// bench binaries use to attribute rewritten-query overhead to the added
/// HashAggregate.
struct QueryStats {
  double parse_seconds = 0.0;
  double bind_seconds = 0.0;
  double plan_seconds = 0.0;
  double exec_seconds = 0.0;
  uint64_t rows_returned = 0;
  /// Sum of the operators' estimated materialized state (hash tables, sort
  /// buffers). An estimate, not an RSS measurement.
  uint64_t peak_memory_bytes = 0;
  PlanNodeStats plan;

  double total_seconds() const {
    return parse_seconds + bind_seconds + plan_seconds + exec_seconds;
  }

  /// Sum of self time over all plan nodes whose description starts with
  /// `op_prefix` (e.g. "HashAggregate", "HashJoin", "Sort").
  double OperatorSelfSeconds(std::string_view op_prefix) const;

  /// Fraction of exec time spent (self) in operators matching `op_prefix`;
  /// 0 when exec_seconds is 0.
  double OperatorShare(std::string_view op_prefix) const;

  /// Rows produced by operators matching `op_prefix` (first match wins,
  /// pre-order); 0 when absent.
  uint64_t OperatorRows(std::string_view op_prefix) const;

  /// Human-readable report: phase summary plus the annotated plan tree.
  std::string ToString() const;
};

/// Harvests per-operator counters from an executed plan (call after the
/// NextBatch() loop; metrics survive Close()).
PlanNodeStats CollectPlanStats(const Operator& root);

/// Renders an annotated plan tree, EXPLAIN ANALYZE style:
///   HashAggregate(...)  (rows=42 time=1.20ms self=0.80ms batches=2 ...)
/// `workers=` and `worker_rows=` appear only for a phase that ran more than
/// one worker task.
std::string RenderAnalyzedPlan(const PlanNodeStats& root);

/// Sum of peak_memory_bytes over the whole tree.
uint64_t EstimatePlanPeakMemory(const PlanNodeStats& root);

}  // namespace conquer

#endif  // CONQUER_EXEC_QUERY_STATS_H_
