#ifndef CONQUER_PLAN_PLANNER_H_
#define CONQUER_PLAN_PLANNER_H_

#include <memory>
#include <vector>

#include "exec/exec_context.h"
#include "exec/operator.h"
#include "plan/binder.h"

namespace conquer {

/// \brief Planner knobs.
struct PlannerOptions {
  enum class JoinOrdering {
    /// Greedy: repeatedly join the smallest connected table (fast, the
    /// default).
    kGreedy,
    /// Selinger-style dynamic programming over left-deep orders, minimizing
    /// the summed intermediate-result estimate. Exponential in the FROM
    /// count; falls back to greedy beyond `max_dp_tables`.
    kDynamicProgramming,
  };
  JoinOrdering join_ordering = JoinOrdering::kGreedy;
  int max_dp_tables = 14;
};

/// \brief Builds a physical operator tree from a bound query.
///
/// Pipeline: per-table scans with pushed-down single-table predicates
/// (index point lookups when selective) -> equi-join ordering (greedy or DP
/// per options; hash joins, whose probe scan an index seeds with a tiny
/// build side's keys, cross product only when no join edge connects) ->
/// residual filters as soon as their tables are joined -> aggregation or
/// projection -> DISTINCT -> ORDER BY -> hidden-column strip -> LIMIT.
class Planner {
 public:
  /// Plans `q`; the returned operator tree borrows expressions from `q`, so
  /// the BoundQuery must outlive execution. `exec` is borrowed by the
  /// operators and must outlive execution too; its parallelism() is the
  /// degree of the morsel-driven phases.
  static Result<OperatorPtr> Plan(const BoundQuery& q,
                                  const PlannerOptions& options,
                                  const ExecContext& exec);
};

}  // namespace conquer

#endif  // CONQUER_PLAN_PLANNER_H_
