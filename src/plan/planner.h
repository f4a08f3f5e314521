#ifndef CONQUER_PLAN_PLANNER_H_
#define CONQUER_PLAN_PLANNER_H_

#include <memory>
#include <vector>

#include "exec/exec_context.h"
#include "exec/operator.h"
#include "plan/binder.h"

namespace conquer {

/// \brief Builds a physical operator tree from a bound query.
///
/// Pipeline: per-table scans with pushed-down single-table predicates
/// (index point lookups when selective) -> greedy equi-join ordering (start
/// from the smallest estimate, then join the smallest table an edge
/// connects; hash joins, whose probe scan an index seeds with a tiny build
/// side's keys, cross product only when no join edge connects) -> residual
/// filters as soon as their tables are joined -> aggregation or projection
/// -> DISTINCT -> ORDER BY -> hidden-column strip -> LIMIT.
class Planner {
 public:
  /// Plans `q`; the returned operator tree borrows expressions from `q`, so
  /// the BoundQuery must outlive execution. `exec` is borrowed by the
  /// operators and must outlive execution too; its parallelism() is the
  /// degree of the morsel-driven phases.
  static Result<OperatorPtr> Plan(const BoundQuery& q,
                                  const ExecContext& exec);
};

}  // namespace conquer

#endif  // CONQUER_PLAN_PLANNER_H_
