#ifndef CONQUER_PROB_INCREMENTAL_H_
#define CONQUER_PROB_INCREMENTAL_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/dirty_schema.h"
#include "storage/table.h"
#include "types/value.h"

namespace conquer {

class Database;

/// \brief Fault injection for the incremental maintenance path, used by the
/// differential fuzzer's self-test to prove the mutation-stage oracle can
/// catch renormalization and matching bugs.
enum class IncrementalFault {
  kNone,
  /// Off-by-one: skips the first touched cluster, leaving its probabilities
  /// stale after a write.
  kSkipFirstCluster,
  /// Skips NULL-identifier matching: every NULL-id row founds a fresh
  /// singleton cluster, even one within the threshold of an existing one.
  kSkipMatch,
};

/// Sets the process-wide injected fault (tests only; not thread-safe
/// against concurrent writes).
void SetIncrementalFaultInjection(IncrementalFault fault);
IncrementalFault GetIncrementalFaultInjection();

/// \brief Options for incremental reassignment.
struct IncrementalOptions {
  /// Information-loss distance threshold for matching a newly inserted row
  /// with a NULL cluster identifier against existing cluster
  /// representatives (same scale as MatcherOptions::merge_threshold).
  double merge_threshold = 0.35;
};

/// \brief Incremental Figure-5 maintenance after a write: re-derives only
/// the touched clusters.
///
/// `touched_ids` are the cluster-identifier values of every row version a
/// write statement touched (from WriteResult::touched_ids). Each distinct
/// touched cluster is recomputed over its rows visible at `snapshot` by the
/// same per-cluster computation the batch AssignProbabilities runs
/// (InformationLossProbabilities, total weight = the table's visible row
/// count): singleton -> 1.0, all-identical -> uniform, fully deleted
/// cluster -> nothing to do. Run over every visible identifier in
/// first-visible order at the committed version, it leaves the same
/// probability bits as AssignProbabilities.
///
/// Rows visible at `snapshot` whose identifier is NULL (freshly inserted
/// without a cluster assignment) are first matched against every existing
/// cluster representative; within `options.merge_threshold` they join the
/// nearest cluster, otherwise they found a new singleton cluster with a
/// fresh identifier (the largest identifier + 1 for INT64, DATE and DOUBLE
/// columns, "m<N>" for STRING ones, the unused value for BOOL ones; when no
/// unused identifier exists the call fails and the write aborts). Either
/// way the identifier cell is filled in and the affected cluster is
/// renormalized. All identifier and probability writes are staged and
/// applied once every cluster is done.
///
/// Cost: one walk over the identifier column of the visible rows, plus the
/// touched clusters' rows. NULL-identifier matching builds no value space:
/// for each NULL-id row it makes one typed pass per attribute over the raw
/// column, marking the rows that hold the row's value (the lower bound's
/// inputs and the value's first-meet position, which orders values as a
/// per-row rebuild interned them). Only a cluster the bound cannot rule out
/// gets its exact distance, at one more pass per attribute for its other
/// values.
///
/// Returns the number of clusters renormalized.
Result<size_t> ReassignClusters(Table* table, const DirtyTableInfo& info,
                                const std::vector<Value>& touched_ids,
                                uint64_t snapshot,
                                const IncrementalOptions& options = {});

/// Registers a write-maintenance hook on every dirty table of `dirty` that
/// has a probability column, so INSERT/UPDATE/DELETE through
/// Database::ExecuteWrite keep cluster probabilities normalized. Each hook
/// keeps its own copy of its table's annotations.
Status InstallIncrementalMaintenance(Database* db, const DirtySchema* dirty,
                                     const IncrementalOptions& options = {});

}  // namespace conquer

#endif  // CONQUER_PROB_INCREMENTAL_H_
