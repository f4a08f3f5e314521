#ifndef CONQUER_EXEC_EXEC_CONTEXT_H_
#define CONQUER_EXEC_EXEC_CONTEXT_H_

#include <cstddef>

#include "common/task_pool.h"

namespace conquer {

/// \brief Per-database execution settings shared by every operator of a
/// plan.
///
/// The morsel-driven operators (scan filter, hash-join build, hash
/// aggregation) have one code path whose degree is `parallelism()`: the pool
/// size, or 1 with a null `pool` (the default, and what
/// Database::SetThreads(1) restores). Each works through bounded windows of
/// input — `parallelism()` chunks for a scan, about `parallelism() *
/// morsel_size` rows for a build or an aggregate — split into morsels
/// claimed by worker tasks; a window too small to split runs inline. Hash
/// state is split into partitions by key hash (one table at degree 1, 32
/// above), each filled in global input order, so floating-point sums (the
/// clean-answer SUM(prob) path) are bit-identical for every degree.
struct ExecContext {
  TaskPool* pool = nullptr;

  /// Rows per morsel of a hash-join build or aggregation window.
  size_t morsel_size = 1024;

  /// Rows per RowBatch in the batch-at-a-time executor path. The root
  /// consumer seeds its batch with this capacity and operators propagate it
  /// down the pipeline. Output is bit-identical for every batch size.
  size_t batch_size = 1024;

  /// Let scans skip whole chunks whose zone maps prove no row can match the
  /// pushed-down predicate. Pruning only drops provably-dead chunks, so
  /// results are identical either way (A/B knob for tests and benchmarks).
  bool enable_zone_pruning = true;

  /// Let the planner push hash-join build-side Bloom filters into
  /// probe-side scans (runtime semi-join filtering). Filters only drop rows
  /// the join would reject, so results are identical either way.
  bool enable_runtime_filters = true;

  /// Let the planner pick index access paths where the cost model favors
  /// them: IndexScan point lookups, and IndexScan probe sides of hash joins
  /// seeded with the join's build keys. Index probes return candidate
  /// supersets that are re-verified against the full predicate or the join
  /// keys, and the scan preserves row order, so results are bit-identical
  /// either way (A/B knob for the differential fuzzer and benchmarks).
  bool enable_index_scan = true;

  /// Sentinel for snapshot_override: scans pin the table's latest committed
  /// version at Open. (No real snapshot can be UINT64_MAX — a row version
  /// never begins there.)
  static constexpr uint64_t kSnapshotLatest = ~0ull;

  /// MVCC snapshot scans read instead of the latest committed version.
  /// Test knob for visibility assertions; written only while no query is in
  /// flight (writes run behind the exclusive admission ticket).
  uint64_t snapshot_override = kSnapshotLatest;

  /// Worker tasks a morsel-driven phase schedules (the pool size, or 1).
  size_t parallelism() const {
    return pool != nullptr ? pool->num_threads() : 1;
  }
};

}  // namespace conquer

#endif  // CONQUER_EXEC_EXEC_CONTEXT_H_
