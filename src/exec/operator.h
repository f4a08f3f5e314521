#ifndef CONQUER_EXEC_OPERATOR_H_
#define CONQUER_EXEC_OPERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/timer.h"
#include "exec/batch.h"
#include "storage/table.h"

namespace conquer {

/// \brief Execution counters collected by every operator (EXPLAIN ANALYZE).
///
/// Times are wall-clock and *cumulative*: an operator's seconds include time
/// spent inside its children, because children are pulled from within the
/// parent's NextBatch()/Open(). Self time is derived at reporting time by
/// subtracting the children's totals (see PlanNodeStats::self_seconds).
struct OperatorMetrics {
  uint64_t batches = 0;        ///< NextBatch() invocations (incl. the EOS one)
  uint64_t rows_produced = 0;  ///< rows returned from NextBatch()
  /// Rows a scan decided by comparing dictionary codes against a string
  /// constant resolved once (FilterChunkSelection's fast path).
  uint64_t dict_hits = 0;
  /// Chunks a scan skipped wholesale because the zone maps proved no row
  /// could satisfy the pushed-down predicate.
  uint64_t chunks_skipped = 0;
  /// Rows a scan dropped through a pushed-down join Bloom filter (runtime
  /// semi-join filtering) before wide materialization.
  uint64_t bloom_filtered = 0;
  /// Pins of this operator that faulted evicted columns in from disk
  /// (buffer pool; zero when the whole table is resident), one per pin
  /// however many columns it read. Zone-map-skipped chunks are checked
  /// before pinning, so they never count here.
  uint64_t chunks_loaded = 0;
  /// Columns those pins read, and their payload bytes.
  uint64_t columns_loaded = 0;
  uint64_t bytes_read = 0;
  /// Chunk payloads the buffer pool evicted to make room for this
  /// operator's faults (budget pressure indicator).
  uint64_t chunks_evicted = 0;
  /// Wall time spent reading faulted columns.
  double io_read_seconds = 0.0;
  /// Per-chunk index probes issued (IndexScanOp).
  uint64_t index_probes = 0;
  /// Candidate rows those probes returned, before MVCC visibility and the
  /// residual predicate re-check.
  uint64_t index_rows = 0;
  /// The planner's estimated output rows for this operator, surfaced next
  /// to the actual count in EXPLAIN ANALYZE so cost-model misestimates are
  /// visible in one line. Negative when the planner did not annotate.
  double est_rows = -1.0;
  double open_seconds = 0.0;   ///< time inside Open(); the build phase for
                               ///< blocking operators (hash build, sort)
  double next_seconds = 0.0;   ///< cumulative time across all NextBatch()
                               ///< calls

  // Hash-based operators (HashJoinOp / HashAggregateOp / DistinctOp).
  uint64_t hash_entries = 0;        ///< entries resident in the hash table
  uint64_t peak_memory_bytes = 0;   ///< estimated bytes of materialized state

  // HashJoinOp build-vs-probe split.
  uint64_t build_rows = 0;  ///< rows drained from the build input
  uint64_t probe_rows = 0;  ///< rows drained from the probe input

  // Morsel-driven phases (scan filter, join build, aggregation). Zero for
  // operators without one; 1 when the phase ran inline.
  uint32_t parallel_degree = 0;     ///< most worker tasks one window used
  std::vector<uint64_t> worker_rows;  ///< input rows processed per worker

  /// Total time attributed to this operator (including children).
  double total_seconds() const { return open_seconds + next_seconds; }
};

/// Rough heap footprint of one materialized row (vector + string payloads).
uint64_t EstimateRowBytes(const Row& row);

/// \brief Batch-at-a-time pull operator.
///
/// Operators below the projection produce *wide rows*: a row of
/// `total_slots` values covering every column of every FROM table, where
/// only the slot ranges of tables already scanned/joined are populated
/// (the rest are NULL). This keeps every expression bound once, to a global
/// slot, regardless of join order. Projection/aggregation switch to narrow
/// output rows indexed by select-item position.
///
/// The public Open()/NextBatch()/Close() entry points are non-virtual: they
/// collect OperatorMetrics (row counts, wall time) around the virtual
/// OpenImpl()/NextBatchImpl()/CloseImpl() that subclasses implement.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Prepares the operator (builds hash tables, sorts, resets cursors) and
  /// resets its metrics.
  Status Open() {
    metrics_ = OperatorMetrics{};
    metrics_.est_rows = est_rows_;
    Timer t;
    Status s = OpenImpl();
    metrics_.open_seconds = t.ElapsedSeconds();
    return s;
  }

  /// Produces up to out->capacity rows into out->rows. Returns false at end
  /// of stream (with out empty); a true return carries at least one row.
  Result<bool> NextBatch(RowBatch* out) {
    Timer t;
    Result<bool> r = NextBatchImpl(out);
    metrics_.next_seconds += t.ElapsedSeconds();
    ++metrics_.batches;
    if (r.ok() && *r) metrics_.rows_produced += out->rows.size();
    return r;
  }

  /// Releases per-execution state. Idempotent. Metrics survive Close so
  /// they can be harvested after execution.
  void Close() { CloseImpl(); }

  /// One-line description of this node (no children).
  virtual std::string Describe() const = 0;

  /// Children, for plan printing.
  virtual std::vector<const Operator*> Children() const { return {}; }

  /// Counters collected since the last Open().
  const OperatorMetrics& metrics() const { return metrics_; }

  /// Planner annotation: estimated output rows, surviving metric resets
  /// across executions (copied into metrics at every Open()).
  void set_est_rows(double rows) { est_rows_ = rows; }
  double est_rows() const { return est_rows_; }

 protected:
  virtual Status OpenImpl() = 0;
  virtual Result<bool> NextBatchImpl(RowBatch* out) = 0;
  virtual void CloseImpl() {}

  /// Subclass access for operator-specific counters (hash sizes, build/probe
  /// splits) not measurable from the outside.
  OperatorMetrics& mutable_metrics() { return metrics_; }

 private:
  OperatorMetrics metrics_;
  double est_rows_ = -1.0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Renders an operator tree as an indented EXPLAIN string.
std::string ExplainPlan(const Operator& root);

}  // namespace conquer

#endif  // CONQUER_EXEC_OPERATOR_H_
