#ifndef CONQUER_EXEC_OPERATORS_H_
#define CONQUER_EXEC_OPERATORS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/flat_hash.h"
#include "exec/batch.h"
#include "exec/eval.h"
#include "exec/exec_context.h"
#include "exec/operator.h"
#include "exec/runtime_filter.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace conquer {

/// \brief Full scan of a base table into wide rows.
///
/// Each produced row has `total_slots` entries; the table's columns occupy
/// [slot_offset, slot_offset + arity). An optional pushed-down predicate
/// (bound to the wide layout) filters during the scan.
///
/// The scan walks the table in windows of `exec.parallelism()` chunks (a
/// chunk is the scan's morsel). Per chunk it first consults the zone maps:
/// when they prove no row can match the pushed-down predicate the whole
/// chunk is skipped (metrics: chunks_skipped). Surviving chunks are seeded
/// with their visible rows, pinned (only the columns the scan reads),
/// filtered column-at-a-time
/// (FilterChunkSelection) and then through any runtime Bloom filters pushed
/// down from ancestor hash joins (metrics: bloom_filtered). The chunks of a
/// window are filtered by one worker task each (inline when the window has
/// one chunk); each keeps its pin until emission has materialized its
/// matches into wide rows, in chunk order — so every chunk is faulted at
/// most once, and the output row order is the same for every degree.
class SeqScanOp : public Operator {
 public:
  /// `referenced_slots`, when given, is the planner's bitmap (indexed by
  /// wide slot) of slots some expression in the query actually reads; the
  /// scan then materializes only those of its columns and leaves the rest
  /// NULL (column pruning). Pass nullptr to materialize every column.
  SeqScanOp(const Table* table, size_t slot_offset, size_t total_slots,
            ExprPtr pushed_filter, const ExecContext& exec,
            const std::vector<bool>* referenced_slots = nullptr);

  /// Registers a runtime semi-join filter over table-local column `column`
  /// (planner wiring; the producing join fills it before this scan opens).
  void AddRuntimeFilter(RuntimeFilterPtr filter, size_t column);

  std::string Describe() const override;

 protected:
  /// Per-worker counters of one window, folded into the metrics after it.
  struct ScanCounters {
    uint64_t rows = 0;  ///< seeded rows (the worker_rows share)
    uint64_t dict_hits = 0;
    uint64_t chunks_skipped = 0;
    uint64_t bloom_filtered = 0;
    uint64_t index_probes = 0;
    uint64_t index_rows = 0;
    PinStats pins;
  };

  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

  /// Fills `sel` (empty on entry) with the chunk-local positions the filters
  /// start from: every row visible at the snapshot. Reads resident metadata
  /// only, so a chunk seeded empty is never pinned.
  virtual void SeedChunk(size_t chunk_index, SelVector* sel,
                         ScanCounters* counters) const;

  const Table* table_;
  ExprPtr filter_;  ///< may be null; bound to the wide layout (for Describe)
  const ExecContext& exec_;
  /// MVCC snapshot pinned at Open; rows outside it are dropped while
  /// seeding (after the zone-map skip — zones cover dead versions too, so
  /// skipping stays conservative).
  uint64_t snapshot_ = 0;
  /// One past the last chunk to scan (set at Open).
  size_t end_chunk_ = 0;

 private:
  struct ScanFilter {
    RuntimeFilterPtr filter;
    size_t column;  ///< table-local column the Bloom filter keys on
  };
  /// One chunk of the current window: its surviving positions and the pin
  /// taken to filter it, held until emission leaves the chunk.
  struct WindowChunk {
    size_t chunk = 0;
    SelVector sel;
    ChunkPin pin;
  };

  /// Computes the surviving positions of one chunk: zone-map skip test (on
  /// resident metadata, *before* the payload is pinned — a skipped chunk
  /// costs zero I/O), SeedChunk, then the chunk-native predicate and the
  /// runtime Bloom filters under `*pin`, which is left holding the chunk
  /// while any position survives. Safe to run from several workers.
  Status FilterChunk(size_t chunk_index, SelVector* sel, ChunkPin* pin,
                     ScanCounters* counters) const;
  /// Filters the next window of chunks into window_.
  Status FilterWindow();
  void MaterializeWide(size_t chunk_index, uint32_t row, Row* out) const;

  size_t slot_offset_;
  size_t total_slots_;
  /// `filter_` rebased to table-local slots, so the predicate runs on the
  /// chunk columns *before* wide materialization (and with dictionary
  /// access).
  ExprPtr local_filter_;
  bool prune_ = false;  ///< true when materialize_cols_ limits the copy
  /// Table-local column indices to materialize (column pruning).
  std::vector<uint32_t> materialize_cols_;
  /// The columns each chunk pin names: the materialized ones (every column
  /// without pruning), the pushed filter's and each runtime filter's key.
  ColumnSet pin_cols_;
  std::vector<ScanFilter> runtime_filters_;
  std::vector<WindowChunk> window_;
  size_t next_chunk_ = 0;     ///< first chunk of the next window
  size_t window_cursor_ = 0;  ///< window chunk being emitted
  size_t match_cursor_ = 0;   ///< position within its matches
};

/// \brief A scan seeded from a per-chunk secondary index: a SeqScanOp whose
/// chunks are seeded with the index candidates of a list of keys instead of
/// every row.
///
/// Two plans use it. A point lookup (`col = literal` on an indexed column,
/// when the cost model estimates the match fraction small enough to beat
/// the vectorized scan) has one literal key. The probe side of a hash join
/// whose build side is estimated tiny takes the join's distinct build keys,
/// published after the build and before this scan opens.
///
/// At Open every key resolves to an index probe. Per chunk, zone maps can
/// rule the chunk out on resident metadata (the same test, so both access
/// paths skip identical chunks), then the chunk's index slice is probed for
/// all keys at once (metrics: index_probes / index_rows) and the candidates
/// are checked against MVCC visibility on resident stamps. Only chunks with
/// a visible candidate are pinned — an out-of-core lookup or join faults in
/// just the chunks containing visible matches. A key with no sound probe
/// (an INT64 column probed with a double above 2^52, say) seeds every
/// visible row instead.
///
/// Candidates are a superset of the matches, in ascending position (scan
/// order). `filter` is the *full* pushed-down predicate, including a point
/// lookup's equality conjunct, and a join re-checks every key, so index-on
/// and index-off plans return bit-identical rows.
class IndexScanOp : public SeqScanOp {
 public:
  /// A point lookup: `column = key`.
  IndexScanOp(const Table* table, size_t column, Value key,
              size_t slot_offset, size_t total_slots, ExprPtr filter,
              const ExecContext& exec,
              const std::vector<bool>* referenced_slots = nullptr);
  /// The probe side of the hash join that fills `join_keys` (kind kKeys):
  /// the keys are read at Open.
  IndexScanOp(const Table* table, size_t column, RuntimeFilterPtr join_keys,
              size_t slot_offset, size_t total_slots, ExprPtr filter,
              const ExecContext& exec,
              const std::vector<bool>* referenced_slots = nullptr);

  std::string Describe() const override;

 protected:
  Status OpenImpl() override;
  void SeedChunk(size_t chunk_index, SelVector* sel,
                 ScanCounters* counters) const override;

 private:
  size_t column_;  ///< table-local indexed column
  std::vector<Value> keys_;     ///< the point lookup's key
  RuntimeFilterPtr join_keys_;  ///< or the join's keys
  /// The keys' probes with a possible match, resolved at Open.
  std::vector<ChunkIndex::ProbeSpec> probes_;
  bool seed_all_ = false;  ///< some key has no sound probe
};

/// \brief Keeps the child's wide rows whose bound predicate is TRUE
/// (EvalPredicate, one row at a time), in child order.
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, ExprPtr predicate);

  std::string Describe() const override;
  std::vector<const Operator*> Children() const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
  RowBatch child_batch_;
};

/// \brief In-memory hash equi-join of two wide-row inputs.
///
/// The build (left) input is drained into a hash table keyed on its join
/// slots; probe rows stream through. Outputs merge the two wide rows (each
/// populates disjoint slot ranges). With empty key lists this degrades to a
/// cross product.
///
/// Metrics: open_seconds is the build phase; build_rows / hash_entries /
/// peak_memory_bytes describe the build table; probe_rows counts rows pulled
/// from the probe input.
///
/// The build is hash-partitioned and runs over bounded windows of build
/// input (the morsel-then-partition pass HashAggregateOp also uses):
/// workers extract join keys morsel-parallel, then each partition table
/// (one at degree 1, 32 above) is filled by exactly one worker, inserting
/// its rows in global build order. Bucket row order therefore does not
/// depend on the degree, and the probe (which routes each key to its
/// partition) produces bit-identical output for every thread count.
class HashJoinOp : public Operator {
 public:
  /// `build_slots` / `probe_slots` are the wide slots the build resp. probe
  /// subtree populates *and* some query expression reads (the planner
  /// intersects the subtree's slot ranges with its referenced-slot bitmap);
  /// emitted rows copy exactly these slots and leave every other slot NULL.
  HashJoinOp(OperatorPtr build, OperatorPtr probe,
             std::vector<int> build_key_slots, std::vector<int> probe_key_slots,
             std::vector<uint32_t> build_slots, std::vector<uint32_t> probe_slots,
             const ExecContext& exec);

  /// Registers a runtime filter this join fills from the distinct build-side
  /// values of key column `key_index` (a Bloom filter or the keys, per the
  /// filter's kind) once its build phase completes — before the probe
  /// subtree (which holds the consuming scan) opens.
  void AddRuntimeFilterTarget(RuntimeFilterPtr filter, size_t key_index) {
    filter_targets_.push_back({std::move(filter), key_index});
  }

  std::string Describe() const override;
  std::vector<const Operator*> Children() const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  struct KeyHash {
    size_t operator()(const std::vector<Value>& key) const;
  };
  struct KeyEq {
    bool operator()(const std::vector<Value>& a,
                    const std::vector<Value>& b) const;
  };
  using BuildTable =
      FlatHashMap<std::vector<Value>, std::vector<Row>, KeyHash, KeyEq>;

  struct FilterTarget {
    RuntimeFilterPtr filter;
    size_t key_index;  ///< position in build_keys_ the filter keys on
  };

  /// Fills every registered runtime filter from the built partitions'
  /// distinct keys and marks them ready (called between build and probe
  /// open).
  void FillRuntimeFilters();
  /// Drains the build input into the partition tables.
  Status Build();
  /// Looks up `probe_row` in the build table: extracts the key, hashes it
  /// once (the hash both routes to a partition and probes its flat table)
  /// and returns the matching build rows, or nullptr.
  const std::vector<Row>* ProbeLookup(const Row& probe_row);
  /// Writes the joined row for (probe_row, build_row) into `dst`, copying
  /// only the referenced probe slots and the stored build values (a build
  /// row holds build_slots_ in order). Slots outside both sets are NULL in
  /// every emitted row, so a recycled `dst` (same width, last written by
  /// this operator) needs no re-clearing.
  void EmitRow(const Row& probe_row, const Row& build_row, Row* dst) const;

  OperatorPtr build_;
  OperatorPtr probe_;
  std::vector<int> build_keys_;
  std::vector<int> probe_keys_;
  /// Referenced wide slots the build side populates: the values a build
  /// row keeps, in this order, and copies back on match.
  std::vector<uint32_t> build_slots_;
  /// Referenced wide slots the probe side populates; copied on match.
  std::vector<uint32_t> probe_slots_;
  const ExecContext& exec_;
  std::vector<FilterTarget> filter_targets_;

  /// One table per hash partition.
  std::vector<BuildTable> partitions_;
  /// Probe row with pending matches; points into probe_batch_, valid until
  /// that batch is refilled (which only happens once the matches are
  /// exhausted).
  const Row* probe_current_ = nullptr;
  const std::vector<Row>* current_matches_ = nullptr;
  size_t match_cursor_ = 0;
  std::vector<Value> probe_key_;  ///< scratch, reused across probe rows
  RowBatch probe_batch_;          ///< probe input buffer
  size_t probe_cursor_ = 0;
};

/// \brief Projects wide rows to narrow output rows (one value per item).
class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<const Expr*> exprs);

  std::string Describe() const override;
  std::vector<const Operator*> Children() const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  OperatorPtr child_;
  std::vector<const Expr*> exprs_;  ///< owned by the bound statement
  RowBatch child_batch_;
};

/// \brief Hash aggregation: GROUP BY keys + aggregate select items.
///
/// Consumes wide rows, produces narrow rows ordered as the select list.
/// Non-aggregate items are evaluated on the first row of each group (the
/// binder guarantees they are group-invariant).
///
/// Group keys are fixed-width 64-bit words, chosen per key from its bound
/// type: the int64 of an INT64 or DATE, 0/1 for a BOOL, the bits of a
/// DOUBLE (-0.0 folded into +0.0; the group still outputs its first-seen
/// bits), and for a STRING the interned `const std::string*` — the
/// column's dictionary pointer for a column reference, otherwise the
/// pointer from a dictionary local to the operator. NULL is a bit in the
/// null-mask words that follow the value words. A runtime value outside
/// its key's type is an Internal error. Aggregate state lives in per-call
/// arrays indexed by group. An argument that is a left-deep product of
/// DOUBLE column references (the rewriting's SUM(R1.prob * ... * Rm.prob))
/// is multiplied straight from the row's slots in EvalBinary's order, a
/// column reference is read in place, and any other argument goes through
/// EvalExpr. Keys decode into Values only at output.
///
/// Metrics: open_seconds is the accumulate phase; hash_entries is the number
/// of groups; peak_memory_bytes is the capacity of the group arrays plus
/// the hash directories.
///
/// The accumulate phase is one morsel-then-partition pass per window of
/// input, shared with HashJoinOp's build. A window is about
/// `parallelism() * morsel_size` rows (at least one batch) read in place
/// from the child's batches. Phase 1 encodes group keys and multiplies the
/// products morsel-parallel, and routes each row by key hash to one
/// partition (one table at degree 1, 32 above), so a group lives in
/// exactly one partition; phase 2 folds the aggregate arguments of each
/// partition's rows in one worker, in global input order. A window under
/// two morsels runs both phases inline. Every group's values are therefore
/// added in input order whatever the degree, so floating-point aggregates
/// (the clean-answer SUM(prob) path) are bit-identical for every thread
/// count. Output follows
/// global first-seen group order — the merge, by each group's first input
/// row, of the workers' creation logs — so the word hash never shows.
class HashAggregateOp : public Operator {
 public:
  HashAggregateOp(OperatorPtr child, std::vector<const Expr*> group_exprs,
                  std::vector<const Expr*> select_items,
                  const ExecContext& exec);

  std::string Describe() const override;
  std::vector<const Operator*> Children() const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  /// How one group key is encoded into its word.
  struct KeyColumn {
    enum class Kind : uint8_t {
      kNull,         ///< NULL-typed key (a NULL literal): always NULL
      kInt,          ///< INT64 or DATE: the int64
      kBool,         ///< 0/1
      kDouble,       ///< bits, -0.0 folded into +0.0
      kColumnString, ///< column reference: the dictionary pointer
      kLocalString,  ///< other STRING: pointer into local_strings_
    };
    Kind kind;
    DataType type;  ///< bound type; the only non-NULL runtime type allowed
    /// Slot of a column-reference key, read in place; -1 evaluates `expr`.
    int slot;
    const Expr* expr;
  };
  /// One aggregate call and how its argument is read.
  struct AggCall {
    enum class Arg : uint8_t {
      kNone,     ///< COUNT(*)
      kColumn,   ///< a non-DOUBLE column reference, read in place
      /// Left-deep product of DOUBLE column references (a DOUBLE column is
      /// a product of one), multiplied from the row's slots while its key
      /// is encoded, so the fold never rereads the row.
      kProduct,
      kEval,     ///< anything else: EvalExpr
    };
    const Expr* expr;  ///< the aggregate node
    Arg arg;
    bool int_sum;              ///< SUM bound to INT64: folds into isum
    std::vector<int> factors;  ///< kColumn: the slot; kProduct: in order
    size_t product = 0;        ///< kProduct: position in a row's products
  };
  /// Running state of one aggregate call, one element per group of a
  /// partition. A call grows only the arrays its function reads.
  struct AggColumn {
    std::vector<double> sum;     ///< SUM over DOUBLE, AVG
    std::vector<int64_t> isum;   ///< SUM over INT64
    std::vector<int64_t> count;  ///< COUNT, AVG
    std::vector<uint8_t> saw;    ///< SUM: some non-NULL value was folded
    std::vector<Value> min_max;  ///< MIN, MAX: NULL until a value arrives
  };
  /// The groups of one hash partition, columnar. Group g's key words are
  /// keys[g * key_width_, (g + 1) * key_width_). A partition is created by
  /// its first group, and every array grows with its groups.
  struct Partition {
    /// Hash directory: entry g is group g (insertion rank == group id) and
    /// maps it to the global input position of the row that created it,
    /// the deterministic output order (global first-seen order).
    FlatHashMap<uint32_t, uint64_t> directory;
    std::vector<uint64_t> keys;
    /// Per group, mask_words_ words: bit k set when key k was first seen
    /// as -0.0. Only with a DOUBLE key.
    std::vector<uint64_t> negative_zeros;
    std::vector<AggColumn> aggs;  ///< parallel to calls_
    /// Group-invariant select values not served by the key, one run of
    /// num_invariant_evals_ per group.
    std::vector<Value> invariants;
    /// First wide row of each group; kept only when some aggregate item
    /// mixes column references with its aggregates.
    std::vector<Row> representatives;

    uint32_t num_groups() const {
      return static_cast<uint32_t>(directory.size());
    }
    uint64_t first_row(uint32_t g) const {
      return directory.entries()[g].value;
    }
  };
  /// How each select item is produced at output time.
  struct ItemPlan {
    enum class Source {
      kFromKey,        ///< item structurally equals group_exprs_[index]
      kInvariantEval,  ///< group-invariant; evaluated once per group
      kFinalize,       ///< contains aggregates; finalized from their state
    };
    Source source;
    /// kFromKey: key position; kInvariantEval: position in the group's run
    /// of invariants; kFinalize: calls_ index of the item's first
    /// aggregate (the rest follow in the same left-to-right order).
    size_t index = 0;
  };
  /// A group by position: group `index` of partition `partition`.
  struct GroupRef {
    uint32_t partition;
    uint32_t index;
  };

  /// Drains the child into the partitions; returns the input rows.
  Result<uint64_t> Accumulate();
  /// Writes the key words of `row` (value words, then the null mask) and,
  /// with DOUBLE keys, its -0.0 mask into `negative_zeros`.
  Status EncodeKey(const Row& row, uint64_t* key,
                   uint64_t* negative_zeros) const;
  /// Writes the kProduct arguments of `row` into products[0, num_products_)
  /// (nullopt for a NULL product), in EvalBinary's multiplication order.
  Status ComputeProducts(const Row& row,
                         std::optional<double>* products) const;
  /// Appends a group created by `row` (global position `row_index`).
  Status AddGroup(Partition* part, const uint64_t* key,
                  const uint64_t* negative_zeros, const Row& row,
                  uint64_t row_index);
  /// Folds one row, whose products ComputeProducts wrote, into the
  /// aggregate state of group `g`.
  Status UpdateGroup(Partition* part, uint32_t g, const Row& row,
                     const std::optional<double>* products) const;
  /// Merges the creation logs into output_order_ (post-accumulate).
  void BuildOutputOrder();
  /// Writes the output row of one group (select-list order) into `out`.
  Status OutputRow(GroupRef ref, Row* out) const;
  /// Value of key position k of group g.
  Value DecodeKey(const Partition& part, uint32_t g, size_t k) const;
  /// Finalizes `e` for group g of `part`, or for the group of an empty
  /// input when `part` is null. `*next_call` is the calls_ index of the
  /// next aggregate node in left-to-right order.
  Result<Value> Finalize(const Expr& e, const Partition* part, uint32_t g,
                         size_t* next_call) const;
  /// Operator state outside the child: group arrays and directories.
  uint64_t StateBytes() const;

  OperatorPtr child_;
  std::vector<const Expr*> group_exprs_;
  std::vector<const Expr*> select_items_;
  const ExecContext& exec_;
  std::vector<ItemPlan> item_plans_;  ///< parallel to select_items_
  bool needs_representative_ = false;
  size_t num_invariant_evals_ = 0;
  std::vector<KeyColumn> key_columns_;  ///< parallel to group_exprs_
  size_t mask_words_ = 0;  ///< null-mask words: one per 64 keys
  size_t key_width_ = 0;   ///< words per key: values, then the null mask
  bool has_double_key_ = false;
  /// Every aggregate node of the select items, in discovery order.
  std::vector<AggCall> calls_;
  size_t num_products_ = 0;  ///< kProduct calls

  /// Owns the text of STRING keys that are not column references (today a
  /// literal); thread-safe interning, pointers stable until Close.
  std::unique_ptr<StringDictionary> local_strings_;
  /// One per hash partition; null until the partition's first group.
  std::vector<std::unique_ptr<Partition>> partitions_;
  /// Per-row -0.0 masks of the current window (DOUBLE keys only).
  std::vector<uint64_t> window_negative_zeros_;
  /// Per-row kProduct arguments of the current window, num_products_ each.
  std::vector<std::optional<double>> window_products_;
  /// Groups each worker created, in creation order: sorted by first_row.
  std::vector<std::vector<GroupRef>> created_;
  /// Every group in global first-seen order (the merged creation logs).
  std::vector<GroupRef> output_order_;
  size_t cursor_ = 0;
  bool no_input_ = false;  ///< true when child yielded zero rows
};

/// Sort key on a narrow output row.
struct SortKey {
  size_t column;
  bool descending;
};

/// \brief Full in-memory sort of narrow rows.
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<SortKey> keys);

  std::string Describe() const override;
  std::vector<const Operator*> Children() const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  OperatorPtr child_;
  std::vector<SortKey> keys_;
  std::vector<Row> rows_;
  size_t cursor_ = 0;
};

/// \brief Duplicate elimination over narrow rows (SELECT DISTINCT).
class DistinctOp : public Operator {
 public:
  explicit DistinctOp(OperatorPtr child);

  std::string Describe() const override;
  std::vector<const Operator*> Children() const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  struct RowHash {
    size_t operator()(const Row& r) const;
  };
  struct RowEq {
    bool operator()(const Row& a, const Row& b) const;
  };
  OperatorPtr child_;
  FlatHashMap<Row, bool, RowHash, RowEq> seen_;
  RowBatch child_batch_;
};

/// \brief Emits at most `limit` rows.
class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr child, int64_t limit);

  std::string Describe() const override;
  std::vector<const Operator*> Children() const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  OperatorPtr child_;
  int64_t limit_;
  int64_t produced_ = 0;
  RowBatch child_batch_;
};

/// \brief Strips hidden trailing sort columns from narrow rows.
class StripColumnsOp : public Operator {
 public:
  StripColumnsOp(OperatorPtr child, size_t num_visible);

  std::string Describe() const override;
  std::vector<const Operator*> Children() const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  OperatorPtr child_;
  size_t num_visible_;
};

}  // namespace conquer

#endif  // CONQUER_EXEC_OPERATORS_H_
