#ifndef CONQUER_ENGINE_DATABASE_H_
#define CONQUER_ENGINE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/admission.h"
#include "common/result.h"
#include "common/task_pool.h"
#include "storage/buffer_pool.h"
#include "exec/exec_context.h"
#include "exec/query_stats.h"
#include "exec/result_set.h"
#include "plan/binder.h"

namespace conquer {

/// \brief Post-write maintenance callback for one table.
///
/// Registered by higher layers (e.g. incremental probability maintenance in
/// prob/) that the engine cannot depend on directly. After every successful
/// write statement against the table — still inside the exclusive write
/// section, before the new version is committed — the engine invokes
/// `after_write` with the values of `id_column` in every touched row version
/// (old and new). A non-OK status aborts the write: its version stamps are
/// physically rolled back (Table::AbortWrite) and the commit is skipped, so
/// the hook must not leave partial in-place mutations of its own behind.
///
/// The hook runs while the write holds the database's exclusive admission
/// slot: it works on the `Table*` it is handed and must not call back into
/// the Database, whose admitted entries would wait on that slot forever.
struct WriteMaintenanceHook {
  /// Column whose values identify the maintenance unit (e.g. the dirty
  /// cluster id column).
  std::string id_column;
  /// (table, touched id values, write version) -> status.
  std::function<Status(Table*, const std::vector<Value>&, uint64_t)>
      after_write;
};

/// \brief The top-level embedded relational engine.
///
/// Owns a catalog of in-memory tables and executes SELECT statements of the
/// supported subset. All methods are Status/Result based; no exceptions
/// escape the public API.
///
/// Every public entry is admitted through the database's one FIFO-fair
/// AdmissionGate, so any number of threads may call it concurrently: reads
/// (Query, including EXPLAIN [ANALYZE], Execute, ExecuteBound under a
/// ReadSlot) share up to max_concurrent_queries() slots and hold theirs
/// across bind, plan and execute; writes, DDL, statistics, hooks and
/// SetThreads take the exclusive slot and run alone. That is
/// what lets the query path read catalog and table data without per-row
/// locks. The one unadmitted path is the raw access of GetTable() and
/// catalog(): bulk-loading through a `Table*` must not overlap queries.
///
/// \code
///   Database db;
///   TableSchema schema("t", {{"a", DataType::kInt64}, {"b", DataType::kString}});
///   db.CreateTable(schema);
///   db.Insert("t", {Value::Int(1), Value::String("x")});
///   auto rs = db.Query("select a from t where b = 'x'");
/// \endcode
class Database {
 public:
  Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// \brief A shared admission slot held across several reads.
  ///
  /// Callers that read outside one admitted call — the serving layer's
  /// plan cache pinning a catalog epoch, SaveDatabase walking every table —
  /// hold one for the whole span. Only AdmitRead() creates one, so
  /// ExecuteBound, which takes it by reference, cannot run unadmitted.
  /// While holding a slot, call only slot-taking and unadmitted methods:
  /// a second acquisition queued behind a waiting writer would deadlock.
  class ReadSlot {
   public:
    ReadSlot(const ReadSlot&) = delete;
    ReadSlot& operator=(const ReadSlot&) = delete;

   private:
    friend class Database;
    explicit ReadSlot(const Database* db) : db_(db), admission_(&db->gate_) {}

    const Database* db_;
    SharedAdmission admission_;
  };

  /// Blocks until admitted as a reader; writers wait until it is released.
  ReadSlot AdmitRead() const { return ReadSlot(this); }

  /// Creates an empty table.
  Status CreateTable(TableSchema schema);

  /// Drops a table.
  Status DropTable(std::string_view name);

  /// Inserts one row (validated against the schema).
  Status Insert(std::string_view table, Row row);

  /// Bulk-inserts rows.
  Status InsertMany(std::string_view table, std::vector<Row> rows);

  /// Builds a hash index on `table(column)`.
  Status CreateIndex(std::string_view table, std::string_view column);

  /// Recomputes optimizer statistics for one table (RUNSTATS analogue).
  Status Analyze(std::string_view table);

  /// Recomputes optimizer statistics for every table.
  Status AnalyzeAll();

  /// Parses, binds, plans and executes a statement. Plain SELECTs return
  /// their rows; `EXPLAIN SELECT ...` returns the plan tree and
  /// `EXPLAIN ANALYZE SELECT ...` executes the query and returns the plan
  /// annotated with per-operator counters — both as a single-column result
  /// set with one row per output line.
  ///
  /// When `stats` is non-null it receives phase timings, per-operator
  /// metrics and the executed plan shape (unchanged for plain EXPLAIN,
  /// which does not execute).
  Result<ResultSet> Query(std::string_view sql,
                          QueryStats* stats = nullptr) const;

  /// Executes one INSERT / UPDATE / DELETE statement.
  ///
  /// Runs under the exclusive admission slot, so no query is in flight
  /// while it executes. The write appends new row versions stamped with a
  /// fresh version number, runs the table's maintenance hook (if
  /// registered), commits the version so subsequent readers see it, and
  /// bumps the catalog version so cached plans are discarded.
  ///
  /// Returns a one-row result set with a single `rows_affected` column.
  /// When `touched_ids` is non-null it receives the hook id-column values
  /// of every touched row version (empty when no hook is registered for
  /// the table) — the write's maintenance scope, which tests and the
  /// fuzzer's mutation oracle verify against.
  Result<ResultSet> ExecuteWrite(std::string_view sql,
                                 std::vector<Value>* touched_ids = nullptr);

  /// Registers (or replaces) the post-write maintenance hook for `table`.
  /// Pass a hook with no callback to clear it.
  void SetWriteHook(std::string_view table, WriteMaintenanceHook hook);

  /// Executes an already-parsed statement (consumed). Fills `stats` with
  /// bind/plan/exec timings and per-operator metrics when non-null.
  Result<ResultSet> Execute(std::unique_ptr<SelectStatement> stmt,
                            QueryStats* stats = nullptr) const;

  /// Execute under a slot the caller already holds (e.g. across a
  /// clean-answer rewrite that reads the catalog first).
  Result<ResultSet> Execute(const ReadSlot& slot,
                            std::unique_ptr<SelectStatement> stmt,
                            QueryStats* stats = nullptr) const;

  /// Executes an already-bound query (what the serving layer's plan cache
  /// stores): plans and drains it without re-parsing or re-binding. The
  /// bound query must have been produced against this database's catalog
  /// under `slot` (so at the current version), with every parameter
  /// already substituted.
  Result<ResultSet> ExecuteBound(const ReadSlot& slot, BoundQuery bound,
                                 QueryStats* stats = nullptr) const;

  /// Direct table access for bulk loading and inspection. Unadmitted:
  /// mutating the table must not overlap queries or writes.
  Result<Table*> GetTable(std::string_view name) const;

  /// Unadmitted, like GetTable: reading it must not overlap DDL.
  const Catalog& catalog() const { return catalog_; }

  /// Caps resident column-payload bytes across every table of this database
  /// (0 = unlimited). Cold chunks beyond the budget are evicted to their
  /// backing segment (or an anonymous spill file when dirty) and fault back
  /// in on first pin. Resident metadata — zone maps, MVCC stamps,
  /// dictionaries, indexes — is never evicted and does not count against
  /// the budget; see DESIGN.md §14. The initial budget comes from the
  /// CONQUER_MEMORY_BUDGET environment variable (e.g. "64m", "2g",
  /// "unlimited").
  void SetMemoryBudget(uint64_t bytes) { buffer_pool_->SetBudget(bytes); }
  uint64_t memory_budget() const { return buffer_pool_->budget(); }
  BufferPool* buffer_pool() const { return buffer_pool_.get(); }

  /// Sizes the worker pool used by morsel-driven parallel operators.
  /// `n <= 1` (the default) destroys the pool and restores strictly
  /// sequential execution. Takes the exclusive slot, so the swap waits for
  /// in-flight queries (whose plans hold the pool through their
  /// ExecContext) and FIFO admission keeps a query stream from starving it.
  void SetThreads(size_t n);

  /// Worker threads queries run with (1 means sequential).
  size_t num_threads() const {
    return pool_ != nullptr ? pool_->num_threads() : 1;
  }

  /// Execution tuning (morsel and batch sizes, A/B switches). The pool
  /// pointer inside is managed by SetThreads; tests lower morsel_size to
  /// exercise the parallel paths on small tables.
  ExecContext* mutable_exec_context() { return &exec_ctx_; }
  const ExecContext& exec_context() const { return exec_ctx_; }

  /// Monotone counter bumped by every catalog-shape or statistics change
  /// (CreateTable, DropTable, Analyze). The serving layer's plan cache
  /// tags entries with the version they were bound at and discards entries
  /// from older versions, since cached bound queries hold raw Table
  /// pointers and plans built from pre-Analyze statistics.
  uint64_t catalog_version() const {
    return catalog_version_.load(std::memory_order_acquire);
  }

  /// Reads admitted at once: max(2, hardware_concurrency). More wait in
  /// FIFO order.
  size_t max_concurrent_queries() const { return gate_.max_shared(); }
  AdmissionGate::Stats admission_stats() const { return gate_.stats(); }

  /// Morsel tasks queued but not yet running (0 without a pool). Needs no
  /// admission: reads the pool under the mutex SetThreads swaps it under.
  size_t scheduler_backlog() const {
    std::lock_guard<std::mutex> lock(pool_mu_);
    return pool_ != nullptr ? pool_->num_queued() : 0;
  }

 private:
  /// Analyze for a caller holding the exclusive slot (AnalyzeAll).
  Status AnalyzeLocked(std::string_view table);

  void BumpCatalogVersion() {
    catalog_version_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Declared before the catalog so destruction (reverse order) tears the
  /// tables — whose chunks unregister themselves — down first.
  std::unique_ptr<BufferPool> buffer_pool_ =
      std::make_unique<BufferPool>(BufferPool::DefaultBudgetFromEnv());
  Catalog catalog_;
  /// Post-write maintenance hooks, keyed by lower-cased table name.
  std::unordered_map<std::string, WriteMaintenanceHook> write_hooks_;
  /// Guards the pool_ swap for scheduler_backlog() only; queries see a
  /// stable pool through admission.
  mutable std::mutex pool_mu_;
  std::unique_ptr<TaskPool> pool_;
  ExecContext exec_ctx_;
  std::atomic<uint64_t> catalog_version_{0};
  mutable AdmissionGate gate_;
};

}  // namespace conquer

#endif  // CONQUER_ENGINE_DATABASE_H_
