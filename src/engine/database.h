#ifndef CONQUER_ENGINE_DATABASE_H_
#define CONQUER_ENGINE_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/task_pool.h"
#include "storage/buffer_pool.h"
#include "exec/exec_context.h"
#include "exec/query_stats.h"
#include "exec/result_set.h"
#include "plan/binder.h"
#include "plan/planner.h"

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
/// \code
///   Database db;
///   TableSchema schema("t", {{"a", DataType::kInt64}, {"b", DataType::kString}});
///   db.CreateTable(schema);
///   db.Insert("t", {Value::Int(1), Value::String("x")});
///   auto rs = db.Query("select a from t where b = 'x'");
/// \endcode
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

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
  /// The caller must guarantee exclusivity: no query may be in flight for
  /// the duration of the call (the serving layer acquires an exclusive
  /// admission ticket; embedded callers simply must not overlap it with
  /// Query). The write appends new row versions stamped with a fresh
  /// version number, runs the table's maintenance hook (if registered),
  /// commits the version so subsequent readers see it, and bumps the
  /// catalog version so cached plans are discarded.
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

  /// Executes an already-bound query (what the serving layer's plan cache
  /// stores): plans and drains it without re-parsing or re-binding. The
  /// bound query must have been produced against this database's catalog
  /// at its current version, with every parameter already substituted.
  Result<ResultSet> ExecuteBound(BoundQuery bound,
                                 QueryStats* stats = nullptr) const;

  /// Physical plan of the statement, as an indented tree.
  Result<std::string> Explain(std::string_view sql) const;

  /// Executes the statement and renders the annotated plan tree (the string
  /// form of `EXPLAIN ANALYZE <sql>`). Fills `stats` when non-null.
  Result<std::string> ExplainAnalyze(std::string_view sql,
                                     QueryStats* stats = nullptr) const;

  /// Direct table access for bulk loading and inspection.
  Result<Table*> GetTable(std::string_view name) const;

  const Catalog& catalog() const { return catalog_; }
  Catalog* mutable_catalog() { return &catalog_; }

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

  /// Planner configuration used by Query/Execute/Explain (e.g. greedy vs.
  /// dynamic-programming join ordering).
  void set_planner_options(const PlannerOptions& options) {
    planner_options_ = options;
  }
  const PlannerOptions& planner_options() const { return planner_options_; }

  /// Sizes the worker pool used by morsel-driven parallel operators.
  /// `n <= 1` (the default) destroys the pool and restores strictly
  /// sequential execution.
  ///
  /// Safe to call concurrently with Query: the swap is DEFERRED until every
  /// in-flight query has drained (in-flight plans hold a pointer to the
  /// current pool through their shared ExecContext, so swapping under them
  /// would race). While a reconfiguration waits, new queries block at
  /// admission, so a steady query stream cannot starve the swap. Do not
  /// call from inside a running query's thread — it would wait on itself.
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

  /// Queries currently inside ExecuteBound/Explain (approximate; for
  /// stats and tests).
  size_t active_queries() const {
    std::lock_guard<std::mutex> lock(exec_mu_);
    return active_queries_;
  }

  /// Morsel tasks queued but not yet running (0 without a pool). Reads the
  /// pool under the same mutex SetThreads swaps it under.
  size_t scheduler_backlog() const {
    std::lock_guard<std::mutex> lock(exec_mu_);
    return pool_ != nullptr ? pool_->num_queued() : 0;
  }

 private:
  /// RAII in-flight marker. Blocks while a SetThreads reconfiguration is
  /// waiting so the swap cannot be starved, then counts the query in;
  /// releases and wakes any waiting reconfiguration on destruction.
  class ActiveQueryGuard {
   public:
    explicit ActiveQueryGuard(const Database* db);
    ~ActiveQueryGuard();
    ActiveQueryGuard(const ActiveQueryGuard&) = delete;
    ActiveQueryGuard& operator=(const ActiveQueryGuard&) = delete;

   private:
    const Database* db_;
  };

  void BumpCatalogVersion() {
    catalog_version_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Declared before the catalog so destruction (reverse order) tears the
  /// tables — whose chunks unregister themselves — down first.
  std::unique_ptr<BufferPool> buffer_pool_ =
      std::make_unique<BufferPool>(BufferPool::DefaultBudgetFromEnv());
  Catalog catalog_;
  PlannerOptions planner_options_;
  /// Post-write maintenance hooks, keyed by lower-cased table name.
  std::unordered_map<std::string, WriteMaintenanceHook> write_hooks_;
  std::unique_ptr<TaskPool> pool_;
  ExecContext exec_ctx_;
  std::atomic<uint64_t> catalog_version_{0};

  // Query/reconfiguration interlock (see SetThreads).
  mutable std::mutex exec_mu_;
  mutable std::condition_variable exec_cv_;
  mutable size_t active_queries_ = 0;
  mutable bool reconfig_waiting_ = false;
};

}  // namespace conquer

#endif  // CONQUER_ENGINE_DATABASE_H_
