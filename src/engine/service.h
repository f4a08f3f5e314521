#ifndef CONQUER_ENGINE_SERVICE_H_
#define CONQUER_ENGINE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/database.h"
#include "engine/plan_cache.h"
#include "engine/session.h"

namespace conquer {

struct ServiceStats {
  uint64_t queries_executed = 0;    ///< attempts, successful or not
  uint64_t query_errors = 0;
  uint64_t prepared_executions = 0;
  uint64_t reprepares = 0;          ///< stale prepared statements rebound
  uint64_t sessions_created = 0;
  PlanCacheStats plan_cache;
  AdmissionGate::Stats admission;   ///< the Database's gate, all callers
  size_t scheduler_backlog = 0;     ///< morsel tasks queued in the TaskPool
};

/// \brief Multi-client serving layer over one Database.
///
/// Any number of threads may use the service (each through its own
/// Session, or via ExecuteSql directly) while the underlying Database and
/// its single TaskPool stay shared. Admission is the Database's own: every
/// statement takes its slot exactly once, and DDL, bulk loads and pool
/// resizes go to the Database directly. The service adds:
///
///  - Plan caching. Bound statements are cached under their normalized
///    text and the catalog epoch they were bound at; a hit skips parse and
///    bind. Epoch bumps (CreateTable/DropTable/Analyze) invalidate lazily.
///
///  - Prepared statements. Sessions bind '?' placeholders per execution
///    against the cached template, so the per-query cost on the hot path
///    is parameter substitution + physical planning + execution.
class QueryService {
 public:
  explicit QueryService(Database* db) : db_(db) {}

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Opens a client session. The service must outlive it.
  std::unique_ptr<Session> CreateSession(std::string name = "");

  /// Session-less ad-hoc execution (same path Session::Execute takes).
  Result<ResultSet> ExecuteSql(std::string_view sql,
                               QueryStats* stats = nullptr,
                               ExecInfo* info = nullptr);

  ServiceStats stats() const;

 private:
  friend class Session;

  /// Validates and caches a statement, returning its session-side handle.
  Result<PreparedStatement> PrepareInternal(std::string_view name,
                                            std::string_view sql);

  /// Clone-from-cache (or transparent re-prepare), parameter substitution,
  /// execution — all under one read slot.
  Result<ResultSet> ExecutePreparedInternal(const PreparedStatement& ps,
                                            const std::vector<Value>& params,
                                            QueryStats* stats, ExecInfo* info);

  /// Parses and binds `sql` and caches the result under `key`/`epoch`,
  /// the catalog epoch `slot` pins.
  Result<BoundQuery> BindAndCache(const Database::ReadSlot& slot,
                                  std::string_view sql, const std::string& key,
                                  uint64_t epoch);

  /// Tallies one query attempt; returns `r` unchanged.
  Result<ResultSet> Record(Result<ResultSet> r);

  /// Plan-cache capacity in entries (LRU beyond that).
  static constexpr size_t kPlanCacheCapacity = 128;

  Database* const db_;
  PlanCache cache_{kPlanCacheCapacity};
  std::atomic<uint64_t> queries_executed_{0};
  std::atomic<uint64_t> query_errors_{0};
  std::atomic<uint64_t> prepared_executions_{0};
  std::atomic<uint64_t> reprepares_{0};
  std::atomic<uint64_t> sessions_created_{0};
  std::atomic<uint64_t> next_session_id_{1};
};

}  // namespace conquer

#endif  // CONQUER_ENGINE_SERVICE_H_
