#ifndef CONQUER_ENGINE_SESSION_H_
#define CONQUER_ENGINE_SESSION_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "exec/query_stats.h"
#include "exec/result_set.h"
#include "types/value.h"

namespace conquer {

class QueryService;

/// A statement prepared in a session: the original text (for transparent
/// re-prepare after DDL), its normalized plan-cache key, and the number of
/// '?' placeholders the binder found.
struct PreparedStatement {
  std::string name;
  std::string sql;
  std::string key;
  int num_params = 0;
};

/// Per-execution outcome flags the serving layer reports alongside the
/// result (for tests, the shell and benchmarks).
struct ExecInfo {
  bool cache_hit = false;   ///< bound template came from the plan cache
  bool reprepared = false;  ///< prepared statement was stale and rebound
};

/// \brief One client's connection to a QueryService.
///
/// A session is the unit of client state: it owns the client's prepared
/// statements and counts its queries. It is intentionally NOT thread-safe —
/// the concurrency model is one session per client thread, with all
/// cross-session coordination living in the shared QueryService (plan
/// cache) and its Database (admission, catalog epochs). The service must
/// outlive every session it created.
class Session {
 public:
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Executes ad-hoc SQL through the service: shared admission, plan-cache
  /// lookup on the normalized text, EXPLAIN pass-through.
  Result<ResultSet> Execute(std::string_view sql, QueryStats* stats = nullptr,
                            ExecInfo* info = nullptr);

  /// Parses, binds and caches `sql` under `name` (replacing any previous
  /// statement with that name). The statement may contain '?' placeholders;
  /// the binder infers each placeholder's type from its context.
  Status Prepare(std::string_view name, std::string_view sql);

  /// Executes a prepared statement with `params` bound positionally to its
  /// placeholders. If DDL or ANALYZE invalidated the cached template, the
  /// statement is transparently re-bound from its stored text.
  Result<ResultSet> ExecutePrepared(std::string_view name,
                                    const std::vector<Value>& params,
                                    QueryStats* stats = nullptr,
                                    ExecInfo* info = nullptr);

  /// Forgets a prepared statement; NotFound if the name is unknown.
  Status DeallocatePrepared(std::string_view name);

  const PreparedStatement* GetPrepared(std::string_view name) const;
  std::vector<std::string> PreparedNames() const;

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  uint64_t queries_executed() const { return queries_executed_; }

 private:
  friend class QueryService;

  Session(QueryService* service, uint64_t id, std::string name)
      : service_(service), id_(id), name_(std::move(name)) {}

  QueryService* service_;
  const uint64_t id_;
  const std::string name_;
  uint64_t queries_executed_ = 0;
  std::map<std::string, PreparedStatement, std::less<>> prepared_;
};

}  // namespace conquer

#endif  // CONQUER_ENGINE_SESSION_H_
