#include "engine/service.h"

#include <utility>

#include "common/str_util.h"
#include "sql/normalize.h"
#include "sql/parser.h"

namespace conquer {

namespace {

bool IsExplain(const std::string& normalized_sql) {
  return normalized_sql.rfind("EXPLAIN", 0) == 0;
}

/// True when the normalized SQL starts with the word `kw`. The write words
/// are soft keywords, so normalization preserves their original case —
/// match case-insensitively and require a word boundary.
bool StartsWithWord(const std::string& normalized_sql, std::string_view kw) {
  if (normalized_sql.size() < kw.size()) return false;
  if (normalized_sql.size() > kw.size() && normalized_sql[kw.size()] != ' ') {
    return false;
  }
  return EqualsIgnoreCase(
      std::string_view(normalized_sql).substr(0, kw.size()), kw);
}

bool IsWrite(const std::string& normalized_sql) {
  return StartsWithWord(normalized_sql, "INSERT") ||
         StartsWithWord(normalized_sql, "UPDATE") ||
         StartsWithWord(normalized_sql, "DELETE");
}

}  // namespace

std::unique_ptr<Session> QueryService::CreateSession(std::string name) {
  const uint64_t id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  sessions_created_.fetch_add(1, std::memory_order_relaxed);
  if (name.empty()) name = "session-" + std::to_string(id);
  // Not make_unique: the constructor is private to Session's friends.
  return std::unique_ptr<Session>(new Session(this, id, std::move(name)));
}

Result<ResultSet> QueryService::Record(Result<ResultSet> r) {
  queries_executed_.fetch_add(1, std::memory_order_relaxed);
  if (!r.ok()) query_errors_.fetch_add(1, std::memory_order_relaxed);
  return r;
}

Result<BoundQuery> QueryService::BindAndCache(
    const Database::ReadSlot& /*slot*/, std::string_view sql,
    const std::string& key, uint64_t epoch) {
  std::unique_ptr<SelectStatement> stmt;
  CONQUER_ASSIGN_OR_RETURN(stmt, Parser::Parse(sql));
  Binder binder(&db_->catalog());
  BoundQuery bound;
  CONQUER_ASSIGN_OR_RETURN(bound, binder.Bind(std::move(stmt)));
  cache_.Insert(key, epoch, bound.Clone());
  return bound;
}

Result<ResultSet> QueryService::ExecuteSql(std::string_view sql,
                                           QueryStats* stats, ExecInfo* info) {
  Result<std::string> norm = NormalizeSql(sql);
  if (!norm.ok()) {
    // Text the lexer rejects: let the regular path produce the real error.
    return Record(db_->Query(sql, stats));
  }
  const std::string key = std::move(norm).value();
  if (IsWrite(key)) {
    // ExecuteWrite runs alone under the exclusive slot and bumps the
    // catalog epoch, invalidating cached plans bound over the old data.
    return Record(db_->ExecuteWrite(sql));
  }
  if (IsExplain(key)) {
    // EXPLAIN [ANALYZE] is diagnostic output, not a row stream worth
    // caching; run it straight through the Database.
    return Record(db_->Query(sql, stats));
  }

  // While we hold a read slot no DDL can run, so the epoch read here stays
  // valid through bind and execution.
  const Database::ReadSlot slot = db_->AdmitRead();
  const uint64_t epoch = db_->catalog_version();
  if (std::optional<BoundQuery> cached = cache_.Lookup(key, epoch)) {
    if (info != nullptr) info->cache_hit = true;
    return Record(db_->ExecuteBound(slot, std::move(*cached), stats));
  }
  Result<BoundQuery> bound = BindAndCache(slot, sql, key, epoch);
  if (!bound.ok()) return Record(bound.status());
  return Record(db_->ExecuteBound(slot, std::move(bound).value(), stats));
}

Result<PreparedStatement> QueryService::PrepareInternal(std::string_view name,
                                                        std::string_view sql) {
  std::string key;
  CONQUER_ASSIGN_OR_RETURN(key, NormalizeSql(sql));
  if (IsExplain(key)) {
    return Status::InvalidArgument(
        "cannot prepare an EXPLAIN statement; prepare the SELECT and use "
        "EXPLAIN ad hoc");
  }
  if (IsWrite(key)) {
    return Status::InvalidArgument(
        "cannot prepare a write statement; execute INSERT/UPDATE/DELETE "
        "ad hoc");
  }
  const Database::ReadSlot slot = db_->AdmitRead();
  const uint64_t epoch = db_->catalog_version();
  int num_params = 0;
  if (std::optional<BoundQuery> cached = cache_.Lookup(key, epoch)) {
    num_params = cached->stmt->num_params;
  } else {
    BoundQuery bound;
    CONQUER_ASSIGN_OR_RETURN(bound, BindAndCache(slot, sql, key, epoch));
    num_params = bound.stmt->num_params;
  }
  PreparedStatement ps;
  ps.name = std::string(name);
  ps.sql = std::string(sql);
  ps.key = std::move(key);
  ps.num_params = num_params;
  return ps;
}

Result<ResultSet> QueryService::ExecutePreparedInternal(
    const PreparedStatement& ps, const std::vector<Value>& params,
    QueryStats* stats, ExecInfo* info) {
  prepared_executions_.fetch_add(1, std::memory_order_relaxed);
  const Database::ReadSlot slot = db_->AdmitRead();
  const uint64_t epoch = db_->catalog_version();
  BoundQuery bound;
  if (std::optional<BoundQuery> cached = cache_.Lookup(ps.key, epoch)) {
    if (info != nullptr) info->cache_hit = true;
    bound = std::move(*cached);
  } else {
    // The template was evicted or invalidated by DDL/ANALYZE since Prepare:
    // transparently re-bind from the stored text.
    Result<BoundQuery> fresh = BindAndCache(slot, ps.sql, ps.key, epoch);
    if (!fresh.ok()) return Record(fresh.status());
    bound = std::move(fresh).value();
    reprepares_.fetch_add(1, std::memory_order_relaxed);
    if (info != nullptr) info->reprepared = true;
  }
  Status s = BindParameters(bound.stmt.get(), params);
  if (!s.ok()) return Record(std::move(s));
  return Record(db_->ExecuteBound(slot, std::move(bound), stats));
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  s.queries_executed = queries_executed_.load(std::memory_order_relaxed);
  s.query_errors = query_errors_.load(std::memory_order_relaxed);
  s.prepared_executions = prepared_executions_.load(std::memory_order_relaxed);
  s.reprepares = reprepares_.load(std::memory_order_relaxed);
  s.sessions_created = sessions_created_.load(std::memory_order_relaxed);
  s.plan_cache = cache_.stats();
  s.admission = db_->admission_stats();
  s.scheduler_backlog = db_->scheduler_backlog();
  return s;
}

}  // namespace conquer
