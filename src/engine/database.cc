#include "engine/database.h"

#include <algorithm>
#include <thread>

#include "common/str_util.h"
#include "common/timer.h"
#include "exec/operators.h"
#include "exec/write_exec.h"
#include "plan/planner.h"
#include "sql/parser.h"

namespace conquer {

namespace {

size_t DefaultMaxConcurrent() {
  static const size_t cap =
      std::max<size_t>(2, std::thread::hardware_concurrency());
  return cap;
}

}  // namespace

Database::Database() : gate_(DefaultMaxConcurrent()) {}

void Database::SetThreads(size_t n) {
  ExclusiveAdmission admission(&gate_);
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (n <= 1) {
    exec_ctx_.pool = nullptr;
    pool_.reset();
  } else if (pool_ == nullptr || pool_->num_threads() != n) {
    exec_ctx_.pool = nullptr;
    pool_ = std::make_unique<TaskPool>(n);
    exec_ctx_.pool = pool_.get();
  }
}

Status Database::CreateTable(TableSchema schema) {
  ExclusiveAdmission admission(&gate_);
  Result<Table*> t = catalog_.CreateTable(std::move(schema));
  if (t.ok()) {
    t.value()->AttachBufferPool(buffer_pool_.get());
    BumpCatalogVersion();
  }
  return t.status();
}

Status Database::DropTable(std::string_view name) {
  ExclusiveAdmission admission(&gate_);
  Status s = catalog_.DropTable(name);
  if (s.ok()) BumpCatalogVersion();
  return s;
}

Status Database::Insert(std::string_view table, Row row) {
  ExclusiveAdmission admission(&gate_);
  CONQUER_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  return t->Insert(std::move(row));
}

Status Database::InsertMany(std::string_view table, std::vector<Row> rows) {
  ExclusiveAdmission admission(&gate_);
  CONQUER_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  t->Reserve(t->num_rows() + rows.size());
  for (auto& row : rows) {
    CONQUER_RETURN_NOT_OK(t->Insert(std::move(row)));
  }
  return Status::OK();
}

Status Database::CreateIndex(std::string_view table, std::string_view column) {
  ExclusiveAdmission admission(&gate_);
  CONQUER_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  CONQUER_RETURN_NOT_OK(t->CreateIndex(column));
  // A new index changes what the planner would pick (access paths, join
  // strategies); stale plan-cache entries must replan against it.
  BumpCatalogVersion();
  return Status::OK();
}

Status Database::Analyze(std::string_view table) {
  ExclusiveAdmission admission(&gate_);
  return AnalyzeLocked(table);
}

Status Database::AnalyzeLocked(std::string_view table) {
  CONQUER_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  t->AnalyzeStatistics();
  BumpCatalogVersion();
  return Status::OK();
}

Status Database::AnalyzeAll() {
  ExclusiveAdmission admission(&gate_);
  for (const std::string& name : catalog_.TableNames()) {
    CONQUER_RETURN_NOT_OK(AnalyzeLocked(name));
  }
  return Status::OK();
}

namespace {

/// Wraps rendered multi-line text as a one-column result set (one row per
/// line), the shape EXPLAIN [ANALYZE] results take.
ResultSet TextResultSet(const std::string& column, const std::string& text) {
  ResultSet rs;
  rs.column_names.push_back(column);
  rs.column_types.push_back(DataType::kString);
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    rs.rows.push_back({Value::String(text.substr(start, end - start))});
    start = end + 1;
  }
  return rs;
}

}  // namespace

Result<ResultSet> Database::Query(std::string_view sql,
                                  QueryStats* stats) const {
  Timer parse_timer;
  CONQUER_ASSIGN_OR_RETURN(ParsedStatement parsed,
                           Parser::ParseStatement(sql));
  double parse_seconds = parse_timer.ElapsedSeconds();
  if (stats != nullptr) stats->parse_seconds = parse_seconds;

  if (parsed.is_write()) {
    return Status::InvalidArgument(
        "write statements are not allowed through Query(); use "
        "ExecuteWrite()");
  }

  const ReadSlot slot = AdmitRead();
  switch (parsed.explain) {
    case ExplainMode::kNone:
      return Execute(slot, std::move(parsed.select), stats);
    case ExplainMode::kPlan: {
      Binder binder(&catalog_);
      CONQUER_ASSIGN_OR_RETURN(BoundQuery bound,
                               binder.Bind(std::move(parsed.select)));
      CONQUER_ASSIGN_OR_RETURN(OperatorPtr plan,
                               Planner::Plan(bound, exec_ctx_));
      return TextResultSet("QUERY PLAN", ExplainPlan(*plan));
    }
    case ExplainMode::kAnalyze: {
      QueryStats local;
      QueryStats* out = stats != nullptr ? stats : &local;
      CONQUER_ASSIGN_OR_RETURN(ResultSet rs,
                               Execute(slot, std::move(parsed.select), out));
      out->parse_seconds = parse_seconds;
      return TextResultSet("QUERY PLAN", out->ToString());
    }
  }
  return Status::Internal("unhandled explain mode");
}

Result<ResultSet> Database::Execute(std::unique_ptr<SelectStatement> stmt,
                                    QueryStats* stats) const {
  const ReadSlot slot = AdmitRead();
  return Execute(slot, std::move(stmt), stats);
}

Result<ResultSet> Database::Execute(const ReadSlot& slot,
                                    std::unique_ptr<SelectStatement> stmt,
                                    QueryStats* stats) const {
  Timer timer;
  Binder binder(&catalog_);
  CONQUER_ASSIGN_OR_RETURN(BoundQuery bound, binder.Bind(std::move(stmt)));
  if (stats != nullptr) stats->bind_seconds = timer.ElapsedSeconds();
  return ExecuteBound(slot, std::move(bound), stats);
}

Result<ResultSet> Database::ExecuteBound(const ReadSlot& slot,
                                         BoundQuery bound,
                                         QueryStats* stats) const {
  if (slot.db_ != this) {
    return Status::InvalidArgument("read slot belongs to another database");
  }
  if (bound.stmt->num_params > 0) {
    return Status::InvalidArgument(
        "statement contains unbound '?' parameters; prepare it and bind "
        "values before executing");
  }
  Timer timer;
  CONQUER_ASSIGN_OR_RETURN(OperatorPtr plan, Planner::Plan(bound, exec_ctx_));
  if (stats != nullptr) stats->plan_seconds = timer.ElapsedSeconds();

  ResultSet rs;
  for (size_t i = 0; i < bound.num_visible_columns; ++i) {
    rs.column_names.push_back(bound.output_names[i]);
    rs.column_types.push_back(bound.output_types[i]);
  }
  timer.Restart();
  CONQUER_RETURN_NOT_OK(plan->Open());
  // Batch-at-a-time drain: the root batch capacity seeds the whole pipeline.
  RowBatch batch;
  batch.capacity = std::max<size_t>(1, exec_ctx_.batch_size);
  while (true) {
    CONQUER_ASSIGN_OR_RETURN(bool more, plan->NextBatch(&batch));
    if (!more) break;
    for (Row& row : batch.rows) rs.rows.push_back(std::move(row));
  }
  plan->Close();
  if (stats != nullptr) {
    stats->exec_seconds = timer.ElapsedSeconds();
    stats->rows_returned = rs.rows.size();
    stats->plan = CollectPlanStats(*plan);
    stats->peak_memory_bytes = EstimatePlanPeakMemory(stats->plan);
  }
  return rs;
}

Result<Table*> Database::GetTable(std::string_view name) const {
  return catalog_.GetTable(name);
}

void Database::SetWriteHook(std::string_view table, WriteMaintenanceHook hook) {
  ExclusiveAdmission admission(&gate_);
  std::string key = ToLower(table);
  if (hook.after_write == nullptr) {
    write_hooks_.erase(key);
  } else {
    write_hooks_[key] = std::move(hook);
  }
}

namespace {

/// One-row, one-column result set reporting how many rows a write changed.
ResultSet RowsAffected(int64_t n) {
  ResultSet rs;
  rs.column_names.push_back("rows_affected");
  rs.column_types.push_back(DataType::kInt64);
  rs.rows.push_back({Value::Int(n)});
  return rs;
}

}  // namespace

Result<ResultSet> Database::ExecuteWrite(std::string_view sql,
                                         std::vector<Value>* touched_ids) {
  CONQUER_ASSIGN_OR_RETURN(ParsedStatement parsed,
                           Parser::ParseStatement(sql));
  if (!parsed.is_write()) {
    return Status::InvalidArgument(
        "ExecuteWrite() only accepts INSERT, UPDATE or DELETE statements");
  }

  ExclusiveAdmission admission(&gate_);
  const std::string table_name =
      parsed.kind == StatementKind::kInsert   ? parsed.insert->table_name
      : parsed.kind == StatementKind::kUpdate ? parsed.update->table_name
                                              : parsed.del->table_name;
  CONQUER_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(table_name));

  const WriteMaintenanceHook* hook = nullptr;
  auto it = write_hooks_.find(ToLower(table_name));
  if (it != write_hooks_.end()) hook = &it->second;
  int id_column = -1;
  if (hook != nullptr && !hook->id_column.empty()) {
    CONQUER_ASSIGN_OR_RETURN(
        size_t idx, table->schema().GetColumnIndex(hook->id_column));
    id_column = static_cast<int>(idx);
  }

  Binder binder(&catalog_);
  // Stamps are applied at `version` but the version is only published by
  // CommitWrite below, after the maintenance hook succeeds. The exclusive
  // slot keeps every query out meanwhile, so the intermediate state is
  // never observed.
  const uint64_t version = table->BeginWrite();
  Result<WriteResult> executed = [&]() -> Result<WriteResult> {
    switch (parsed.kind) {
      case StatementKind::kInsert: {
        CONQUER_ASSIGN_OR_RETURN(BoundInsert bound,
                                 binder.BindInsert(std::move(parsed.insert)));
        return ExecuteInsert(table, bound, version, id_column);
      }
      case StatementKind::kUpdate: {
        CONQUER_ASSIGN_OR_RETURN(BoundUpdate bound,
                                 binder.BindUpdate(std::move(parsed.update)));
        return ExecuteUpdate(table, bound, version, id_column);
      }
      case StatementKind::kDelete: {
        CONQUER_ASSIGN_OR_RETURN(BoundDelete bound,
                                 binder.BindDelete(std::move(parsed.del)));
        return ExecuteDelete(table, bound, version, id_column);
      }
      case StatementKind::kSelect:
        break;
    }
    return Status::Internal("unreachable: SELECT in write path");
  }();

  Status status = executed.status();
  if (status.ok() && hook != nullptr && hook->after_write != nullptr) {
    status = hook->after_write(table, executed->touched_ids, version);
  }
  if (!status.ok()) {
    // Roll the write back physically. BeginWrite hands the same version to
    // the next write (committed_version_ is unchanged), so any stamps left
    // behind here would be published by that write's commit — phantom
    // inserts appearing and aborted deletes vanishing.
    table->AbortWrite(version);
    return status;
  }

  WriteResult wr = std::move(executed).value();
  if (touched_ids != nullptr) *touched_ids = std::move(wr.touched_ids);
  table->CommitWrite(version);
  // Cached plans may hold pruning metadata or row counts from before this
  // write; bumping the catalog version makes the serving layer discard them.
  BumpCatalogVersion();
  return RowsAffected(wr.rows_changed);
}

}  // namespace conquer
