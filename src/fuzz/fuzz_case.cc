#include "fuzz/fuzz_case.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>

#include "common/str_util.h"
#include "engine/persist.h"
#include "prob/incremental.h"
#include "storage/table.h"

namespace conquer {
namespace fuzz {

TableSchema FuzzTable::Schema() const {
  std::vector<ColumnDef> cols;
  cols.reserve(columns.size());
  for (const FuzzColumn& c : columns) cols.push_back({c.name, c.type});
  return TableSchema(name, std::move(cols));
}

DirtyTableInfo FuzzTable::DirtyInfo() const {
  DirtyTableInfo info;
  info.table_name = name;
  info.id_column = id_column;
  info.prob_column = prob_column;
  info.foreign_ids = foreign_ids;
  return info;
}

std::optional<size_t> FuzzTable::FindColumn(std::string_view n) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (EqualsIgnoreCase(columns[i].name, n)) return i;
  }
  return std::nullopt;
}

std::string FuzzQuery::Sql() const {
  if (!raw_sql.empty()) return raw_sql;
  std::string sql = "select " + Join(select, ", ") + " from " + Join(from, ", ");
  std::vector<std::string> where;
  for (const FuzzJoin& j : joins) {
    where.push_back(j.left_table + "." + j.left_column + " = " +
                    j.right_table + "." + j.right_column);
  }
  for (const FuzzPredicate& p : filters) {
    where.push_back(p.table + "." + p.column + " " + p.op + " " +
                    p.literal.ToSqlLiteral());
  }
  if (!where.empty()) sql += " where " + Join(where, " and ");
  return sql;
}

size_t FuzzCase::TotalRows() const {
  size_t n = 0;
  for (const FuzzTable& t : tables) n += t.rows.size();
  return n;
}

const FuzzTable* FuzzCase::FindTable(std::string_view name) const {
  for (const FuzzTable& t : tables) {
    if (EqualsIgnoreCase(t.name, name)) return &t;
  }
  return nullptr;
}

Result<BuiltDb> BuildFuzzDatabase(const FuzzCase& c) {
  BuiltDb out;
  out.db = std::make_unique<Database>();
  if (c.memory_budget > 0) out.db->SetMemoryBudget(c.memory_budget);
  for (const FuzzTable& t : c.tables) {
    CONQUER_RETURN_NOT_OK(out.db->CreateTable(t.Schema()));
    CONQUER_RETURN_NOT_OK(out.dirty.AddTable(t.DirtyInfo()));
    if (t.chunk_capacity > 0) {
      CONQUER_ASSIGN_OR_RETURN(Table * table, out.db->GetTable(t.name));
      table->Rechunk(t.chunk_capacity);
    }
    CONQUER_RETURN_NOT_OK(out.db->InsertMany(t.name, t.rows));
  }
  if (c.save_load_roundtrip) {
    // Save/load through the binary segment format, then continue against
    // the reloaded database — the oracles now also check persistence
    // fidelity (stamps, dictionaries, probabilities) for free.
    static std::atomic<uint64_t> counter{0};
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        StringPrintf("conquer-fuzz-rt-%d-%llu", static_cast<int>(getpid()),
                     (unsigned long long)counter.fetch_add(1));
    CONQUER_RETURN_NOT_OK(SaveDatabase(*out.db, dir.string(), &out.dirty));
    auto reloaded = LoadDatabase(dir.string());
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    CONQUER_RETURN_NOT_OK(reloaded.status());
    out.db = std::move(*reloaded);
    if (c.memory_budget > 0) out.db->SetMemoryBudget(c.memory_budget);
  }
  CONQUER_RETURN_NOT_OK(
      InstallIncrementalMaintenance(out.db.get(), &out.dirty));
  for (const FuzzOp& op : c.ops) {
    CONQUER_ASSIGN_OR_RETURN(Table * table, out.db->GetTable(op.table));
    switch (op.kind) {
      case FuzzOp::Kind::kRechunk:
        if (op.capacity == 0) {
          return Status::InvalidArgument("rechunk op with capacity 0");
        }
        table->Rechunk(op.capacity);
        break;
      case FuzzOp::Kind::kSetValue: {
        if (op.row >= table->num_rows()) {
          return Status::OutOfRange(
              StringPrintf("setvalue row %zu out of range for table '%s'",
                           op.row, op.table.c_str()));
        }
        CONQUER_ASSIGN_OR_RETURN(size_t col,
                                 table->schema().GetColumnIndex(op.column));
        table->SetValue(op.row, col, op.value);
        break;
      }
      case FuzzOp::Kind::kCreateIndex:
        CONQUER_RETURN_NOT_OK(out.db->CreateIndex(op.table, op.column));
        break;
    }
  }
  return out;
}

Result<FuzzCase> ExtractVisibleSnapshot(const FuzzCase& c,
                                        const Database& db) {
  FuzzCase snap = c;
  snap.ops.clear();
  snap.writes.clear();
  for (FuzzTable& t : snap.tables) {
    CONQUER_ASSIGN_OR_RETURN(Table * table, db.GetTable(t.name));
    const uint64_t snapshot = table->committed_version();
    t.rows.clear();
    Row row;
    RowCursor cursor(table);
    for (size_t pos : table->VisibleRowPositions(snapshot)) {
      cursor.Touch(pos);
      cursor.GetRowInto(pos, &row);
      DecodeRowInPlace(&row);
      t.rows.push_back(row);
    }
  }
  return snap;
}

std::vector<ClusterSum> ClusterProbabilitySums(const FuzzCase& c) {
  std::vector<ClusterSum> out;
  for (const FuzzTable& t : c.tables) {
    if (t.prob_column.empty()) continue;
    auto id_col = t.FindColumn(t.id_column);
    auto prob_col = t.FindColumn(t.prob_column);
    if (!id_col.has_value() || !prob_col.has_value()) continue;
    std::map<std::string, size_t> index;
    for (const Row& row : t.rows) {
      const Value& id = row[*id_col];
      const Value& prob = row[*prob_col];
      std::string key = id.is_null() ? "<null>" : id.ToString();
      auto [it, inserted] = index.try_emplace(key, out.size());
      if (inserted) out.push_back({t.name, key, 0.0, 0});
      ClusterSum& sum = out[it->second];
      if (!prob.is_null()) sum.sum += prob.AsDouble();
      sum.rows += 1;
    }
  }
  return out;
}

}  // namespace fuzz
}  // namespace conquer
