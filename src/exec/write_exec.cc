#include "exec/write_exec.h"

#include <numeric>

#include "exec/eval.h"
#include "exec/eval_batch.h"

namespace conquer {

namespace {

/// Row positions visible at `snapshot` where `where` is TRUE (nullptr = all
/// visible rows), ascending. Walks chunks as a scan does: a chunk the zone
/// maps rule out is never pinned, visibility comes from the resident
/// stamps, and FilterChunkSelection evaluates the predicate over the pinned
/// chunk's columns. Collected fully before any mutation so appends made by
/// the caller cannot re-enter the walk.
Result<std::vector<size_t>> MatchingRows(const Table& table, const Expr* where,
                                         uint64_t snapshot) {
  std::vector<size_t> matches;
  SelVector sel;
  uint64_t dict_hits = 0;
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    const Chunk& chunk = table.chunk(c);
    if (where != nullptr && ZoneMapCanSkip(*where, table, chunk)) continue;
    sel.resize(chunk.num_rows());
    std::iota(sel.begin(), sel.end(), 0u);
    KeepVisible(chunk, snapshot, &sel);
    if (sel.empty()) continue;
    if (where != nullptr) {
      const ChunkPin pin = table.PinChunk(c);
      CONQUER_RETURN_NOT_OK(
          FilterChunkSelection(*where, table, c, &sel, &dict_hits));
    }
    const size_t base = c * table.chunk_capacity();
    for (uint32_t i : sel) matches.push_back(base + i);
  }
  return matches;
}

void CollectId(RowCursor* cursor, size_t pos, int id_column,
               std::vector<Value>* out) {
  if (id_column >= 0) {
    cursor->Touch(pos);
    out->push_back(cursor->ValueAt(pos, static_cast<size_t>(id_column)));
  }
}

}  // namespace

Result<WriteResult> ExecuteInsert(Table* table, const BoundInsert& ins,
                                  uint64_t version, int id_column) {
  WriteResult result;
  static const Row kNoRow;
  RowCursor cursor(table);
  for (const auto& exprs : ins.rows) {
    Row full(table->schema().num_columns(), Value::Null());
    for (size_t i = 0; i < exprs.size(); ++i) {
      CONQUER_ASSIGN_OR_RETURN(Value v, EvalExpr(*exprs[i], kNoRow));
      full[ins.column_map[i]] = std::move(v);
    }
    const size_t pos = table->num_rows();
    CONQUER_RETURN_NOT_OK(table->InsertVersioned(std::move(full), version));
    CollectId(&cursor, pos, id_column, &result.touched_ids);
    ++result.rows_changed;
  }
  result.rows_matched = result.rows_changed;
  return result;
}

Result<WriteResult> ExecuteUpdate(Table* table, const BoundUpdate& upd,
                                  uint64_t version, int id_column) {
  CONQUER_ASSIGN_OR_RETURN(
      std::vector<size_t> matches,
      MatchingRows(*table, upd.where.get(), version - 1));
  WriteResult result;
  result.rows_matched = static_cast<int64_t>(matches.size());
  Row old_row;
  // Matches ascend through the old chunks while new versions land in the
  // tail: one cursor each, so neither re-pins per row.
  RowCursor old_rows(table);
  RowCursor new_rows(table);
  for (size_t pos : matches) {
    old_rows.Touch(pos);
    old_rows.GetRowInto(pos, &old_row);
    // All assignment values evaluate against the OLD row (SQL semantics:
    // `SET a = b, b = a` swaps).
    Row new_row = old_row;
    for (const auto& [col, expr] : upd.assignments) {
      CONQUER_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, old_row));
      new_row[col] = std::move(v);
    }
    CollectId(&old_rows, pos, id_column, &result.touched_ids);
    table->MarkRowDead(pos, version);
    const size_t new_pos = table->num_rows();
    CONQUER_RETURN_NOT_OK(table->InsertVersioned(std::move(new_row), version));
    CollectId(&new_rows, new_pos, id_column, &result.touched_ids);
    ++result.rows_changed;
  }
  return result;
}

Result<WriteResult> ExecuteDelete(Table* table, const BoundDelete& del,
                                  uint64_t version, int id_column) {
  CONQUER_ASSIGN_OR_RETURN(
      std::vector<size_t> matches,
      MatchingRows(*table, del.where.get(), version - 1));
  WriteResult result;
  result.rows_matched = static_cast<int64_t>(matches.size());
  RowCursor cursor(table);
  for (size_t pos : matches) {
    CollectId(&cursor, pos, id_column, &result.touched_ids);
    table->MarkRowDead(pos, version);
    ++result.rows_changed;
  }
  return result;
}

}  // namespace conquer
