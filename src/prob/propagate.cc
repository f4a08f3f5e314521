#include "prob/propagate.h"

#include <unordered_map>

namespace conquer {

Result<PropagationStats> PropagateIdentifiers(
    Database* db, const DirtySchema& dirty,
    const std::vector<PropagationSpec>& specs) {
  PropagationStats stats;
  for (const PropagationSpec& spec : specs) {
    CONQUER_ASSIGN_OR_RETURN(Table * table, db->GetTable(spec.table));
    CONQUER_ASSIGN_OR_RETURN(Table * ref, db->GetTable(spec.ref_table));
    CONQUER_ASSIGN_OR_RETURN(const DirtyTableInfo* ref_info,
                             dirty.Get(spec.ref_table));

    CONQUER_ASSIGN_OR_RETURN(size_t fk_col,
                             table->schema().GetColumnIndex(spec.fk_column));
    CONQUER_ASSIGN_OR_RETURN(
        size_t target_col, table->schema().GetColumnIndex(spec.target_column));
    CONQUER_ASSIGN_OR_RETURN(
        size_t ref_key_col,
        ref->schema().GetColumnIndex(spec.ref_key_column));
    CONQUER_ASSIGN_OR_RETURN(size_t ref_id_col,
                             ref->schema().GetColumnIndex(ref_info->id_column));

    // Record key -> cluster identifier over the referenced table's
    // committed rows: a deleted record no longer resolves, and an updated
    // one resolves to its current identifier.
    std::unordered_map<Value, Value, ValueHash> crossref;
    crossref.reserve(ref->num_rows());
    const uint64_t ref_snapshot = ref->committed_version();
    RowCursor ref_cursor(ref);
    for (size_t r = 0; r < ref->num_rows(); ++r) {
      if (!ref->RowVisibleAt(r, ref_snapshot)) continue;
      ref_cursor.Touch(r);
      crossref.emplace(ref_cursor.ValueAt(r, ref_key_col),
                       ref_cursor.ValueAt(r, ref_id_col));
    }

    const uint64_t snapshot = table->committed_version();
    RowCursor cursor(table);
    for (size_t r = 0; r < table->num_rows(); ++r) {
      if (!table->RowVisibleAt(r, snapshot)) continue;
      cursor.Touch(r);
      auto it = crossref.find(cursor.ValueAt(r, fk_col));
      if (it == crossref.end()) {
        cursor.SetValue(r, target_col, Value::Null());
        ++stats.dangling_references;
      } else {
        cursor.SetValue(r, target_col, it->second);
        ++stats.rows_updated;
      }
    }
  }
  return stats;
}

}  // namespace conquer
