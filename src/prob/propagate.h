#ifndef CONQUER_PROB_PROPAGATE_H_
#define CONQUER_PROB_PROPAGATE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/dirty_schema.h"
#include "engine/database.h"

namespace conquer {

/// \brief One foreign-key propagation task (paper Section 2.1, "identifier
/// propagation").
///
/// In an integrated dirty database a foreign key references the *record
/// key* of some duplicate tuple. After tuple matching, every record key
/// maps to its cluster identifier; propagation fills `target_column` of
/// `table` with the cluster identifier of the tuple whose
/// `ref_key_column` equals `fk_column`.
struct PropagationSpec {
  std::string table;
  std::string fk_column;      ///< holds referenced record keys
  std::string target_column;  ///< receives the referenced cluster identifier
  std::string ref_table;
  std::string ref_key_column; ///< record-key column of the referenced table
};

/// \brief Statistics of one propagation run (reported by the Fig. 7 bench).
struct PropagationStats {
  size_t rows_updated = 0;
  size_t dangling_references = 0;  ///< FK values with no matching record key
};

/// \brief Executes identifier propagation over the database in place.
///
/// The referenced cluster identifier is read from the referenced table's
/// DirtyTableInfo::id_column. Both sides are read at their committed
/// version: only visible rows resolve and only visible rows are written.
/// Dangling references are written as NULL and counted. The pass is a
/// per-spec hash build over the referenced table followed by a linear
/// scan — its cost is linear in table sizes and, as the paper observes,
/// independent of the cluster cardinalities.
Result<PropagationStats> PropagateIdentifiers(
    Database* db, const DirtySchema& dirty,
    const std::vector<PropagationSpec>& specs);

}  // namespace conquer

#endif  // CONQUER_PROB_PROPAGATE_H_
