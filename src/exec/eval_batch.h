#ifndef CONQUER_EXEC_EVAL_BATCH_H_
#define CONQUER_EXEC_EVAL_BATCH_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "exec/batch.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace conquer {

/// \brief Chunk-native predicate evaluation over a selection vector.
///
/// `sel` holds *chunk-local* positions into chunk `chunk_index` of `table`
/// and is compacted in place, order preserved, keeping exactly the rows
/// where `e` evaluates to TRUE (SQL semantics: NULL drops the row, matching
/// EvalPredicate). The fast paths read the chunk's typed column vectors
/// directly, with no row materialization:
///   - int64/date/bool columns compare raw int64 payloads;
///   - double columns compare raw doubles (INT64 literals widened once);
///   - string (in)equality resolves the literal to its dictionary code once
///     and compares codes per row (counted in `*dict_hits`); ordering and
///     LIKE decode through the dictionary without copying;
///   - an equality on a chunk whose zone map proves all-distinct values
///     stops after the first match.
/// Rows are materialized only for predicate shapes outside these paths
/// (scalar EvalPredicate fallback, one row at a time, reading just the
/// predicate's columns). The caller holds a pin of chunk `chunk_index`
/// naming every column `e` reads.
Status FilterChunkSelection(const Expr& e, const Table& table,
                            size_t chunk_index, SelVector* sel,
                            uint64_t* dict_hits);

/// \brief Adds the table-local columns below `num_columns` that `e` reads to
/// `*cols`, keeping it ascending and without duplicates (a pin's column
/// set).
void AddExprColumns(const Expr& e, size_t num_columns, ColumnSet* cols);

/// \brief Keeps the positions of `sel` (chunk-local, order preserved) that
/// are visible at `snapshot`. Version stamps are resident metadata, so this
/// never faults the chunk payload.
void KeepVisible(const Chunk& chunk, uint64_t snapshot, SelVector* sel);

/// \brief True when the chunk's zone maps prove no row can satisfy `e`.
///
/// Conservative: comparisons of a column against a literal are tested
/// against the column's min/max (an all-NULL chunk fails every comparison);
/// AND skips when either side skips, OR when both do; every other predicate
/// shape returns false. Only literal/column type pairings that the row-wise
/// evaluator would compare without error participate, so pruning never
/// suppresses a type error the scan would have raised.
bool ZoneMapCanSkip(const Expr& e, const Table& table, const Chunk& chunk);

}  // namespace conquer

#endif  // CONQUER_EXEC_EVAL_BATCH_H_
