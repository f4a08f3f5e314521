#ifndef CONQUER_PROB_MATCHER_H_
#define CONQUER_PROB_MATCHER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace conquer {

/// \brief Options of the baseline tuple matcher.
struct MatcherOptions {
  /// Maximum Jensen-Shannon divergence (base-2, in [0, 1]) between a tuple's
  /// distribution and a cluster representative for the tuple to join the
  /// cluster. 0 merges only identical tuples; 1 merges everything into the
  /// first cluster.
  double merge_threshold = 0.35;

  /// Columns used for matching. Empty = every column not excluded.
  std::vector<std::string> attribute_columns;
  /// Columns ignored when `attribute_columns` is empty (record keys,
  /// pre-existing identifier/probability columns).
  std::vector<std::string> exclude_columns;
};

/// \brief Result of matching: a cluster label per row position, in row
/// order.
struct MatchResult {
  /// The label of a row version that is not visible at the committed
  /// version (a write deleted or superseded it).
  static constexpr size_t kNoCluster = SIZE_MAX;

  std::vector<size_t> cluster_of_row;
  size_t num_clusters = 0;
};

/// \brief Baseline tuple matcher in the LIMBO family (paper reference [4]).
///
/// The paper assumes tuple matching has already produced a clustering; this
/// matcher closes the pipeline for users who start from a raw table. It is
/// the streaming (BIRCH-style) phase of LIMBO over the same Distributional
/// Cluster Features used in Section 4: each tuple is compared against the
/// existing cluster representatives by Jensen-Shannon divergence and merged
/// into the nearest one below `merge_threshold`, or opens a new cluster.
/// One pass over the rows visible at the table's committed version, in row
/// order, O(rows x clusters); order-dependent like LIMBO phase 1.
///
/// The framework is deliberately modular (paper Section 1): any other
/// matcher can be substituted by writing cluster identifiers directly.
Result<MatchResult> MatchTuples(const Table& table,
                                const MatcherOptions& options = {});

/// \brief Runs MatchTuples and writes cluster identifiers
/// `<prefix><cluster>` into the named column of the table's visible rows.
Result<MatchResult> AssignClusterIdentifiers(Table* table,
                                             std::string_view id_column,
                                             const MatcherOptions& options = {},
                                             std::string_view prefix = "m");

}  // namespace conquer

#endif  // CONQUER_PROB_MATCHER_H_
