#ifndef CONQUER_PROB_ASSIGNER_H_
#define CONQUER_PROB_ASSIGNER_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/dirty_schema.h"
#include "prob/dcf.h"
#include "storage/table.h"

namespace conquer {

/// \brief Per-tuple output of a probability pass, exposed so tests and
/// reports can reproduce the paper's Table 3 (distance, similarity,
/// probability per tuple).
struct TupleProbability {
  size_t row = 0;        ///< row position in the table
  double distance = 0.0;    ///< d(t, rep) — information loss
  double similarity = 0.0;  ///< s_t = 1 - d_t / S(c_i)
  double probability = 0.0; ///< final prob(t)
};

/// \brief Options for AssignProbabilities.
struct AssignerOptions {
  /// Columns used to build the categorical representation. Empty = every
  /// column except the identifier and probability columns.
  std::vector<std::string> attribute_columns;
};

/// \brief The paper's Figure 5 algorithm: assigns a probability to every
/// tuple of a clustered relation.
///
/// Step 1 computes each cluster's representative by merging the member
/// tuples' DCFs; Step 2 measures each member's information-loss distance to
/// the representative; Step 3 converts distances to similarities
/// (s_t = 1 - d_t/S) and normalizes them into probabilities
/// (prob(t) = s_t / (|c|-1); singleton clusters get probability 1).
///
/// Degenerate clusters whose members are all at distance ~0 from the
/// representative (identical duplicates) get the uniform distribution.
///
/// Reads the rows visible at the table's committed version (the total
/// weight is the visible row count), writes their probabilities into
/// `info.prob_column` and returns the per-tuple details of the visible rows
/// in row order. Row versions a write deleted or superseded keep their
/// stored probabilities.
Result<std::vector<TupleProbability>> AssignProbabilities(
    Table* table, const DirtyTableInfo& info,
    const AssignerOptions& options = {});

/// \brief Builds the cluster representative (merged DCF) of the given rows.
/// Exposed for tests that pin the paper's Table 2 values.
Result<Dcf> BuildClusterRepresentative(const Table& table,
                                       const std::vector<size_t>& rows,
                                       const std::vector<size_t>& attr_columns,
                                       ValueSpace* space);

/// \name The pieces every probability pass shares
/// Fig. 5, its medoid variant, the uniform and source-reliability providers
/// and incremental maintenance (prob/incremental.h) differ only in how they
/// compute one cluster; they share the cluster walk
/// (CollectVisibleClusters), the per-cluster computations below and one
/// staged write-back.
/// \{

/// Attribute columns a pass reads: `options.attribute_columns`, or by
/// default every column except the identifier and probability columns.
Result<std::vector<size_t>> ResolveAttributeColumns(
    const Table& table, const DirtyTableInfo& info,
    const AssignerOptions& options = {});

/// Fig. 5 step 3 for one cluster whose members' `distance` is set: fills
/// s_t = 1 - d_t/S and prob(t) = s_t/(|c|-1). A singleton, and a cluster
/// whose total distance S is ~0 (identical duplicates), get the uniform
/// distribution (1 for a singleton).
void NormalizeCluster(std::vector<TupleProbability>* cluster);

/// Fig. 5 steps 1-3 for one non-empty cluster, members in the order given,
/// from the members' value indices (the same number per member, row-major;
/// ignored for a singleton): each member's tuple DCF is built once and
/// serves both the representative merge and the member's distance
/// (measured against `total_weight` tuples).
std::vector<TupleProbability> InformationLossProbabilities(
    const std::vector<size_t>& members, const std::vector<uint32_t>& indices,
    double total_weight);

/// The same for members read from `table`: their values are interned into
/// `space` member by member — singletons intern nothing — so a pass sharing
/// one space across clusters fixes the summation order of every later
/// distance.
std::vector<TupleProbability> InformationLossProbabilities(
    const Table& table, const std::vector<size_t>& members,
    const std::vector<size_t>& attr_columns, double total_weight,
    ValueSpace* space);

/// One deferred Table::SetValue. A pass computes every cluster into a
/// staging list and applies it only after all clusters succeeded, so a
/// failure midway leaves the table untouched. Staging is sound because a
/// pass writes only the identifier and probability columns and reads only
/// the attribute columns.
struct StagedWrite {
  size_t row;
  size_t col;
  Value value;
};

/// The one write-back: applies `writes` in order under one RowCursor.
void ApplyStagedWrites(Table* table, const std::vector<StagedWrite>& writes);

/// Computes one cluster: `members` are its visible rows (ascending) and
/// `num_rows` the table's visible row count. Returns one entry per member,
/// in member order, with `row` set.
using ClusterProbabilityFn = std::function<std::vector<TupleProbability>(
    const std::vector<size_t>& members, size_t num_rows)>;

/// The batch pass: walks the clusters visible at the table's committed
/// version, computes each with `per_cluster` and writes the probabilities
/// into `info.prob_column` in one staged write-back. Returns the details of
/// the visible rows in row order.
Result<std::vector<TupleProbability>> AssignClusterProbabilities(
    Table* table, const DirtyTableInfo& info,
    const ClusterProbabilityFn& per_cluster);

/// \}

}  // namespace conquer

#endif  // CONQUER_PROB_ASSIGNER_H_
