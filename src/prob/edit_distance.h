#ifndef CONQUER_PROB_EDIT_DISTANCE_H_
#define CONQUER_PROB_EDIT_DISTANCE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/dirty_schema.h"
#include "prob/assigner.h"
#include "storage/table.h"

namespace conquer {

/// \brief Levenshtein edit distance between two strings.
size_t LevenshteinDistance(std::string_view a, std::string_view b);

/// \brief Edit distance normalized to [0, 1] by the longer string's length
/// (0 for two empty strings).
double NormalizedEditDistance(std::string_view a, std::string_view b);

/// \brief A pluggable tuple-pair distance for the Figure 5 procedure.
///
/// The paper (Section 4): "when a distance measure between tuples (e.g.,
/// string edit distance) is available, our method can incorporate it."
/// Implementations must be symmetric and non-negative.
class TupleDistanceMeasure {
 public:
  virtual ~TupleDistanceMeasure() = default;

  /// Distance between two rows restricted to `attribute_columns`.
  virtual double Distance(const Table& table, size_t row_a, size_t row_b,
                          const std::vector<size_t>& attribute_columns)
      const = 0;
};

/// \brief Attribute-averaged mixed-type distance: normalized Levenshtein
/// for strings, relative difference for numerics/dates, 0/1 for the rest.
/// NULL vs non-NULL counts as a full mismatch (1).
class MixedEditDistance : public TupleDistanceMeasure {
 public:
  double Distance(const Table& table, size_t row_a, size_t row_b,
                  const std::vector<size_t>& attribute_columns) const override;
};

/// \brief The Figure 5 procedure with a pluggable pairwise distance.
///
/// The cluster representative is the *medoid* — the member minimizing the
/// total distance to the rest of the cluster (the natural analogue of the
/// DCF representative when only a pairwise measure exists); each tuple's
/// d_t is its distance to the medoid, and steps 2-3 proceed exactly as in
/// the paper (similarity s_t = 1 - d_t/S, probability s_t/(|c|-1),
/// singletons get 1, all-identical clusters go uniform). O(|c|^2) distance
/// evaluations per cluster. Like AssignProbabilities it reads the rows
/// visible at the table's committed version.
Result<std::vector<TupleProbability>> AssignProbabilitiesWithDistance(
    Table* table, const DirtyTableInfo& info,
    const TupleDistanceMeasure& measure, const AssignerOptions& options = {});

}  // namespace conquer

#endif  // CONQUER_PROB_EDIT_DISTANCE_H_
