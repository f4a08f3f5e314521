#ifndef CONQUER_CORE_CLEAN_ANSWER_H_
#define CONQUER_CORE_CLEAN_ANSWER_H_

#include <string>
#include <vector>

#include "storage/table.h"

namespace conquer {

/// Tolerance for floating-point drift in accumulated probabilities: sums
/// within this distance of an exact bound are snapped to it, and
/// ConsistentAnswers treats probabilities within it of 1 as certain.
inline constexpr double kProbabilityEpsilon = 1e-9;

/// Clamps an accumulated probability into [0, 1]. SUM over a cluster's
/// tuple probabilities can exceed 1 (or fall just short of it) by a few
/// ulps of floating-point error; values within kProbabilityEpsilon of a
/// bound snap exactly to it so that `probability == 1.0` consistency checks
/// and certainty bands stay reliable.
double ClampProbability(double p);

/// Reads a stored or accumulated probability, NULL as 0. A tuple with a
/// NULL probability (say, inserted with no maintenance hook installed)
/// contributes nothing, just as SQL SUM skips it; an answer all of whose
/// tuples are NULL therefore has probability 0.
double ProbabilityValue(const Value& v);

/// \brief One clean answer (paper Dfn 5): an answer tuple together with the
/// probability that it is an answer over the (unknown) clean database.
struct CleanAnswer {
  Row row;
  double probability = 0.0;
};

/// \brief A set of clean answers with their column metadata.
struct CleanAnswerSet {
  std::vector<std::string> column_names;  ///< excludes the probability column
  std::vector<CleanAnswer> answers;

  /// Probability of `row`, or 0 when absent (absent == impossible answer).
  double ProbabilityOf(const Row& row) const;

  /// Answers with probability within `epsilon` of 1 — exactly the
  /// *consistent answers* of Arenas et al. when all tuple probabilities are
  /// non-zero (paper Section 2.2).
  std::vector<Row> ConsistentAnswers(double epsilon = kProbabilityEpsilon) const;

  /// Sorts answers by decreasing probability (ties: row order).
  void SortByProbabilityDesc();

  /// The k most probable answers (ties broken by original row order);
  /// fewer when the set is smaller.
  std::vector<CleanAnswer> TopK(size_t k) const;

  /// ASCII table for display.
  std::string ToString(size_t max_rows = 50) const;
};

}  // namespace conquer

#endif  // CONQUER_CORE_CLEAN_ANSWER_H_
