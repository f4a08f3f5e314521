#ifndef CONQUER_CORE_NAIVE_EVAL_H_
#define CONQUER_CORE_NAIVE_EVAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/clean_answer.h"
#include "core/dirty_schema.h"
#include "engine/database.h"

namespace conquer {

/// \brief Reference implementation of the clean-answer semantics by direct
/// candidate-database enumeration (paper Dfn 3-5).
///
/// Materializes every candidate database (choose exactly one tuple per
/// cluster), runs the query on each, and accumulates the candidate
/// probability onto every answer tuple. Exponential in the number of
/// non-singleton clusters — this is the testing oracle against which the
/// SQL rewriting is validated, not a production path. Enumeration is capped
/// (ResourceExhausted beyond `max_candidates`).
class NaiveCandidateEvaluator {
 public:
  NaiveCandidateEvaluator(const Database* db, const DirtySchema* dirty)
      : db_(db), dirty_(dirty) {}

  /// Clean answers of an SPJ query (set semantics; ORDER BY ignored).
  Result<CleanAnswerSet> Evaluate(std::string_view sql,
                                  uint64_t max_candidates = 1 << 20) const;

  /// Number of candidate databases the dirty tables referenced by `sql`
  /// induce (product of cluster cardinalities).
  Result<uint64_t> CountCandidates(std::string_view sql) const;

  /// Probability of each candidate database of the named tables, computed
  /// per Dfn 4 (product of chosen tuple probabilities). Exposed so tests
  /// can check the worked examples (paper Example 3 / Figure 3).
  Result<std::vector<double>> CandidateProbabilities(
      const std::vector<std::string>& tables,
      uint64_t max_candidates = 1 << 20) const;

 private:
  struct Cluster {
    std::string table;           ///< owning table name
    std::vector<size_t> members; ///< row positions within the table
  };

  /// Clusters of the given tables' committed rows, in deterministic
  /// (table, first-visible-row) order.
  Result<std::vector<Cluster>> ClustersOf(
      const std::vector<std::string>& tables) const;

  const Database* db_;
  const DirtySchema* dirty_;
};

}  // namespace conquer

#endif  // CONQUER_CORE_NAIVE_EVAL_H_
