#ifndef CONQUER_PROB_DCF_H_
#define CONQUER_PROB_DCF_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace conquer {

/// \brief The attribute-qualified categorical value space V of a relation
/// (paper Section 4.1.1).
///
/// Values from different attributes are distinct even when their spellings
/// coincide (the paper's convention): value index is assigned per
/// (attribute, spelling) pair.
class ValueSpace {
 public:
  /// Interns (attribute, value) and returns its index in V.
  uint32_t Intern(size_t attribute, const Value& v);

  /// Index of (attribute, value), or -1 when never interned.
  int64_t Find(size_t attribute, const Value& v) const;

  size_t size() const { return names_.size(); }

  /// Display name "attr<i>:<value>" for diagnostics.
  const std::string& name(uint32_t index) const { return names_[index]; }

 private:
  static std::string Key(size_t attribute, const Value& v);

  std::unordered_map<std::string, uint32_t> index_;
  std::vector<std::string> names_;
};

/// \brief A sparse probability distribution p(v | .) over a ValueSpace.
///
/// Entries are kept sorted by value index; absent indices have probability
/// zero.
class SparseDist {
 public:
  SparseDist() = default;

  /// Builds the normalized tuple distribution p(v|t): probability 1/m for
  /// each of the tuple's m attribute values (paper Section 4.1.1).
  static SparseDist FromIndices(std::vector<uint32_t> indices);

  const std::vector<std::pair<uint32_t, double>>& entries() const {
    return entries_;
  }

  /// Probability of value index `v` (0 when absent).
  double At(uint32_t v) const;

  /// Sum of entries (1.0 up to rounding for a proper distribution).
  double Mass() const;

  /// Weighted mixture: w1*a + w2*b (caller normalizes weights).
  static SparseDist Mix(const SparseDist& a, double w1, const SparseDist& b,
                        double w2);

  void Add(uint32_t v, double p);
  void SortAndCombine();

 private:
  std::vector<std::pair<uint32_t, double>> entries_;
};

/// \brief Distributional Cluster Feature (paper Section 4.1.2):
/// DCF(c) = (|c|, p(V|c)).
struct Dcf {
  double weight = 0.0;  ///< cluster cardinality |c|
  SparseDist dist;      ///< conditional distribution p(v|c)

  /// DCF of a single tuple: weight 1, p(v|t).
  static Dcf ForTuple(std::vector<uint32_t> value_indices);

  /// Recursive merge (paper's equations): |c*| = |c1| + |c2|,
  /// p(v|c*) = |c1|/|c*| p(v|c1) + |c2|/|c*| p(v|c2).
  static Dcf Merge(const Dcf& a, const Dcf& b);
};

/// \brief The DCF of one table row over `attr_columns`: weight 1 and
/// p(v|t) = 1/m for each of its m attribute values (paper Section 4.1.1).
/// Interns the values into `space` in attribute order. Callers walking many
/// rows keep the row's chunk pinned with a RowCursor.
Dcf TupleDcf(const Table& table, size_t row,
             const std::vector<size_t>& attr_columns, ValueSpace* space);

/// \brief Information-loss distance between two summaries (paper
/// Section 4.1.3): d(s1, s2) = I(C;V) - I(C';V), where C' merges s1 and s2.
///
/// For summaries drawn from an ensemble of `total_weight` tuples this
/// equals ((n1+n2)/N) * JS_{pi1,pi2}(p1, p2) — the weighted Jensen-Shannon
/// divergence — which is how it is computed here (logs base 2).
double InformationLossDistance(const Dcf& a, const Dcf& b,
                               double total_weight);

/// \brief Mutual information I(C;V) of a clustering given the cluster DCFs
/// (paper Section 4.1.3). `total_weight` is the number of tuples n;
/// p(c) = |c|/n. Used by tests to validate that InformationLossDistance
/// equals the direct I(C;V) - I(C';V) difference.
double MutualInformation(const std::vector<Dcf>& clusters,
                         double total_weight);

}  // namespace conquer

#endif  // CONQUER_PROB_DCF_H_
