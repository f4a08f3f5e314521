#ifndef CONQUER_PROB_DCF_H_
#define CONQUER_PROB_DCF_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/flat_hash.h"
#include "common/result.h"
#include "storage/table.h"

namespace conquer {

/// \brief One element of the attribute-qualified value space V (paper
/// Section 4.1.1) read off a raw column cell: the one reader of V's
/// identity rule.
///
/// Two cells of one table column are one element exactly when their
/// Value::ToString() spellings are equal, NULL spelling "NULL". A column
/// holds one stored type besides NULL, so per type the rule reads:
///   - STRING cells by dictionary code (one code per text); NULL matches
///     the code of 'NULL' when the column has one;
///   - INT64, DATE and BOOL cells by payload; NULL matches only NULL;
///   - DOUBLE cells by their "%.6g" spelling: 123456.78 and 123457.2 (both
///     "123457") are one element, -0.0 ("-0") and 0.0 ("0") two; NULL
///     matches only NULL.
///
/// ForEachMatch formats a DOUBLE cell only when it lies within 2e-5
/// relative of a finite element's value, a superset of the spelling's
/// rounding interval (two values that round to one six-digit decimal
/// differ by at most 1e-5 of the larger), or when both are non-finite.
///
/// Elements of different columns are not comparable; ValueSpace keeps
/// them apart by attribute.
class CellElement {
 public:
  /// The element at row `i` of `col`, a vector of a column whose
  /// dictionary is `dict` (null for non-string columns).
  CellElement(const ColumnVector& col, size_t i, const StringDictionary* dict);

  /// Calls `fn(i)` for every row i in [begin, end) of `col`, a vector of
  /// the same column, that holds this element, in ascending order.
  template <typename Fn>
  void ForEachMatch(const ColumnVector& col, size_t begin, size_t end,
                    Fn&& fn) const;

  /// The same element (both read from one column).
  bool operator==(const CellElement& other) const {
    return null_ == other.null_ && key_ == other.key_ &&
           spelling_[0] == other.spelling_[0] &&
           spelling_[1] == other.spelling_[1];
  }

  /// A hash that agrees with ==.
  uint64_t Hash() const;

 private:
  bool SameSpelling(double x) const;

  DataType type_;
  bool null_ = false;  ///< matches NULL cells
  /// STRING: the code of the element's text (-1 when the dictionary has
  /// none); INT64, DATE, BOOL: the payload; DOUBLE: 0.
  int64_t key_ = 0;
  double value_ = 0.0;  ///< DOUBLE value
  /// DOUBLE: the "%.6g" spelling, zero-padded (it takes at most 13 chars)
  /// and read as two words; zero for other types.
  std::array<uint64_t, 2> spelling_{};
};

template <typename Fn>
void CellElement::ForEachMatch(const ColumnVector& col, size_t begin,
                               size_t end, Fn&& fn) const {
  const uint8_t* nulls = col.null_data();
  switch (type_) {
    case DataType::kString: {
      const uint32_t* codes = col.code_data();
      for (size_t i = begin; i < end; ++i) {
        if (nulls[i] != 0 ? null_ : static_cast<int64_t>(codes[i]) == key_) {
          fn(i);
        }
      }
      return;
    }
    case DataType::kDouble: {
      if (null_) break;
      const double* xs = col.double_data();
      const bool finite = std::isfinite(value_);
      // Twice the rounding bound, so rounding in the prefilter's own
      // arithmetic (denormals included) never drops a cell.
      const double tolerance = 2e-5 * std::fabs(value_);
      for (size_t i = begin; i < end; ++i) {
        const double x = xs[i];
        const bool near = finite ? std::fabs(x - value_) <= tolerance
                                 : !std::isfinite(x);
        if (nulls[i] == 0 && near && SameSpelling(x)) fn(i);
      }
      return;
    }
    default: {
      if (null_) break;
      const int64_t* payloads = col.fixed_data();
      for (size_t i = begin; i < end; ++i) {
        if (nulls[i] == 0 && payloads[i] == key_) fn(i);
      }
      return;
    }
  }
  for (size_t i = begin; i < end; ++i) {  // NULL of a non-string column
    if (nulls[i] != 0) fn(i);
  }
}

/// \brief The attribute-qualified categorical value space V of a relation
/// (paper Section 4.1.1): a dense index per (attribute, CellElement), in
/// first-intern order.
///
/// Elements of different attributes are always distinct, even when they
/// spell alike (the paper's convention); within an attribute CellElement
/// decides, so an attribute must read one column for the space's life.
/// SparseDist entries are sorted by index, so the order in which a pass
/// interns its cells fixes the summation order, and thus the bits, of
/// every later distance.
class ValueSpace {
 public:
  /// Interns (attribute, element) and returns its index in V.
  uint32_t Intern(size_t attribute, const CellElement& element);

  size_t size() const { return index_.size(); }

 private:
  struct Key {
    size_t attribute;
    CellElement element;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    uint64_t operator()(const Key& k) const {
      return k.element.Hash() ^ (k.attribute * 0x9e3779b97f4a7c15ull);
    }
  };

  /// The mapped value is the element's index (its entry's insertion rank).
  FlatHashMap<Key, uint32_t, KeyHash> index_;
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

  /// A cluster representative: `tuples` (non-empty) merged in order, each
  /// into the running merge.
  static Dcf MergeAll(const std::vector<Dcf>& tuples);
};

/// \brief The tuple DCFs of `rows` rows (>= 1) whose value indices are
/// `indices`, the same number per row, row-major.
std::vector<Dcf> TupleDcfs(const std::vector<uint32_t>& indices, size_t rows);

/// \brief Interns row `row`'s cells of `attr_columns` into `space`, in
/// attribute order, and appends their indices to `out`. Moves `cursor` to
/// the row and reads the raw cells through its pin.
void InternRow(RowCursor* cursor, size_t row,
               const std::vector<size_t>& attr_columns, ValueSpace* space,
               std::vector<uint32_t>* out);

/// \brief The DCF of one table row over `attr_columns`: weight 1 and
/// p(v|t) = 1/m for each of its m attribute values (paper Section 4.1.1).
/// Interns the cells as InternRow does.
Dcf TupleDcf(RowCursor* cursor, size_t row,
             const std::vector<size_t>& attr_columns, ValueSpace* space);

/// \brief Information-loss distance between two summaries (paper
/// Section 4.1.3): d(s1, s2) = I(C;V) - I(C';V), where C' merges s1 and s2.
///
/// For summaries drawn from an ensemble of `total_weight` tuples this
/// equals ((n1+n2)/N) * JS_{pi1,pi2}(p1, p2) — the weighted Jensen-Shannon
/// divergence — which is how it is computed here (logs base 2): one walk
/// over a's entries and then one over b's, each beside the other sorted
/// list, forming the mixture m(v) term by term as SparseDist::Mix would
/// (no mixture is built).
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
