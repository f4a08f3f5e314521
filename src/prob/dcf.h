#ifndef CONQUER_PROB_DCF_H_
#define CONQUER_PROB_DCF_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_hash.h"
#include "common/result.h"
#include "storage/table.h"

namespace conquer {

/// \brief The attribute-qualified categorical value space V of a relation
/// (paper Section 4.1.1).
///
/// Two values of one attribute are one element of V exactly when their
/// Value::ToString() spellings are equal; values of different attributes
/// are always distinct, even when their spellings coincide (the paper's
/// convention). What follows from the spelling rule:
///   - DOUBLE values are spelled "%.6g": 123456.78 and 123457.2 (both
///     "123457") are one value, while -0.0 ("-0") and 0.0 ("0") are two;
///   - NULL is spelled "NULL", so it is the same value as the string 'NULL'
///     in the same attribute;
///   - an owned and an interned string with the same text are one value.
///
/// Indices are dense and assigned in first-intern order. SparseDist entries
/// are sorted by index, so the order in which a pass interns its rows fixes
/// the summation order, and thus the bits, of every later distance.
///
/// Interning builds no string per call: INT64, DATE and BOOL values are
/// keyed by their payload (their spellings are one-to-one), strings by
/// their text (an interned string reuses its dictionary hash, and a repeat
/// of the same dictionary entry skips the text compare), DOUBLE values by
/// their spelling formatted on the stack, and NULL as the text "NULL".
/// Strings, doubles and NULL share one text key space, so any two of them
/// that spell alike are one value. The payload keys keep apart only values
/// of different types that spell alike (INT64 5 and STRING '5'); a table
/// column holds one type besides NULL, so no pass over a table meets such
/// a pair.
///
/// Interned strings are recognised by address, so a space must not outlive
/// the dictionaries of the values interned into it (passes keep one space
/// per call).
///
/// CellElement below is a second reader of this identity rule: it decides
/// the same equality from raw column cells without interning, for
/// NULL-identifier matching. The two must change together.
class ValueSpace {
 public:
  /// Interns (attribute, value) and returns its index in V.
  uint32_t Intern(size_t attribute, const Value& v);

  /// Index of (attribute, value), or -1 when never interned.
  int64_t Find(size_t attribute, const Value& v) const;

  size_t size() const { return index_.size(); }

 private:
  enum class Kind : uint8_t { kText, kInt64, kDate, kBool };

  /// A lookup key. `text` views the value's storage or a caller's buffer.
  struct Probe {
    size_t attribute;
    Kind kind;
    int64_t payload;  ///< INT64 / DATE / BOOL
    std::string_view text;  ///< kText
    const std::string* interned;  ///< dictionary storage of `text`, or null
    uint64_t hash;  ///< raw hash of the whole key
  };

  /// The stored form of a Probe; owns its text.
  struct Key {
    size_t attribute = 0;
    Kind kind = Kind::kText;
    int64_t payload = 0;
    std::string text;
    /// Dictionary storage the text was first interned from (compared by
    /// address only, never dereferenced), or null.
    const std::string* interned = nullptr;
  };

  /// The probe for (attribute, v); a DOUBLE is spelled into `buf`.
  static Probe MakeProbe(size_t attribute, const Value& v, char (&buf)[32]);
  /// `payload` is the INT64/DATE/BOOL payload or the text's hash.
  static uint64_t RawHash(size_t attribute, Kind kind, uint64_t payload);

  struct KeyHash {
    uint64_t operator()(const Key& k) const;
  };
  struct KeyEq {
    bool operator()(const Key& stored, const Key& k) const;
    bool operator()(const Key& stored, const Probe& p) const;
  };

  /// Keyed by Key; the mapped value is the element's index (its entry's
  /// insertion rank).
  FlatHashMap<Key, uint32_t, KeyHash, KeyEq> index_;
};

/// ValueSpace's spelling of a DOUBLE, "%.6g" (Value::ToString's), written
/// into `buf`.
std::string_view SpellDouble(double d, char (&buf)[32]);

/// \brief One element of V read off a raw column cell, matched against
/// other cells of the same table column by ValueSpace's identity rule
/// without building a Value or interning anything.
///
/// A cell holds the element exactly when ValueSpace would give the two
/// cells one index in one attribute:
///   - STRING cells by dictionary code (one code per text); NULL is the
///     text "NULL", so it matches the code of 'NULL' when the column has
///     one;
///   - INT64, DATE and BOOL cells by payload; NULL matches only NULL;
///   - DOUBLE cells by spelling (SpellDouble). A cell is formatted only
///     when it lies within 2e-5 relative of a finite element's value,
///     a superset of the spelling's rounding interval (two values that
///     round to one six-digit decimal differ by at most 1e-5 of the
///     larger), or when both are non-finite; NULL matches only NULL.
///
/// NULL-identifier matching (prob/incremental.cc) marks an element's
/// holders with it in one typed pass over a column.
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
  bool operator==(const CellElement& other) const;

 private:
  bool SameSpelling(double x) const;
  std::string_view spelling() const { return {spelling_, spelling_size_}; }

  DataType type_;
  bool null_ = false;  ///< matches NULL cells
  /// STRING: the code of the element's text (-1 when the dictionary has
  /// none); INT64, DATE, BOOL: the payload.
  int64_t key_ = 0;
  double value_ = 0.0;      ///< DOUBLE value
  double tolerance_ = 0.0;  ///< DOUBLE prefilter half-width
  uint8_t spelling_size_ = 0;
  char spelling_[32] = {};  ///< DOUBLE spelling
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
      for (size_t i = begin; i < end; ++i) {
        const double x = xs[i];
        const bool near = finite ? std::fabs(x - value_) <= tolerance_
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

/// \brief Interns row `row`'s values of `attr_columns` into `space`, in
/// attribute order, and appends their indices to `out`. Moves `cursor` to
/// the row and reads through its pin.
void InternRow(RowCursor* cursor, size_t row,
               const std::vector<size_t>& attr_columns, ValueSpace* space,
               std::vector<uint32_t>* out);

/// \brief The DCF of one table row over `attr_columns`: weight 1 and
/// p(v|t) = 1/m for each of its m attribute values (paper Section 4.1.1).
/// Interns the values as InternRow does.
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
