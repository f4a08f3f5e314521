#ifndef CONQUER_TYPES_VALUE_H_
#define CONQUER_TYPES_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace conquer {

/// \brief Column / value type tags of the relational engine.
enum class DataType {
  kNull = 0,  ///< Only as the type of an untyped NULL literal.
  kBool,
  kInt64,
  kDouble,
  kString,
  kDate,  ///< Stored as int64 days since 1970-01-01.
};

/// Name of the type, e.g. "INT64".
const char* DataTypeToString(DataType t);

/// True when values of `a` and `b` can be compared / combined arithmetically.
bool TypesComparable(DataType a, DataType b);

/// Converts a calendar date to days since 1970-01-01 (proleptic Gregorian).
int64_t CivilToDays(int year, int month, int day);

/// Inverse of CivilToDays, defined for every int64 day count (years beyond
/// the int range included).
void DaysToCivil(int64_t days, int64_t* year, int* month, int* day);

/// Parses "YYYY-MM-DD" into days since epoch.
Result<int64_t> ParseDate(std::string_view iso);

/// Formats days since epoch as "YYYY-MM-DD".
std::string FormatDate(int64_t days);

/// \brief A dynamically typed SQL value: NULL, BOOL, INT64, DOUBLE, STRING,
/// or DATE.
///
/// Values use SQL comparison semantics at the expression-evaluation layer
/// (NULL comparisons yield unknown); `Value` itself also provides a total
/// order (`TotalCompare`, NULLs first) for sorting and grouping.
///
/// STRING values come in two representations: an owned `std::string`, or an
/// *interned* reference into a `StringDictionary` (a stable `const
/// std::string*` plus the string's precomputed hash). Interned values copy
/// in O(1), hash in O(1), and compare by pointer when both sides are
/// interned in the same dictionary; all accessors (`string_value`,
/// comparison, hashing) behave identically for both representations, and
/// hashes of the two representations of the same text always agree. The
/// referenced dictionary must outlive the value — the executor guarantees
/// this by decoding interned values into owned strings at the
/// projection/result-set boundary (`DecodeInPlace`).
class Value {
 public:
  /// Interned string payload: a pointer to dictionary-owned storage plus
  /// the precomputed `std::hash<std::string>` of the text.
  struct InternedStr {
    const std::string* str;
    size_t hash;
  };

  /// NULL value.
  Value() : type_(DataType::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(DataType::kBool, v); }
  static Value Int(int64_t v) { return Value(DataType::kInt64, v); }
  static Value Double(double v) { return Value(DataType::kDouble, v); }
  static Value String(std::string v) {
    return Value(DataType::kString, std::move(v));
  }
  static Value Date(int64_t days) { return Value(DataType::kDate, days); }
  /// STRING referencing dictionary-owned storage; `hash` must equal
  /// `std::hash<std::string>{}(*s)` (StringDictionary precomputes it).
  static Value Interned(const std::string* s, size_t hash) {
    return Value(DataType::kString, InternedStr{s, hash});
  }

  DataType type() const { return type_; }
  bool is_null() const { return type_ == DataType::kNull; }

  /// Preconditions: value holds the requested representation.
  bool bool_value() const { return std::get<bool>(rep_); }
  int64_t int_value() const { return std::get<int64_t>(rep_); }
  double double_value() const { return std::get<double>(rep_); }
  const std::string& string_value() const {
    if (const InternedStr* i = std::get_if<InternedStr>(&rep_)) return *i->str;
    return std::get<std::string>(rep_);
  }
  int64_t date_value() const { return std::get<int64_t>(rep_); }

  /// True for a STRING in the interned (dictionary-backed) representation.
  bool is_interned() const {
    return std::holds_alternative<InternedStr>(rep_);
  }
  /// The interned storage pointer, or nullptr for other representations.
  /// Two values interned in the same dictionary are equal iff the pointers
  /// are — the executor's string-equality fast path.
  const std::string* interned_ptr() const {
    const InternedStr* i = std::get_if<InternedStr>(&rep_);
    return i != nullptr ? i->str : nullptr;
  }

  /// Converts an interned STRING into an owning one (no-op otherwise), so
  /// the value survives its source dictionary.
  void DecodeInPlace() {
    if (const InternedStr* i = std::get_if<InternedStr>(&rep_)) {
      rep_ = *i->str;
    }
  }

  /// Numeric value widened to double (INT64, DOUBLE, DATE, BOOL).
  double AsDouble() const;

  /// SQL equality between non-null comparable values.
  bool Equals(const Value& other) const;

  /// Three-way comparison (-1/0/1) between non-null comparable values.
  /// INT64 and DOUBLE compare numerically across types.
  int Compare(const Value& other) const;

  /// Total order usable for std::sort / grouping: NULL < BOOL < numeric <
  /// STRING < DATE classes, NULLs equal each other.
  int TotalCompare(const Value& other) const;

  /// Hash compatible with TotalCompare equality (numeric 3 and 3.0 collide).
  size_t Hash() const;

  /// Display form: NULL, literals unquoted ("3", "3.5", "abc", "1995-03-15").
  std::string ToString() const;

  /// SQL literal form (strings quoted and escaped, dates as DATE '...').
  std::string ToSqlLiteral() const;

  bool operator==(const Value& other) const { return TotalCompare(other) == 0; }
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return TotalCompare(other) < 0; }

 private:
  template <typename T>
  Value(DataType t, T v) : type_(t), rep_(std::move(v)) {}

  DataType type_;
  std::variant<std::monostate, bool, int64_t, double, std::string, InternedStr>
      rep_;
};

/// Decodes every interned string in the row into owning storage (the
/// projection/result-set boundary of the batch executor).
inline void DecodeRowInPlace(std::vector<Value>* row) {
  for (Value& v : *row) v.DecodeInPlace();
}

/// Hasher for containers keyed on Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace conquer

#endif  // CONQUER_TYPES_VALUE_H_
