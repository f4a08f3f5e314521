#include "types/value.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <functional>

#include "common/str_util.h"

namespace conquer {

const char* DataTypeToString(DataType t) {
  switch (t) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBool:
      return "BOOL";
    case DataType::kInt64:
      return "INT64";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "STRING";
    case DataType::kDate:
      return "DATE";
  }
  return "?";
}

namespace {
bool IsNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble;
}
}  // namespace

bool TypesComparable(DataType a, DataType b) {
  if (a == DataType::kNull || b == DataType::kNull) return true;
  if (a == b) return true;
  return IsNumeric(a) && IsNumeric(b);
}

// Howard Hinnant's civil-days algorithm.
int64_t CivilToDays(int year, int month, int day) {
  int y = year - (month <= 2);
  int era = (y >= 0 ? y : y - 399) / 400;
  unsigned yoe = static_cast<unsigned>(y - era * 400);
  unsigned doy = (153u * (month + (month > 2 ? -3 : 9)) + 2) / 5 + day - 1;
  unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return static_cast<int64_t>(era) * 146097 + static_cast<int64_t>(doe) - 719468;
}

void DaysToCivil(int64_t days, int64_t* year, int* month, int* day) {
  // Split whole 400-year eras off before shifting the epoch to 0000-03-01:
  // `days + 719468` would overflow near INT64_MAX. The truncated remainder
  // lies in (-146097, 146097), so the shifted one is positive.
  const int64_t rem = days % 146097 + 719468;
  const int64_t era = days / 146097 + rem / 146097;
  unsigned doe = static_cast<unsigned>(rem % 146097);
  unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  int64_t y = static_cast<int64_t>(yoe) + era * 400;
  unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  unsigned mp = (5 * doy + 2) / 153;
  *day = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  *month = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  *year = y + (*month <= 2);
}

Result<int64_t> ParseDate(std::string_view iso) {
  int y = 0, m = 0, d = 0;
  char extra = 0;
  std::string s(iso);
  if (std::sscanf(s.c_str(), "%d-%d-%d%c", &y, &m, &d, &extra) != 3 ||
      m < 1 || m > 12 || d < 1 || d > 31) {
    return Status::InvalidArgument("malformed date literal: '" + s + "'");
  }
  return CivilToDays(y, m, d);
}

std::string FormatDate(int64_t days) {
  int64_t y;
  int m, d;
  DaysToCivil(days, &y, &m, &d);
  return StringPrintf("%04lld-%02d-%02d", static_cast<long long>(y), m, d);
}

double Value::AsDouble() const {
  switch (type_) {
    case DataType::kBool:
      return bool_value() ? 1.0 : 0.0;
    case DataType::kInt64:
      return static_cast<double>(int_value());
    case DataType::kDouble:
      return double_value();
    case DataType::kDate:
      return static_cast<double>(date_value());
    default:
      assert(false && "AsDouble on non-numeric value");
      return 0.0;
  }
}

bool Value::Equals(const Value& other) const { return Compare(other) == 0; }

int Value::Compare(const Value& other) const {
  assert(!is_null() && !other.is_null());
  if (type_ == other.type_) {
    switch (type_) {
      case DataType::kBool: {
        int a = bool_value(), b = other.bool_value();
        return (a > b) - (a < b);
      }
      case DataType::kInt64:
      case DataType::kDate: {
        int64_t a = int_value(), b = other.int_value();
        return (a > b) - (a < b);
      }
      case DataType::kDouble: {
        double a = double_value(), b = other.double_value();
        return (a > b) - (a < b);
      }
      case DataType::kString: {
        // Interned fast path: same dictionary entry => equal, no byte scan.
        const std::string* a = interned_ptr();
        if (a != nullptr && a == other.interned_ptr()) return 0;
        return string_value().compare(other.string_value()) < 0
                   ? -1
                   : (string_value() == other.string_value() ? 0 : 1);
      }
      default:
        break;
    }
  }
  // Mixed numeric comparison.
  assert(TypesComparable(type_, other.type_));
  double a = AsDouble(), b = other.AsDouble();
  return (a > b) - (a < b);
}

int Value::TotalCompare(const Value& other) const {
  auto cls = [](DataType t) {
    switch (t) {
      case DataType::kNull:
        return 0;
      case DataType::kBool:
        return 1;
      case DataType::kInt64:
      case DataType::kDouble:
        return 2;
      case DataType::kString:
        return 3;
      case DataType::kDate:
        return 4;
    }
    return 5;
  };
  int ca = cls(type_), cb = cls(other.type_);
  if (ca != cb) return (ca > cb) - (ca < cb);
  if (ca == 0) return 0;  // both NULL
  return Compare(other);
}

size_t Value::Hash() const {
  // Hot path of every hash join build/probe and group-by: reach into the
  // variant with unchecked get_if (the type tag already discriminates)
  // instead of the throwing std::get / visitor machinery.
  switch (type_) {
    case DataType::kNull:
      return 0x9e3779b9u;
    case DataType::kBool:
      return *std::get_if<bool>(&rep_) ? 0x1234u : 0x4321u;
    case DataType::kInt64: {
      // Hash the double image so 3 and 3.0 collide (they compare equal).
      double d = static_cast<double>(*std::get_if<int64_t>(&rep_));
      return std::hash<double>()(d) ^ 0x5bd1e995u;
    }
    case DataType::kDouble: {
      double d = *std::get_if<double>(&rep_);
      if (d == 0.0) d = 0.0;  // normalize -0.0
      return std::hash<double>()(d) ^ 0x5bd1e995u;
    }
    case DataType::kString: {
      if (const InternedStr* i = std::get_if<InternedStr>(&rep_)) {
        return i->hash;  // precomputed at intern time
      }
      return std::hash<std::string>()(*std::get_if<std::string>(&rep_));
    }
    case DataType::kDate:
      return std::hash<int64_t>()(*std::get_if<int64_t>(&rep_)) ^ 0x85ebca6bu;
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type_) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBool:
      return bool_value() ? "true" : "false";
    case DataType::kInt64:
      return std::to_string(int_value());
    case DataType::kDouble: {
      std::string s = StringPrintf("%.6g", double_value());
      return s;
    }
    case DataType::kString:
      return string_value();
    case DataType::kDate:
      return FormatDate(date_value());
  }
  return "?";
}

std::string Value::ToSqlLiteral() const {
  switch (type_) {
    case DataType::kString: {
      std::string out = "'";
      for (char c : string_value()) {
        if (c == '\'') out += "''";
        else out += c;
      }
      out += "'";
      return out;
    }
    case DataType::kDate:
      return "DATE '" + FormatDate(date_value()) + "'";
    default:
      return ToString();
  }
}

}  // namespace conquer
