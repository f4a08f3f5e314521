#include "core/clean_answer.h"

#include <algorithm>

#include "common/str_util.h"
#include "exec/result_set.h"

namespace conquer {

namespace {
bool RowsEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].TotalCompare(b[i]) != 0) return false;
  }
  return true;
}
}  // namespace

double ClampProbability(double p) {
  if (p >= 1.0 - kProbabilityEpsilon) return 1.0;
  if (p <= kProbabilityEpsilon) return p < 0.0 ? 0.0 : p;
  return p;
}

double ProbabilityValue(const Value& v) {
  return v.is_null() ? 0.0 : v.AsDouble();
}

double CleanAnswerSet::ProbabilityOf(const Row& row) const {
  for (const CleanAnswer& a : answers) {
    if (RowsEqual(a.row, row)) return a.probability;
  }
  return 0.0;
}

std::vector<Row> CleanAnswerSet::ConsistentAnswers(double epsilon) const {
  std::vector<Row> out;
  for (const CleanAnswer& a : answers) {
    if (a.probability >= 1.0 - epsilon) out.push_back(a.row);
  }
  return out;
}

void CleanAnswerSet::SortByProbabilityDesc() {
  std::stable_sort(answers.begin(), answers.end(),
                   [](const CleanAnswer& a, const CleanAnswer& b) {
                     return a.probability > b.probability;
                   });
}

std::vector<CleanAnswer> CleanAnswerSet::TopK(size_t k) const {
  std::vector<CleanAnswer> sorted = answers;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const CleanAnswer& a, const CleanAnswer& b) {
                     return a.probability > b.probability;
                   });
  if (sorted.size() > k) sorted.resize(k);
  return sorted;
}

std::string CleanAnswerSet::ToString(size_t max_rows) const {
  ResultSet rs;
  rs.column_names = column_names;
  rs.column_names.push_back("probability");
  for (const CleanAnswer& a : answers) {
    Row row = a.row;
    row.push_back(Value::Double(a.probability));
    rs.rows.push_back(std::move(row));
  }
  return rs.ToString(max_rows);
}

}  // namespace conquer
