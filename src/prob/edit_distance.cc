#include "prob/edit_distance.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace conquer {

size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  // Two-row dynamic program over the shorter string.
  std::vector<size_t> prev(a.size() + 1), curr(a.size() + 1);
  for (size_t i = 0; i <= a.size(); ++i) prev[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    curr[0] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      size_t substitute = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      curr[i] = std::min({prev[i] + 1, curr[i - 1] + 1, substitute});
    }
    std::swap(prev, curr);
  }
  return prev[a.size()];
}

double NormalizedEditDistance(std::string_view a, std::string_view b) {
  size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 0.0;
  return static_cast<double>(LevenshteinDistance(a, b)) /
         static_cast<double>(longest);
}

double MixedEditDistance::Distance(
    const Table& table, size_t row_a, size_t row_b,
    const std::vector<size_t>& attribute_columns) const {
  if (attribute_columns.empty()) return 0.0;
  double total = 0.0;
  for (size_t c : attribute_columns) {
    Value a = table.ValueAt(row_a, c);
    Value b = table.ValueAt(row_b, c);
    if (a.is_null() && b.is_null()) continue;  // both missing: no evidence
    if (a.is_null() != b.is_null()) {
      total += 1.0;
      continue;
    }
    switch (a.type()) {
      case DataType::kString:
        total += NormalizedEditDistance(a.string_value(),
                                        b.type() == DataType::kString
                                            ? b.string_value()
                                            : b.ToString());
        break;
      case DataType::kInt64:
      case DataType::kDouble:
      case DataType::kDate: {
        double x = a.AsDouble(), y = b.AsDouble();
        double denom = std::max(std::abs(x), std::abs(y));
        total += denom > 0 ? std::min(1.0, std::abs(x - y) / denom) : 0.0;
        break;
      }
      default:
        total += a.TotalCompare(b) == 0 ? 0.0 : 1.0;
        break;
    }
  }
  return total / static_cast<double>(attribute_columns.size());
}

Result<std::vector<TupleProbability>> AssignProbabilitiesWithDistance(
    Table* table, const DirtyTableInfo& info,
    const TupleDistanceMeasure& measure, const AssignerOptions& options) {
  CONQUER_ASSIGN_OR_RETURN(std::vector<size_t> attrs,
                           ResolveAttributeColumns(*table, info, options));
  return AssignClusterProbabilities(
      table, info, [&](const std::vector<size_t>& members, size_t) {
        const size_t n = members.size();
        // Pairwise distances; representative = medoid.
        std::vector<std::vector<double>> d(n, std::vector<double>(n, 0.0));
        for (size_t i = 0; i < n; ++i) {
          for (size_t j = i + 1; j < n; ++j) {
            d[i][j] = d[j][i] =
                measure.Distance(*table, members[i], members[j], attrs);
          }
        }
        size_t medoid = 0;
        double best_total = std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < n; ++i) {
          double total = 0.0;
          for (size_t j = 0; j < n; ++j) total += d[i][j];
          if (total < best_total) {
            best_total = total;
            medoid = i;
          }
        }
        std::vector<TupleProbability> out(n);
        for (size_t i = 0; i < n; ++i) {
          out[i].row = members[i];
          out[i].distance = d[i][medoid];
        }
        NormalizeCluster(&out);
        return out;
      });
}

}  // namespace conquer
