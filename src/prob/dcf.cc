#include "prob/dcf.h"

#include <algorithm>
#include <cmath>

namespace conquer {

namespace {
constexpr double kLog2 = 0.6931471805599453;  // ln(2)

double Log2(double x) { return std::log(x) / kLog2; }
}  // namespace

std::string ValueSpace::Key(size_t attribute, const Value& v) {
  return std::to_string(attribute) + ":" + v.ToString();
}

uint32_t ValueSpace::Intern(size_t attribute, const Value& v) {
  std::string key = Key(attribute, v);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  uint32_t idx = static_cast<uint32_t>(names_.size());
  index_.emplace(std::move(key), idx);
  names_.push_back(std::to_string(attribute) + ":" + v.ToString());
  return idx;
}

int64_t ValueSpace::Find(size_t attribute, const Value& v) const {
  auto it = index_.find(Key(attribute, v));
  if (it == index_.end()) return -1;
  return it->second;
}

SparseDist SparseDist::FromIndices(std::vector<uint32_t> indices) {
  SparseDist out;
  if (indices.empty()) return out;
  double p = 1.0 / static_cast<double>(indices.size());
  out.entries_.reserve(indices.size());
  for (uint32_t v : indices) out.Add(v, p);
  out.SortAndCombine();
  return out;
}

double SparseDist::At(uint32_t v) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), v,
      [](const std::pair<uint32_t, double>& e, uint32_t x) {
        return e.first < x;
      });
  if (it != entries_.end() && it->first == v) return it->second;
  return 0.0;
}

double SparseDist::Mass() const {
  double m = 0.0;
  for (const auto& [v, p] : entries_) m += p;
  return m;
}

void SparseDist::Add(uint32_t v, double p) { entries_.emplace_back(v, p); }

void SparseDist::SortAndCombine() {
  std::sort(entries_.begin(), entries_.end());
  size_t w = 0;
  for (size_t r = 0; r < entries_.size(); ++r) {
    if (w > 0 && entries_[w - 1].first == entries_[r].first) {
      entries_[w - 1].second += entries_[r].second;
    } else {
      entries_[w++] = entries_[r];
    }
  }
  entries_.resize(w);
}

SparseDist SparseDist::Mix(const SparseDist& a, double w1, const SparseDist& b,
                           double w2) {
  SparseDist out;
  size_t i = 0, j = 0;
  const auto& ea = a.entries_;
  const auto& eb = b.entries_;
  out.entries_.reserve(ea.size() + eb.size());
  while (i < ea.size() || j < eb.size()) {
    if (j >= eb.size() || (i < ea.size() && ea[i].first < eb[j].first)) {
      out.entries_.emplace_back(ea[i].first, w1 * ea[i].second);
      ++i;
    } else if (i >= ea.size() || eb[j].first < ea[i].first) {
      out.entries_.emplace_back(eb[j].first, w2 * eb[j].second);
      ++j;
    } else {
      out.entries_.emplace_back(ea[i].first,
                                w1 * ea[i].second + w2 * eb[j].second);
      ++i;
      ++j;
    }
  }
  return out;
}

Dcf Dcf::ForTuple(std::vector<uint32_t> value_indices) {
  Dcf out;
  out.weight = 1.0;
  out.dist = SparseDist::FromIndices(std::move(value_indices));
  return out;
}

Dcf Dcf::Merge(const Dcf& a, const Dcf& b) {
  Dcf out;
  out.weight = a.weight + b.weight;
  if (out.weight <= 0.0) return out;
  out.dist = SparseDist::Mix(a.dist, a.weight / out.weight, b.dist,
                             b.weight / out.weight);
  return out;
}

Dcf TupleDcf(const Table& table, size_t row,
             const std::vector<size_t>& attr_columns, ValueSpace* space) {
  std::vector<uint32_t> indices;
  indices.reserve(attr_columns.size());
  for (size_t a = 0; a < attr_columns.size(); ++a) {
    indices.push_back(space->Intern(a, table.ValueAt(row, attr_columns[a])));
  }
  return Dcf::ForTuple(std::move(indices));
}

double InformationLossDistance(const Dcf& a, const Dcf& b,
                               double total_weight) {
  double n = a.weight + b.weight;
  if (n <= 0.0 || total_weight <= 0.0) return 0.0;
  double pi1 = a.weight / n;
  double pi2 = b.weight / n;
  SparseDist mix = SparseDist::Mix(a.dist, pi1, b.dist, pi2);
  // JS = pi1 * KL(p1 || m) + pi2 * KL(p2 || m).
  double js = 0.0;
  for (const auto& [v, p] : a.dist.entries()) {
    if (p <= 0.0) continue;
    js += pi1 * p * Log2(p / mix.At(v));
  }
  for (const auto& [v, p] : b.dist.entries()) {
    if (p <= 0.0) continue;
    js += pi2 * p * Log2(p / mix.At(v));
  }
  if (js < 0.0) js = 0.0;  // guard against rounding
  return (n / total_weight) * js;
}

double MutualInformation(const std::vector<Dcf>& clusters,
                         double total_weight) {
  if (total_weight <= 0.0) return 0.0;
  // Marginal p(v) = sum_c p(c) p(v|c).
  SparseDist marginal;
  for (const Dcf& c : clusters) {
    double pc = c.weight / total_weight;
    for (const auto& [v, p] : c.dist.entries()) marginal.Add(v, pc * p);
  }
  marginal.SortAndCombine();
  // I(C;V) = sum_c p(c) sum_v p(v|c) log2(p(v|c) / p(v)).
  double info = 0.0;
  for (const Dcf& c : clusters) {
    double pc = c.weight / total_weight;
    if (pc <= 0.0) continue;
    for (const auto& [v, p] : c.dist.entries()) {
      if (p <= 0.0) continue;
      info += pc * p * Log2(p / marginal.At(v));
    }
  }
  return info;
}

}  // namespace conquer
