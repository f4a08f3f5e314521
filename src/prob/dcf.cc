#include "prob/dcf.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <functional>

#include "storage/dictionary.h"

namespace conquer {

namespace {
constexpr double kLog2 = 0.6931471805599453;  // ln(2)

double Log2(double x) { return std::log(x) / kLog2; }

/// Adds pi_x * KL(p_x || m) to `js` term by term in the order of `xs`'
/// entries. `ys` is the other side, walked alongside (both lists are sorted
/// by index), and m(v) = pi_x p_x(v) + pi_y p_y(v) is formed from the same
/// products SparseDist::Mix forms; IEEE addition commutes, so the sum has
/// Mix's bits whichever side `xs` is.
double AddWeightedKl(const std::vector<std::pair<uint32_t, double>>& xs,
                     double pi_x,
                     const std::vector<std::pair<uint32_t, double>>& ys,
                     double pi_y, double js) {
  size_t j = 0;
  for (const auto& [v, p] : xs) {
    if (p <= 0.0) continue;
    while (j < ys.size() && ys[j].first < v) ++j;
    const double m = j < ys.size() && ys[j].first == v
                         ? pi_x * p + pi_y * ys[j].second
                         : pi_x * p;
    js += pi_x * p * Log2(p / m);
  }
  return js;
}

}  // namespace

std::string_view SpellDouble(double d, char (&buf)[32]) {
  // to_chars with a precision spells as printf("%.6g") does, which is
  // Value::ToString's spelling.
  const auto r =
      std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::general, 6);
  return std::string_view(buf, static_cast<size_t>(r.ptr - buf));
}

uint64_t ValueSpace::RawHash(size_t attribute, Kind kind, uint64_t payload) {
  return payload ^ ((static_cast<uint64_t>(attribute) << 2 |
                     static_cast<uint64_t>(kind)) *
                    0x9e3779b97f4a7c15ull);
}

ValueSpace::Probe ValueSpace::MakeProbe(size_t attribute, const Value& v,
                                        char (&buf)[32]) {
  Probe p{attribute, Kind::kText, 0, {}, nullptr, 0};
  switch (v.type()) {
    case DataType::kNull:
      p.text = "NULL";
      break;
    case DataType::kString:
      p.text = v.string_value();
      p.interned = v.interned_ptr();
      break;
    case DataType::kDouble:
      p.text = SpellDouble(v.double_value(), buf);
      break;
    case DataType::kInt64:
      p.kind = Kind::kInt64;
      p.payload = v.int_value();
      break;
    case DataType::kDate:
      p.kind = Kind::kDate;
      p.payload = v.date_value();
      break;
    case DataType::kBool:
      p.kind = Kind::kBool;
      p.payload = v.bool_value() ? 1 : 0;
      break;
  }
  // An interned string carries std::hash of its text, the same hash the
  // string_view of any other text key gets.
  const uint64_t h =
      p.kind != Kind::kText ? static_cast<uint64_t>(p.payload)
      : p.interned != nullptr ? v.Hash()
                              : std::hash<std::string_view>()(p.text);
  p.hash = RawHash(attribute, p.kind, h);
  return p;
}

uint64_t ValueSpace::KeyHash::operator()(const Key& k) const {
  return RawHash(k.attribute, k.kind,
                 k.kind != Kind::kText
                     ? static_cast<uint64_t>(k.payload)
                     : std::hash<std::string_view>()(k.text));
}

bool ValueSpace::KeyEq::operator()(const Key& stored, const Key& k) const {
  return stored.attribute == k.attribute && stored.kind == k.kind &&
         stored.payload == k.payload && stored.text == k.text;
}

bool ValueSpace::KeyEq::operator()(const Key& stored, const Probe& p) const {
  if (stored.attribute != p.attribute || stored.kind != p.kind) return false;
  if (p.kind != Kind::kText) return stored.payload == p.payload;
  return (p.interned != nullptr && p.interned == stored.interned) ||
         stored.text == p.text;
}

uint32_t ValueSpace::Intern(size_t attribute, const Value& v) {
  char buf[32];
  const Probe p = MakeProbe(attribute, v, buf);
  const auto [index, inserted] =
      index_.FindOrInsertHashedAs(p.hash, p, KeyEq(), [&p] {
        return Key{p.attribute, p.kind, p.payload, std::string(p.text),
                   p.interned};
      });
  if (inserted) index_.mutable_entries()[index].value = index;
  return index;
}

int64_t ValueSpace::Find(size_t attribute, const Value& v) const {
  char buf[32];
  const Probe p = MakeProbe(attribute, v, buf);
  const uint32_t* index = index_.FindHashedAs(p.hash, p, KeyEq());
  return index == nullptr ? -1 : static_cast<int64_t>(*index);
}

CellElement::CellElement(const ColumnVector& col, size_t i,
                         const StringDictionary* dict)
    : type_(col.type()) {
  null_ = col.is_null(i);
  switch (type_) {
    case DataType::kString: {
      if (null_) {
        const uint32_t code = dict->Find("NULL");
        key_ = code == StringDictionary::kInvalidCode ? -1 : code;
      } else {
        key_ = col.code_data()[i];
        null_ = *dict->StringAt(col.code_data()[i]) == "NULL";
      }
      break;
    }
    case DataType::kDouble: {
      if (null_) break;
      value_ = col.double_data()[i];
      // Twice the rounding bound, so rounding in the prefilter's own
      // arithmetic (denormals included) never drops a cell.
      tolerance_ = 2e-5 * std::fabs(value_);
      char buf[32];
      const std::string_view text = SpellDouble(value_, buf);
      spelling_size_ = static_cast<uint8_t>(text.size());
      std::copy(text.begin(), text.end(), spelling_);
      break;
    }
    default:
      if (!null_) key_ = col.fixed_data()[i];
      break;
  }
}

bool CellElement::SameSpelling(double x) const {
  char buf[32];
  return SpellDouble(x, buf) == spelling();
}

bool CellElement::operator==(const CellElement& other) const {
  if (null_ != other.null_ || key_ != other.key_) return false;
  return type_ != DataType::kDouble || null_ ||
         spelling() == other.spelling();
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

Dcf Dcf::MergeAll(const std::vector<Dcf>& tuples) {
  if (tuples.size() == 1) return tuples[0];
  Dcf rep = Merge(tuples[0], tuples[1]);
  for (size_t i = 2; i < tuples.size(); ++i) rep = Merge(rep, tuples[i]);
  return rep;
}

std::vector<Dcf> TupleDcfs(const std::vector<uint32_t>& indices,
                           size_t rows) {
  const size_t m = indices.size() / rows;
  std::vector<Dcf> out;
  out.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    const auto first = indices.begin() + static_cast<ptrdiff_t>(r * m);
    out.push_back(Dcf::ForTuple(std::vector<uint32_t>(first, first + m)));
  }
  return out;
}

void InternRow(RowCursor* cursor, size_t row,
               const std::vector<size_t>& attr_columns, ValueSpace* space,
               std::vector<uint32_t>* out) {
  cursor->Touch(row);
  for (size_t a = 0; a < attr_columns.size(); ++a) {
    out->push_back(space->Intern(a, cursor->ValueAt(row, attr_columns[a])));
  }
}

Dcf TupleDcf(RowCursor* cursor, size_t row,
             const std::vector<size_t>& attr_columns, ValueSpace* space) {
  std::vector<uint32_t> indices;
  indices.reserve(attr_columns.size());
  InternRow(cursor, row, attr_columns, space, &indices);
  return Dcf::ForTuple(std::move(indices));
}

double InformationLossDistance(const Dcf& a, const Dcf& b,
                               double total_weight) {
  double n = a.weight + b.weight;
  if (n <= 0.0 || total_weight <= 0.0) return 0.0;
  double pi1 = a.weight / n;
  double pi2 = b.weight / n;
  // JS = pi1 * KL(p1 || m) + pi2 * KL(p2 || m), a's terms first.
  const auto& ea = a.dist.entries();
  const auto& eb = b.dist.entries();
  double js = AddWeightedKl(ea, pi1, eb, pi2, 0.0);
  js = AddWeightedKl(eb, pi2, ea, pi1, js);
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
