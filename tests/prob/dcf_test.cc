// Unit tests for the categorical representation, DCF summaries, and the
// information-loss distance (paper Section 4.1).

#include "prob/dcf.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "storage/dictionary.h"

namespace conquer {
namespace {

TEST(ValueSpaceTest, AttributeQualification) {
  // "identical values from different attributes are treated as distinct"
  ValueSpace space;
  uint32_t a = space.Intern(0, Value::String("Mary"));
  uint32_t b = space.Intern(1, Value::String("Mary"));
  uint32_t c = space.Intern(0, Value::String("Mary"));
  EXPECT_NE(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(space.size(), 2u);
}

TEST(ValueSpaceTest, FindReturnsMinusOneForUnknown) {
  ValueSpace space;
  space.Intern(0, Value::String("x"));
  EXPECT_EQ(space.Find(0, Value::String("x")), 0);
  EXPECT_EQ(space.Find(0, Value::String("y")), -1);
  EXPECT_EQ(space.Find(1, Value::String("x")), -1);
}

// The equivalence of V is (attribute, Value::ToString()). Value indices fix
// the order of every distance's sum, so the cases below pin probability
// bits: a change here changes the stored benchmark digests.
TEST(ValueSpaceTest, DoublesAreOneValueWhenTheirSixDigitSpellingsAre) {
  ValueSpace space;
  const uint32_t a = space.Intern(0, Value::Double(123456.78));
  EXPECT_EQ(space.Intern(0, Value::Double(123457.2)), a);  // both "123457"
  EXPECT_NE(space.Intern(0, Value::Double(123456.4)), a);  // "123456"
  EXPECT_NE(space.Intern(0, Value::Double(-0.0)),
            space.Intern(0, Value::Double(0.0)));  // "-0" vs "0"
  EXPECT_EQ(space.Find(0, Value::Double(123457.0)), static_cast<int64_t>(a));
}

TEST(ValueSpaceTest, NullIsTheTextNullInItsAttribute) {
  ValueSpace space;
  const uint32_t null = space.Intern(2, Value::Null());
  EXPECT_EQ(space.Intern(2, Value::String("NULL")), null);
  EXPECT_NE(space.Intern(3, Value::String("NULL")), null);
  EXPECT_NE(space.Intern(2, Value::String("null")), null);
}

TEST(ValueSpaceTest, OwnedAndInternedStringsAreOneValue) {
  StringDictionary dict;
  const Value interned = dict.InternValue("Mary");
  ASSERT_TRUE(interned.is_interned());
  ValueSpace space;
  const uint32_t a = space.Intern(0, interned);
  EXPECT_EQ(space.Find(0, Value::String("Mary")), static_cast<int64_t>(a));
  EXPECT_EQ(space.Intern(0, Value::String("Mary")), a);
  const uint32_t b = space.Intern(1, Value::String("John"));
  EXPECT_EQ(space.Intern(1, dict.InternValue("John")), b);
  EXPECT_EQ(space.Find(1, dict.InternValue("John")), static_cast<int64_t>(b));
  EXPECT_EQ(space.size(), 2u);
}

/// Values whose spellings collide, differ by sign or classify specially:
/// dirty-TPC-H-like prices (six significant digits collapse neighbours),
/// exact half-way points between two six-digit spellings and their
/// neighbours, arbitrary bit patterns (NaNs of both signs with any payload,
/// denormals), infinities, and the other types.
std::vector<Value> SpellingCorpus() {
  std::vector<Value> values = {
      Value::Double(1e-5),     Value::Double(0.0001),
      Value::Double(999999.5), Value::Double(1000000.0),
      Value::Double(1e15),     Value::Double(-2.5e-300),
      Value::Double(5e-324),   Value::Double(std::nan("")),
      Value::Double(-std::nan("")), Value::Double(-0.0),
      Value::Double(0.0),
      Value::Double(-std::numeric_limits<double>::infinity()),
      Value::Double(std::numeric_limits<double>::infinity()),
      Value::Int(-42),         Value::Int(INT64_MIN),
      Value::Date(9131),       Value::Date(-719468),
      Value::Bool(true),       Value::Bool(false),
      Value::String(""),       Value::String("a somewhat longer text value"),
      Value::Null()};
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    // Prices in the range dirty TPC-H orders use, where six significant
    // digits collapse neighbours, and arbitrary bit patterns.
    values.push_back(Value::Double(100.0 + rng.NextDouble() * 400000.0));
    uint64_t bits = rng.Next();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    values.push_back(Value::Double(d));
    values.push_back(Value::Int(rng.Uniform(-50, 50)));
  }
  for (int k = 0; k < 100; ++k) {
    const double half = 100000.5 + 7.0 * k;
    for (double d : {half, std::nextafter(half, 0.0),
                     std::nextafter(half, 1e9), -half}) {
      values.push_back(Value::Double(d));
    }
  }
  return values;
}

// Against a reference keyed on the spelling itself: two values get one
// index exactly when their spellings agree, and a new spelling gets the
// next index (first-intern order).
TEST(ValueSpaceTest, MatchesToStringSpellingsInFirstInternOrder) {
  const std::vector<Value> values = SpellingCorpus();
  ValueSpace space;
  std::map<std::pair<size_t, std::string>, uint32_t> reference;
  for (size_t round = 0; round < 2; ++round) {
    for (size_t i = 0; i < values.size(); ++i) {
      const size_t attribute = i % 3;
      const auto key = std::make_pair(attribute, values[i].ToString());
      auto it = reference.find(key);
      const uint32_t expected =
          it != reference.end() ? it->second
                                : static_cast<uint32_t>(reference.size());
      reference.emplace(key, expected);
      ASSERT_EQ(space.Intern(attribute, values[i]), expected)
          << "attribute " << attribute << " value " << key.second;
    }
  }
  EXPECT_EQ(space.size(), reference.size());
}

// CellElement reads ValueSpace's identity rule off raw cells. With the
// corpus stored in one column per type (NULL cells and, in the STRING
// column, the text 'NULL' beside them), a cell matches an element exactly
// when ValueSpace gives the two cells one index.
TEST(CellElementTest, AgreesWithValueSpaceOverTheSpellingCorpus) {
  std::map<DataType, std::vector<Value>> by_type;
  for (const Value& v : SpellingCorpus()) {
    if (!v.is_null()) by_type[v.type()].push_back(v);
  }
  by_type[DataType::kString].push_back(Value::String("NULL"));
  by_type[DataType::kString].push_back(Value::String("null"));
  for (auto& [type, values] : by_type) {
    SCOPED_TRACE(static_cast<int>(type));
    values.insert(values.begin() + static_cast<ptrdiff_t>(values.size() / 2),
                  Value::Null());
    values.push_back(Value::Null());
    StringDictionary dict;
    const StringDictionary* column_dict =
        type == DataType::kString ? &dict : nullptr;
    ColumnVector column(type);
    for (const Value& v : values) column.Append(v, &dict);
    ValueSpace space;
    std::vector<uint32_t> index;
    for (size_t i = 0; i < column.size(); ++i) {
      index.push_back(space.Intern(0, column.GetValue(i, column_dict)));
    }
    for (size_t i = 0; i < column.size(); ++i) {
      const CellElement element(column, i, column_dict);
      std::vector<size_t> got;
      element.ForEachMatch(column, 0, column.size(),
                           [&](size_t j) { got.push_back(j); });
      std::vector<size_t> want;
      for (size_t j = 0; j < column.size(); ++j) {
        if (index[j] == index[i]) want.push_back(j);
      }
      ASSERT_EQ(got, want) << "cell " << i << ": " << values[i].ToString();
      for (size_t j : {want.front(), want.back(), (i + 1) % column.size()}) {
        ASSERT_EQ(element == CellElement(column, j, column_dict),
                  index[j] == index[i])
            << "cells " << i << " and " << j;
      }
    }
  }
}

TEST(ValueSpaceTest, IndicesFollowFirstInternOrderAcrossAttributes) {
  ValueSpace space;
  EXPECT_EQ(space.Intern(1, Value::Int(7)), 0u);
  EXPECT_EQ(space.Intern(0, Value::Int(7)), 1u);
  EXPECT_EQ(space.Intern(2, Value::String("x")), 2u);
  EXPECT_EQ(space.Intern(1, Value::Int(7)), 0u);
  EXPECT_EQ(space.Intern(0, Value::Date(7)), 3u);
  EXPECT_EQ(space.Intern(0, Value::Int(8)), 4u);
  EXPECT_EQ(space.Intern(2, Value::String("x")), 2u);
  EXPECT_EQ(space.size(), 5u);
}

TEST(SparseDistTest, TupleDistributionIsUniformOverItsValues) {
  SparseDist d = SparseDist::FromIndices({3, 7, 1, 9});
  EXPECT_NEAR(d.At(1), 0.25, 1e-12);
  EXPECT_NEAR(d.At(3), 0.25, 1e-12);
  EXPECT_NEAR(d.At(5), 0.0, 1e-12);
  EXPECT_NEAR(d.Mass(), 1.0, 1e-12);
}

TEST(SparseDistTest, RepeatedIndicesAccumulate) {
  SparseDist d = SparseDist::FromIndices({2, 2, 5, 8});
  EXPECT_NEAR(d.At(2), 0.5, 1e-12);
  EXPECT_NEAR(d.Mass(), 1.0, 1e-12);
}

TEST(SparseDistTest, MixIsWeightedAverage) {
  SparseDist a = SparseDist::FromIndices({0, 1});
  SparseDist b = SparseDist::FromIndices({1, 2});
  SparseDist m = SparseDist::Mix(a, 0.5, b, 0.5);
  EXPECT_NEAR(m.At(0), 0.25, 1e-12);
  EXPECT_NEAR(m.At(1), 0.5, 1e-12);
  EXPECT_NEAR(m.At(2), 0.25, 1e-12);
  EXPECT_NEAR(m.Mass(), 1.0, 1e-12);
}

TEST(DcfTest, MergeFollowsPaperEquations) {
  // |c*| = |c1| + |c2|; p(v|c*) = weighted average.
  Dcf c1 = Dcf::ForTuple({0, 1});
  Dcf c2 = Dcf::ForTuple({1, 2});
  Dcf c3 = Dcf::ForTuple({2, 3});
  Dcf merged = Dcf::Merge(Dcf::Merge(c1, c2), c3);
  EXPECT_NEAR(merged.weight, 3.0, 1e-12);
  EXPECT_NEAR(merged.dist.At(0), 0.5 / 3, 1e-12);
  EXPECT_NEAR(merged.dist.At(1), 1.0 / 3, 1e-12);
  EXPECT_NEAR(merged.dist.At(2), 1.0 / 3, 1e-12);
  EXPECT_NEAR(merged.dist.At(3), 0.5 / 3, 1e-12);
  EXPECT_NEAR(merged.dist.Mass(), 1.0, 1e-12);
}

TEST(DcfTest, MergeIsCommutativeAndAssociativeInDistribution) {
  Dcf a = Dcf::ForTuple({0, 1, 2});
  Dcf b = Dcf::ForTuple({2, 3, 4});
  Dcf c = Dcf::ForTuple({4, 5, 0});
  Dcf ab_c = Dcf::Merge(Dcf::Merge(a, b), c);
  Dcf a_bc = Dcf::Merge(a, Dcf::Merge(b, c));
  ASSERT_NEAR(ab_c.weight, a_bc.weight, 1e-12);
  for (uint32_t v = 0; v <= 5; ++v) {
    EXPECT_NEAR(ab_c.dist.At(v), a_bc.dist.At(v), 1e-12) << "value " << v;
  }
}

TEST(DistanceTest, IdenticalDistributionsHaveZeroDistance) {
  Dcf a = Dcf::ForTuple({0, 1, 2});
  Dcf b = Dcf::ForTuple({0, 1, 2});
  EXPECT_NEAR(InformationLossDistance(a, b, 10.0), 0.0, 1e-12);
}

TEST(DistanceTest, DisjointDistributionsMaximizeDivergence) {
  // JS divergence of disjoint distributions is 1 bit; the distance scales it
  // by (n1+n2)/N = 2/2 = 1.
  Dcf a = Dcf::ForTuple({0, 1});
  Dcf b = Dcf::ForTuple({2, 3});
  EXPECT_NEAR(InformationLossDistance(a, b, 2.0), 1.0, 1e-12);
}

TEST(DistanceTest, SymmetricAndNonNegative) {
  Dcf a = Dcf::ForTuple({0, 1, 2, 3});
  Dcf b = Dcf::ForTuple({2, 3, 4, 5});
  double dab = InformationLossDistance(a, b, 6.0);
  double dba = InformationLossDistance(b, a, 6.0);
  EXPECT_NEAR(dab, dba, 1e-12);
  EXPECT_GT(dab, 0.0);
}

TEST(DistanceTest, ScalesInverselyWithEnsembleSize) {
  Dcf a = Dcf::ForTuple({0, 1});
  Dcf b = Dcf::ForTuple({1, 2});
  double d_small = InformationLossDistance(a, b, 4.0);
  double d_large = InformationLossDistance(a, b, 8.0);
  EXPECT_NEAR(d_small, 2.0 * d_large, 1e-12);
}

// The central identity: d(s1, s2) computed via weighted JS divergence equals
// the direct mutual-information difference I(C;V) - I(C';V) where C' merges
// s1 and s2 within the partition (paper Section 4.1.3).
TEST(DistanceTest, EqualsMutualInformationLoss) {
  std::vector<Dcf> clusters = {
      Dcf::Merge(Dcf::ForTuple({0, 1, 2}), Dcf::ForTuple({0, 1, 3})),
      Dcf::ForTuple({2, 3, 4}),
      Dcf::Merge(Dcf::ForTuple({4, 5, 6}), Dcf::ForTuple({5, 6, 7})),
  };
  double n = 0.0;
  for (const Dcf& c : clusters) n += c.weight;

  for (size_t i = 0; i < clusters.size(); ++i) {
    for (size_t j = i + 1; j < clusters.size(); ++j) {
      std::vector<Dcf> merged;
      for (size_t k = 0; k < clusters.size(); ++k) {
        if (k != i && k != j) merged.push_back(clusters[k]);
      }
      merged.push_back(Dcf::Merge(clusters[i], clusters[j]));
      double direct = MutualInformation(clusters, n) -
                      MutualInformation(merged, n);
      double shortcut = InformationLossDistance(clusters[i], clusters[j], n);
      EXPECT_NEAR(direct, shortcut, 1e-10)
          << "merging clusters " << i << " and " << j;
    }
  }
}

/// The distance as it was computed before the merge walk: the mixture
/// built with SparseDist::Mix and binary-searched per value. The walk must
/// reproduce it bit for bit.
double MixtureReferenceDistance(const Dcf& a, const Dcf& b,
                                double total_weight) {
  const double n = a.weight + b.weight;
  if (n <= 0.0 || total_weight <= 0.0) return 0.0;
  const double pi1 = a.weight / n;
  const double pi2 = b.weight / n;
  const SparseDist mix = SparseDist::Mix(a.dist, pi1, b.dist, pi2);
  double js = 0.0;
  for (const auto& [v, p] : a.dist.entries()) {
    if (p <= 0.0) continue;
    js += pi1 * p * (std::log(p / mix.At(v)) / 0.6931471805599453);
  }
  for (const auto& [v, p] : b.dist.entries()) {
    if (p <= 0.0) continue;
    js += pi2 * p * (std::log(p / mix.At(v)) / 0.6931471805599453);
  }
  if (js < 0.0) js = 0.0;
  return (n / total_weight) * js;
}

TEST(DistanceTest, MergeWalkMatchesMixtureReferenceBitForBit) {
  Rng rng(5);
  auto random_cluster = [&] {
    auto tuple = [&] {
      std::vector<uint32_t> values;
      for (uint32_t a = 0; a < 6; ++a) {
        values.push_back(a * 4 + static_cast<uint32_t>(rng.Uniform(0, 3)));
      }
      return Dcf::ForTuple(values);
    };
    Dcf c = tuple();
    const int64_t k = rng.Uniform(1, 7);
    for (int64_t i = 1; i < k; ++i) c = Dcf::Merge(c, tuple());
    return c;
  };
  for (int i = 0; i < 500; ++i) {
    const Dcf a = random_cluster();
    const Dcf b = random_cluster();
    const double total = a.weight + b.weight + static_cast<double>(i % 3);
    const double got = InformationLossDistance(a, b, total);
    const double want = MixtureReferenceDistance(a, b, total);
    ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << "pair " << i << ": " << got << " vs " << want;
  }
}

TEST(MutualInformationTest, SingleClusterCarriesNoInformation) {
  std::vector<Dcf> one = {
      Dcf::Merge(Dcf::ForTuple({0, 1}), Dcf::ForTuple({2, 3}))};
  EXPECT_NEAR(MutualInformation(one, 2.0), 0.0, 1e-12);
}

TEST(MutualInformationTest, DistinctSingletonsCarryFullEntropy) {
  // Two singleton clusters with disjoint values: I(C;V) = H(C) = 1 bit.
  std::vector<Dcf> two = {Dcf::ForTuple({0, 1}), Dcf::ForTuple({2, 3})};
  EXPECT_NEAR(MutualInformation(two, 2.0), 1.0, 1e-12);
}

}  // namespace
}  // namespace conquer
