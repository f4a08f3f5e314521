#include "common/flat_hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "types/value.h"

namespace conquer {
namespace {

TEST(FlatHashMapTest, InsertFindGrow) {
  FlatHashMap<int64_t, int64_t> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(7), nullptr);

  constexpr int64_t kN = 10000;  // forces many doublings from the default
  for (int64_t i = 0; i < kN; ++i) {
    auto [slot, inserted] = map.TryEmplace(i * 31);
    ASSERT_TRUE(inserted);
    *slot = i;
  }
  EXPECT_EQ(map.size(), static_cast<size_t>(kN));
  // Power-of-two capacity with load factor <= 3/4.
  EXPECT_EQ(map.capacity() & (map.capacity() - 1), 0u);
  EXPECT_GE(map.capacity() * 3, map.size() * 4);

  for (int64_t i = 0; i < kN; ++i) {
    int64_t* v = map.Find(i * 31);
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(map.Find(1), nullptr);  // 1 is not a multiple of 31

  // Duplicate insert finds the existing entry.
  auto [slot, inserted] = map.TryEmplace(0);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*slot, 0);
  EXPECT_EQ(map.size(), static_cast<size_t>(kN));
}

TEST(FlatHashMapTest, ReserveAvoidsRehash) {
  FlatHashMap<int64_t, int64_t> map;
  map.Reserve(1000);
  size_t cap = map.capacity();
  EXPECT_GE(cap * 3, 1000u * 4);  // roomy enough: 1000 entries fit
  for (int64_t i = 0; i < 1000; ++i) *map.TryEmplace(i).first = i;
  EXPECT_EQ(map.capacity(), cap) << "Reserve(1000) must absorb 1000 inserts";
}

/// Adversarial hasher: every key lands on the same raw hash, so every
/// insert extends one linear-probe collision chain.
struct CollidingHash {
  size_t operator()(int64_t) const { return 42; }
};

TEST(FlatHashMapTest, CollisionChainsResolveByKeyEquality) {
  FlatHashMap<int64_t, std::string, CollidingHash> map;
  for (int64_t i = 0; i < 200; ++i) {
    *map.TryEmplace(i).first = "v" + std::to_string(i);
  }
  EXPECT_EQ(map.size(), 200u);
  for (int64_t i = 0; i < 200; ++i) {
    std::string* v = map.Find(i);
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, "v" + std::to_string(i));
  }
  EXPECT_EQ(map.Find(1000), nullptr);  // full-chain miss must terminate
}

TEST(FlatHashMapTest, RehashIsTombstoneFreeAndKeepsInsertionOrder) {
  FlatHashMap<int64_t, int64_t> map;
  for (int64_t i = 0; i < 5000; ++i) *map.TryEmplace(i).first = i * 2;
  // The entry array is dense (size == live entries: nothing dead survives a
  // rehash) and preserves insertion order across all the growth rehashes.
  ASSERT_EQ(map.entries().size(), map.size());
  for (size_t i = 0; i < map.entries().size(); ++i) {
    EXPECT_EQ(map.entries()[i].key, static_cast<int64_t>(i));
    EXPECT_EQ(map.entries()[i].value, static_cast<int64_t>(i) * 2);
  }
}

TEST(FlatHashMapTest, HashedEntryPointsMatchPlainOnes) {
  FlatHashMap<std::string, int64_t> map;
  std::hash<std::string> h;
  *map.TryEmplaceHashed(h("abc"), "abc").first = 1;
  EXPECT_EQ(*map.Find("abc"), 1);
  EXPECT_EQ(*map.FindHashed(h("abc"), "abc"), 1);
  EXPECT_EQ(map.FindHashed(h("zzz"), "zzz"), nullptr);
}

TEST(FlatHashMapTest, FindHashedAsProbesWithAnotherKeyForm) {
  FlatHashMap<std::string, int64_t> map;
  std::hash<std::string_view> h;
  *map.TryEmplaceHashed(h("abc"), "abc").first = 1;
  auto eq = [](const std::string& stored, std::string_view probe) {
    return stored == probe;
  };
  const char buffer[] = "xabcx";
  const std::string_view probe(buffer + 1, 3);
  ASSERT_NE(map.FindHashedAs(h(probe), probe, eq), nullptr);
  EXPECT_EQ(*map.FindHashedAs(h(probe), probe, eq), 1);
  EXPECT_EQ(map.FindHashedAs(h("abd"), std::string_view("abd"), eq), nullptr);
}

TEST(FlatHashMapTest, FindOrInsertHashedAsBuildsKeysOnlyOnMiss) {
  // Keys live in a caller's buffer; the map stores their index into it.
  std::vector<std::string> texts;
  FlatHashMap<uint32_t, int64_t> map;
  std::hash<std::string_view> h;
  int made = 0;
  auto lookup = [&](std::string_view probe) {
    auto eq = [&](uint32_t stored, std::string_view p) {
      return texts[stored] == p;
    };
    auto [index, inserted] = map.FindOrInsertHashedAs(h(probe), probe, eq, [&] {
      ++made;
      texts.emplace_back(probe);
      return static_cast<uint32_t>(texts.size() - 1);
    });
    EXPECT_EQ(map.entries()[index].key, index);  // index == insertion rank
    return std::make_pair(index, inserted);
  };
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 100; ++i) {
      auto [index, inserted] = lookup("k" + std::to_string(i));
      EXPECT_EQ(index, static_cast<uint32_t>(i));
      EXPECT_EQ(inserted, round == 0);
    }
  }
  EXPECT_EQ(made, 100);
  EXPECT_EQ(map.size(), 100u);
}

TEST(FlatHashPartitionTest, HighBitRoutingCoversAllPartitions) {
  constexpr size_t kParts = 32;
  std::vector<int> hits(kParts, 0);
  for (uint64_t i = 0; i < 10000; ++i) {
    size_t p = HashPartition(HashMix(i), kParts);
    ASSERT_LT(p, kParts);
    ++hits[p];
  }
  for (size_t p = 0; p < kParts; ++p) {
    EXPECT_GT(hits[p], 0) << "partition " << p << " never hit";
  }
}

// Regression (satellite): TotalCompare-equal numeric keys must share a
// group. An INT64 1 reaching a DOUBLE column's hash table (e.g. via an
// expression that skipped Table::Insert's widening) hashes like 1.0.
TEST(FlatHashMapTest, ValueKeysCollideAcrossInt64AndDouble) {
  EXPECT_EQ(Value::Int(1).TotalCompare(Value::Double(1.0)), 0);
  EXPECT_EQ(Value::Int(1).Hash(), Value::Double(1.0).Hash());
  EXPECT_EQ(Value::Double(0.0).Hash(), Value::Double(-0.0).Hash());

  FlatHashMap<Value, int64_t, ValueHash> map;
  *map.TryEmplace(Value::Int(1)).first = 10;
  auto [slot, inserted] = map.TryEmplace(Value::Double(1.0));
  EXPECT_FALSE(inserted) << "INT64 1 and DOUBLE 1.0 must land in one group";
  EXPECT_EQ(*slot, 10);
  ASSERT_NE(map.Find(Value::Double(1.0)), nullptr);
  ASSERT_NE(map.Find(Value::Int(1)), nullptr);
  EXPECT_EQ(map.Find(Value::Int(1)), map.Find(Value::Double(1.0)));
}

}  // namespace
}  // namespace conquer
