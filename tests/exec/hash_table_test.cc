// Unit tests for the allocation-free join-key machinery: KeyArena offsets,
// JoinHashTable build/find with duplicate chains, and the
// distinct-key / max-chain statistics the join uses for output pre-sizing.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/hash_table.h"

namespace gsopt::exec {
namespace {

JoinHashTable::Entry MakeEntry(KeyArena* arena, const std::string& key,
                               int64_t row) {
  uint64_t off = arena->Append(key);
  return JoinHashTable::Entry{HashKeyBytes(key), off, row,
                              static_cast<uint32_t>(key.size()), -1};
}

// Follows the duplicate chain from Find() and collects build rows.
std::vector<int64_t> ChainRows(const JoinHashTable& t, const std::string& key,
                               const KeyArena& arena) {
  std::vector<int64_t> rows;
  int32_t e = t.Find(HashKeyBytes(key), key.data(),
                     static_cast<uint32_t>(key.size()), arena);
  for (; e >= 0; e = t.entry(e).next) rows.push_back(t.entry(e).row);
  return rows;
}

TEST(JoinHashTableTest, FindsKeysAndDuplicateChains) {
  KeyArena arena;
  std::vector<JoinHashTable::Entry> entries;
  entries.push_back(MakeEntry(&arena, "i1|", 10));
  entries.push_back(MakeEntry(&arena, "i2|", 20));
  entries.push_back(MakeEntry(&arena, "i1|", 30));  // dup of the first key
  JoinHashTable t;
  t.Build(std::move(entries), arena);

  EXPECT_EQ(t.num_entries(), 3u);
  EXPECT_EQ(t.distinct_keys(), 2u);
  EXPECT_EQ(t.max_chain(), 2u);

  std::vector<int64_t> ones = ChainRows(t, "i1|", arena);
  ASSERT_EQ(ones.size(), 2u);
  // Chain order is last-inserted-first; both build rows must be present.
  EXPECT_EQ(ones[0], 30);
  EXPECT_EQ(ones[1], 10);
  EXPECT_EQ(ChainRows(t, "i2|", arena), std::vector<int64_t>{20});
  EXPECT_TRUE(ChainRows(t, "i3|", arena).empty());
}

TEST(JoinHashTableTest, EmptyTableFindsNothing) {
  KeyArena arena;
  JoinHashTable t;
  t.Build({}, arena);
  EXPECT_EQ(t.num_entries(), 0u);
  EXPECT_TRUE(ChainRows(t, "i1|", arena).empty());
}

TEST(JoinHashTableTest, ManyKeysWithSkew) {
  // 500 distinct keys plus one hot key occurring 100 times: every key must
  // resolve, chains must be complete, and max_chain must see the skew.
  KeyArena arena;
  std::vector<JoinHashTable::Entry> entries;
  int64_t row = 0;
  for (int k = 0; k < 500; ++k) {
    entries.push_back(
        MakeEntry(&arena, "i" + std::to_string(k) + "|", row++));
  }
  for (int d = 0; d < 100; ++d) {
    entries.push_back(MakeEntry(&arena, "hot|", row++));
  }
  JoinHashTable t;
  t.Build(std::move(entries), arena);

  EXPECT_EQ(t.num_entries(), 600u);
  EXPECT_EQ(t.distinct_keys(), 501u);
  EXPECT_EQ(t.max_chain(), 100u);
  for (int k = 0; k < 500; ++k) {
    EXPECT_EQ(ChainRows(t, "i" + std::to_string(k) + "|", arena).size(), 1u)
        << "key " << k;
  }
  EXPECT_EQ(ChainRows(t, "hot|", arena).size(), 100u);
}

TEST(KeyArenaTest, OffsetsAddressAppendedBytes) {
  KeyArena arena;
  uint64_t o1 = arena.Append("abc");
  uint64_t o2 = arena.Append("defg");
  EXPECT_EQ(o1, 0u);
  EXPECT_EQ(o2, 3u);
  EXPECT_EQ(std::string(arena.At(o1), 3), "abc");
  EXPECT_EQ(std::string(arena.At(o2), 4), "defg");
  EXPECT_EQ(arena.size(), 7u);
}

TEST(HashKeyBytesTest, DistinctKeysHashDifferently) {
  // Not a cryptographic property, just a sanity check that FNV-1a sees
  // every byte: permutations and prefixes must not collide here.
  EXPECT_NE(HashKeyBytes("i1|i2|"), HashKeyBytes("i2|i1|"));
  EXPECT_NE(HashKeyBytes("i1|"), HashKeyBytes("i1|i1|"));
  EXPECT_EQ(HashKeyBytes("i1|"), HashKeyBytes(std::string("i1|")));
}

}  // namespace
}  // namespace gsopt::exec
