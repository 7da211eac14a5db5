#include "store/memtable.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "common/random.h"

namespace papyrus::store {
namespace {

TEST(MemTableTest, PutGetBasic) {
  MemTable mem(MemTable::Kind::kLocal, 1 << 20);
  EXPECT_TRUE(mem.Put("k1", "v1", false, 0));
  std::string value;
  bool tomb = true;
  EXPECT_TRUE(mem.Get("k1", &value, &tomb));
  EXPECT_EQ(value, "v1");
  EXPECT_FALSE(tomb);
  EXPECT_FALSE(mem.Get("absent", &value, &tomb));
  EXPECT_EQ(mem.Count(), 1u);
}

TEST(MemTableTest, ReplaceKeepsSingleEntry) {
  MemTable mem(MemTable::Kind::kLocal, 1 << 20);
  mem.Put("k", "old", false, 0);
  const size_t bytes_one = mem.ApproxBytes();
  mem.Put("k", "newvalue", false, 0);
  EXPECT_EQ(mem.Count(), 1u);
  std::string value;
  bool tomb;
  EXPECT_TRUE(mem.Get("k", &value, &tomb));
  EXPECT_EQ(value, "newvalue");
  // Byte accounting replaced, not accumulated.
  EXPECT_LT(mem.ApproxBytes(), bytes_one * 2);
}

TEST(MemTableTest, TombstoneIsPresence) {
  // §2.5: a delete is a zero-length put with the tombstone bit — the entry
  // must be *found* (so the search stops) but flagged deleted.
  MemTable mem(MemTable::Kind::kLocal, 1 << 20);
  mem.Put("k", "v", false, 0);
  mem.Put("k", "", true, 0);
  std::string value;
  bool tomb = false;
  ASSERT_TRUE(mem.Get("k", &value, &tomb));
  EXPECT_TRUE(tomb);
  EXPECT_TRUE(value.empty());
}

TEST(MemTableTest, OwnerTrackedForRemoteTables) {
  MemTable mem(MemTable::Kind::kRemote, 1 << 20);
  mem.Put("a", "1", false, 3);
  mem.Put("b", "2", false, 7);
  std::string value;
  bool tomb;
  int owner = -1;
  ASSERT_TRUE(mem.Get("a", &value, &tomb, &owner));
  EXPECT_EQ(owner, 3);
  ASSERT_TRUE(mem.Get("b", &value, &tomb, &owner));
  EXPECT_EQ(owner, 7);
}

TEST(MemTableTest, FullAfterCapacity) {
  MemTable mem(MemTable::Kind::kLocal, 1024);
  EXPECT_FALSE(mem.Full());
  int i = 0;
  while (!mem.Full()) {
    mem.Put("key" + std::to_string(i), std::string(100, 'v'), false, 0);
    ++i;
  }
  EXPECT_GE(mem.ApproxBytes(), 1024u);
  EXPECT_LT(i, 100);  // threshold actually limited growth
}

TEST(MemTableTest, SealedRejectsPuts) {
  MemTable mem(MemTable::Kind::kLocal, 1 << 20);
  mem.Put("k", "v", false, 0);
  EXPECT_FALSE(mem.sealed());
  mem.Seal();
  EXPECT_TRUE(mem.sealed());
  EXPECT_FALSE(mem.Put("k2", "v2", false, 0));
  // Reads still served.
  std::string value;
  bool tomb;
  EXPECT_TRUE(mem.Get("k", &value, &tomb));
}

TEST(MemTableTest, ForEachSortedIsKeyOrdered) {
  MemTable mem(MemTable::Kind::kLocal, 1 << 20);
  Rng rng(20);
  for (int i = 0; i < 200; ++i) {
    mem.Put(RandomKey(rng, 16), "v", false, 0);
  }
  mem.Seal();
  std::string prev;
  size_t n = 0;
  mem.ForEachSorted([&](const Slice& key, const MemTable::Entry&) {
    if (n > 0) {
      EXPECT_LT(Slice(prev).compare(key), 0);
    }
    prev = key.ToString();
    ++n;
  });
  EXPECT_EQ(n, mem.Count());
}

TEST(MemTableTest, ConcurrentReadersAndWriter) {
  MemTable mem(MemTable::Kind::kLocal, 64 << 20);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 5000; ++i) {
      mem.Put("key" + std::to_string(i % 100), std::to_string(i), false, 0);
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::string value;
      bool tomb;
      while (!stop.load()) {
        for (int i = 0; i < 100; ++i) {
          if (mem.Get("key" + std::to_string(i), &value, &tomb)) {
            EXPECT_FALSE(value.empty());
          }
        }
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(mem.Count(), 100u);
}

// Randomized differential test against a std::map model ordered by
// Slice::compare — the order SSTableBuilder::Add demands of a flush.  Keys
// come from a tiny alphabet (shared prefixes, keys that prefix one another,
// NUL and bytes >= 0x80) so overwrites and order corner cases are common.
class MemTableModelTest : public ::testing::TestWithParam<uint64_t> {};

struct BySliceOrder {
  bool operator()(const std::string& a, const std::string& b) const {
    return Slice(a).compare(b) < 0;
  }
};

struct ModelEntry {
  std::string value;
  bool tombstone;
  int owner;
};

TEST_P(MemTableModelTest, MatchesStdMapUnderRandomOps) {
  Rng rng(GetParam());
  const std::string prefixes[] = {"", "k", "k\x80", "\xff\x01"};
  const char alphabet[] = {'a', 'b', '\0', '\x7f', '\x80', '\xff'};
  auto random_key = [&] {
    std::string key = prefixes[rng.Uniform(4)];
    const size_t extra = rng.Uniform(4);
    for (size_t i = 0; i < extra; ++i) key += alphabet[rng.Uniform(6)];
    return key;
  };

  MemTable mem(MemTable::Kind::kRemote, 64 << 20);
  std::map<std::string, ModelEntry, BySliceOrder> model;
  constexpr int kOps = 4000;
  for (int i = 0; i < kOps; ++i) {
    const std::string key = random_key();
    if (rng.Uniform(3) != 0) {
      const bool tomb = rng.Uniform(5) == 0;
      const std::string value = tomb ? "" : RandomKey(rng, rng.Uniform(40));
      const int owner = static_cast<int>(rng.Uniform(8));
      ASSERT_TRUE(mem.Put(key, value, tomb, owner));
      model[key] = {value, tomb, owner};
    } else {
      std::string value;
      bool tomb = false;
      int owner = -1;
      auto it = model.find(key);
      ASSERT_EQ(mem.Get(key, &value, &tomb, &owner), it != model.end());
      if (it != model.end()) {
        EXPECT_EQ(value, it->second.value);
        EXPECT_EQ(tomb, it->second.tombstone);
        EXPECT_EQ(owner, it->second.owner);
      }
    }
  }

  size_t want_bytes = 0;
  for (const auto& [k, e] : model) {
    want_bytes += k.size() + e.value.size() + sizeof(MemTable::Entry);
  }
  EXPECT_EQ(mem.Count(), model.size());
  EXPECT_EQ(mem.ApproxBytes(), want_bytes);

  mem.Seal();
  auto want = model.begin();
  mem.ForEachSorted([&](const Slice& key, const MemTable::Entry& e) {
    ASSERT_NE(want, model.end());
    EXPECT_EQ(key.ToString(), want->first);
    EXPECT_EQ(e.value, want->second.value);
    EXPECT_EQ(e.tombstone, want->second.tombstone);
    EXPECT_EQ(e.owner, want->second.owner);
    ++want;
  });
  EXPECT_EQ(want, model.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemTableModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace papyrus::store
