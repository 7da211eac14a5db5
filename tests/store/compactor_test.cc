#include "store/compactor.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "../util/temp_dir.h"
#include "common/random.h"
#include "store/format.h"
#include "store/sstable.h"

namespace papyrus::store {
namespace {

using papyrus::testutil::TempDir;

// Writes a table at manifest.NextSsid() from the given map (values may be
// "" with tombstone=true encoded as value "TOMB").
uint64_t WriteTable(Manifest& m,
                    const std::map<std::string, std::string>& entries) {
  const uint64_t ssid = m.NextSsid();
  SSTableBuilder builder(m.dir(), ssid, entries.size());
  for (const auto& [k, v] : entries) {
    const bool tomb = v == "TOMB";
    EXPECT_TRUE(
        builder.Add(k, tomb ? "" : v, tomb ? kFlagTombstone : 0).ok());
  }
  EXPECT_TRUE(builder.Finish().ok());
  m.AddTable(ssid);
  return ssid;
}

// Full read of a single table into a map, "TOMB" encoding tombstones.
std::map<std::string, std::string> ReadAll(Manifest& m, uint64_t ssid) {
  SSTablePtr reader;
  std::map<std::string, std::string> out;
  SSTableReader::Scanner scan;
  Status s = m.GetReader(ssid, &reader);
  if (s.ok()) s = scan.Open(reader);
  EXPECT_TRUE(s.ok()) << s.ToString();
  while (s.ok() && !scan.done()) {
    EXPECT_TRUE(scan.Next().ok());
    out[scan.key().ToString()] =
        (scan.flags() & kFlagTombstone) ? "TOMB" : scan.value().ToString();
  }
  return out;
}

TEST(CompactorTest, MergeNewestWins) {
  TempDir tmp;
  Manifest m(tmp.path());
  ASSERT_TRUE(m.Open().ok());
  const uint64_t t1 = WriteTable(m, {{"a", "old"}, {"b", "1"}, {"c", "1"}});
  const uint64_t t2 = WriteTable(m, {{"a", "new"}, {"d", "2"}});

  CompactionStats stats;
  ASSERT_TRUE(MergeTables(m, {t1, t2}, /*drop_tombstones=*/true, 10, &stats)
                  .ok());
  EXPECT_EQ(stats.input_tables, 2u);
  EXPECT_EQ(stats.input_entries, 5u);
  EXPECT_EQ(stats.output_entries, 4u);
  EXPECT_EQ(stats.dropped_stale, 1u);

  ASSERT_EQ(m.TableCount(), 1u);
  const auto merged = ReadAll(m, m.LatestSsid());
  EXPECT_EQ(merged.at("a"), "new");
  EXPECT_EQ(merged.at("b"), "1");
  EXPECT_EQ(merged.at("c"), "1");
  EXPECT_EQ(merged.at("d"), "2");
}

TEST(CompactorTest, FullMergePurgesTombstones) {
  TempDir tmp;
  Manifest m(tmp.path());
  ASSERT_TRUE(m.Open().ok());
  const uint64_t t1 = WriteTable(m, {{"a", "v"}, {"b", "v"}});
  const uint64_t t2 = WriteTable(m, {{"a", "TOMB"}});

  CompactionStats stats;
  ASSERT_TRUE(MergeTables(m, {t1, t2}, true, 10, &stats).ok());
  EXPECT_EQ(stats.dropped_tombstones, 1u);
  const auto merged = ReadAll(m, m.LatestSsid());
  EXPECT_EQ(merged.count("a"), 0u) << "tombstone and shadowed value purged";
  EXPECT_EQ(merged.at("b"), "v");
}

TEST(CompactorTest, PartialMergeKeepsTombstones) {
  // If the merge does not cover all tables, tombstones must survive so
  // they keep shadowing older tables.
  TempDir tmp;
  Manifest m(tmp.path());
  ASSERT_TRUE(m.Open().ok());
  WriteTable(m, {{"a", "ancient"}});  // not part of the merge
  const uint64_t t2 = WriteTable(m, {{"a", "TOMB"}});
  const uint64_t t3 = WriteTable(m, {{"b", "v"}});

  ASSERT_TRUE(MergeTables(m, {t2, t3}, /*drop_tombstones=*/false, 10).ok());
  const auto merged = ReadAll(m, m.LatestSsid());
  EXPECT_EQ(merged.at("a"), "TOMB");
  EXPECT_EQ(merged.at("b"), "v");
}

TEST(CompactorTest, MaybeCompactHonorsTrigger) {
  TempDir tmp;
  Manifest m(tmp.path());
  ASSERT_TRUE(m.Open().ok());
  WriteTable(m, {{"a", "1"}});
  WriteTable(m, {{"b", "2"}});
  WriteTable(m, {{"c", "3"}});

  // ssid 3, trigger 4 → no compaction.
  ASSERT_TRUE(MaybeCompact(m, 3, 4, 10).ok());
  EXPECT_EQ(m.TableCount(), 3u);

  const uint64_t t4 = WriteTable(m, {{"d", "4"}});
  ASSERT_EQ(t4, 4u);
  ASSERT_TRUE(MaybeCompact(m, 4, 4, 10).ok());
  EXPECT_EQ(m.TableCount(), 1u);
  const auto merged = ReadAll(m, m.LatestSsid());
  EXPECT_EQ(merged.size(), 4u);

  // Trigger <= 1 disables compaction entirely.
  WriteTable(m, {{"e", "5"}});
  WriteTable(m, {{"f", "6"}});
  ASSERT_TRUE(MaybeCompact(m, 6, 0, 10).ok());
  EXPECT_EQ(m.TableCount(), 3u);
}

TEST(CompactorTest, RandomizedMergeMatchesReferenceModel) {
  Rng rng(77);
  TempDir tmp;
  Manifest m(tmp.path());
  ASSERT_TRUE(m.Open().ok());

  // Generate 5 generations of overlapping updates/deletes; the reference
  // model applies them in ssid order.
  std::map<std::string, std::string> ref;
  std::vector<uint64_t> ssids;
  for (int gen = 0; gen < 5; ++gen) {
    std::map<std::string, std::string> table;
    for (int i = 0; i < 100; ++i) {
      const std::string key = "k" + std::to_string(rng.Uniform(120));
      const bool tomb = rng.Bernoulli(0.2);
      table[key] = tomb ? "TOMB" : PatternValue(rng.Next(), 16);
    }
    ssids.push_back(WriteTable(m, table));
    for (const auto& [k, v] : table) ref[k] = v;
  }
  // Purge tombstones from the reference (full merge drops them).
  for (auto it = ref.begin(); it != ref.end();) {
    it = it->second == "TOMB" ? ref.erase(it) : std::next(it);
  }

  ASSERT_TRUE(MergeTables(m, ssids, true, 10).ok());
  ASSERT_EQ(m.TableCount(), 1u);
  EXPECT_EQ(ReadAll(m, m.LatestSsid()), ref);
}

// Two tables of 1 KB values, each spanning several read-ahead chunks.
std::vector<uint64_t> WriteTwoMultiChunkTables(Manifest& m) {
  std::map<std::string, std::string> older, newer;
  for (int i = 0; i < 200; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "key%05d", i);
    older[key] = PatternValue(static_cast<uint64_t>(i), 1000);
    if (i % 2 == 0) {
      newer[key] = PatternValue(static_cast<uint64_t>(i) + 7, 1000);
    }
  }
  const uint64_t t1 = WriteTable(m, older);
  const uint64_t t2 = WriteTable(m, newer);
  return {t2, t1};
}

// A failed merge must publish nothing, leave no staging file behind, and
// leave every input live and readable.
void ExpectInputsStillLive(Manifest& m, const std::vector<uint64_t>& inputs) {
  EXPECT_EQ(m.LiveSsids(), inputs);
  for (uint64_t ssid : inputs) {
    EXPECT_TRUE(sim::Storage::FileExists(m.dir() + "/" + SsDataName(ssid)));
  }
  std::vector<std::string> names;
  ASSERT_TRUE(sim::Storage::ListDir(m.dir(), &names).ok());
  for (const auto& name : names) {
    EXPECT_FALSE(name.ends_with(".tmp")) << name;
  }
  EXPECT_EQ(ReadAll(m, inputs.back()).size(), 200u);
}

TEST(CompactorTest, CorruptRecordMidChunkFailsMergeAndKeepsInputs) {
  TempDir tmp;
  Manifest m(tmp.path());
  ASSERT_TRUE(m.Open().ok());
  const std::vector<uint64_t> inputs = WriteTwoMultiChunkTables(m);

  // Record 60 of the newer table starts ~61 KB in, past the start of the
  // scanner's first read-ahead chunk and well before its end.
  const size_t rec_size = kRecordHeaderSize + 8 + 1000;
  const std::string path = m.dir() + "/" + SsDataName(inputs[0]);
  std::string raw;
  ASSERT_TRUE(sim::Storage::ReadFileToString(path, &raw).ok());
  raw[60 * rec_size + kRecordHeaderSize + 8 + 500] ^= 0x20;
  ASSERT_TRUE(sim::Storage::WriteStringToFile(path, raw).ok());

  EXPECT_EQ(MergeTables(m, inputs, true, 10).code(), PAPYRUSKV_CORRUPTED);
  ExpectInputsStillLive(m, inputs);
}

TEST(CompactorTest, UnreadableIndexFailsMergeAndKeepsInputs) {
  TempDir tmp;
  Manifest m(tmp.path());
  ASSERT_TRUE(m.Open().ok());
  const std::vector<uint64_t> inputs = WriteTwoMultiChunkTables(m);

  const std::string path = m.dir() + "/" + SsIndexName(inputs[0]);
  std::string raw;
  ASSERT_TRUE(sim::Storage::ReadFileToString(path, &raw).ok());
  raw[20] ^= 0x01;
  ASSERT_TRUE(sim::Storage::WriteStringToFile(path, raw).ok());

  // Not read as an empty table (which would drop its records).
  EXPECT_EQ(MergeTables(m, inputs, true, 10).code(), PAPYRUSKV_CORRUPTED);
  ExpectInputsStillLive(m, inputs);
}

}  // namespace
}  // namespace papyrus::store
