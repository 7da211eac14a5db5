#include "store/sstable.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "../util/temp_dir.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/random.h"
#include "store/format.h"

namespace papyrus::store {
namespace {

using papyrus::testutil::TempDir;

// Builds an SSTable with `n` deterministic sorted entries; returns key→value.
std::map<std::string, std::string> BuildTable(const std::string& dir,
                                              uint64_t ssid, int n,
                                              int tomb_every = 0) {
  std::map<std::string, std::string> data;
  for (int i = 0; i < n; ++i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    data[buf] = PatternValue(static_cast<uint64_t>(i), 40);
  }
  SSTableBuilder builder(dir, ssid, data.size());
  int i = 0;
  for (const auto& [k, v] : data) {
    const bool tomb = tomb_every > 0 && (i % tomb_every) == 0;
    EXPECT_TRUE(builder.Add(k, tomb ? "" : v, tomb ? kFlagTombstone : 0).ok());
    ++i;
  }
  EXPECT_TRUE(builder.Finish().ok());
  return data;
}

class SSTableTest : public ::testing::TestWithParam<SearchMode> {};

TEST_P(SSTableTest, WriteThenGetEveryKey) {
  TempDir tmp;
  auto data = BuildTable(tmp.path(), 1, 500);
  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 1, &reader).ok());
  EXPECT_EQ(reader->count(), 500u);
  for (const auto& [k, v] : data) {
    std::string value;
    bool tomb = true;
    bool found = false;
    ASSERT_TRUE(reader->Get(k, GetParam(), &value, &tomb, &found).ok());
    EXPECT_TRUE(found) << k;
    EXPECT_FALSE(tomb);
    EXPECT_EQ(value, v);
  }
}

TEST_P(SSTableTest, MissingKeysNotFound) {
  TempDir tmp;
  BuildTable(tmp.path(), 1, 100);
  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 1, &reader).ok());
  for (const char* k : {"aaa", "key000050x", "key999999", "zzz"}) {
    std::string value;
    bool tomb;
    bool found = true;
    ASSERT_TRUE(reader->Get(k, GetParam(), &value, &tomb, &found).ok());
    EXPECT_FALSE(found) << k;
  }
}

TEST_P(SSTableTest, TombstonesSurfaceAsFoundDeleted) {
  TempDir tmp;
  BuildTable(tmp.path(), 1, 50, /*tomb_every=*/5);
  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 1, &reader).ok());
  std::string value;
  bool tomb = false;
  bool found = false;
  ASSERT_TRUE(reader->Get("key000000", GetParam(), &value, &tomb, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_TRUE(tomb);
  ASSERT_TRUE(reader->Get("key000001", GetParam(), &value, &tomb, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_FALSE(tomb);
}

INSTANTIATE_TEST_SUITE_P(Modes, SSTableTest,
                         ::testing::Values(SearchMode::kLinear,
                                           SearchMode::kBinary),
                         [](const auto& info) {
                           return info.param == SearchMode::kLinear
                                      ? "Linear"
                                      : "Binary";
                         });

TEST(SSTableFormatTest, ThreeFilesPublished) {
  TempDir tmp;
  BuildTable(tmp.path(), 7, 10);
  EXPECT_TRUE(sim::Storage::FileExists(tmp.path() + "/" + SsDataName(7)));
  EXPECT_TRUE(sim::Storage::FileExists(tmp.path() + "/" + SsIndexName(7)));
  EXPECT_TRUE(sim::Storage::FileExists(tmp.path() + "/" + BloomName(7)));
  // No stray temporaries.
  std::vector<std::string> names;
  ASSERT_TRUE(sim::Storage::ListDir(tmp.path(), &names).ok());
  EXPECT_EQ(names.size(), 3u);
}

TEST(SSTableFormatTest, BuilderRejectsUnsortedKeys) {
  TempDir tmp;
  SSTableBuilder builder(tmp.path(), 1, 10);
  ASSERT_TRUE(builder.Add("b", "v", 0).ok());
  EXPECT_EQ(builder.Add("a", "v", 0).code(), PAPYRUSKV_INVALID_ARG);
  EXPECT_EQ(builder.Add("b", "v", 0).code(), PAPYRUSKV_INVALID_ARG);  // dup
  ASSERT_TRUE(builder.Add("c", "v", 0).ok());
  ASSERT_TRUE(builder.Finish().ok());
}

TEST(SSTableFormatTest, ScannerReadsEveryRecordInOrder) {
  TempDir tmp;
  auto data = BuildTable(tmp.path(), 1, 64);
  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 1, &reader).ok());
  SSTableReader::Scanner scan;
  ASSERT_TRUE(scan.Open(reader).ok());
  EXPECT_EQ(scan.count(), 64u);
  auto it = data.begin();
  while (!scan.done()) {
    ASSERT_NE(it, data.end());
    ASSERT_TRUE(scan.Next().ok());
    EXPECT_EQ(scan.key(), Slice(it->first));
    EXPECT_EQ(scan.value(), Slice(it->second));
    EXPECT_EQ(scan.flags(), 0);
    ++it;
  }
  EXPECT_EQ(it, data.end());
}

TEST(SSTableFormatTest, BloomSkipsAbsentKeys) {
  TempDir tmp;
  BuildTable(tmp.path(), 1, 200);
  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 1, &reader).ok());
  // Every stored key must pass the filter.
  for (int i = 0; i < 200; ++i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    EXPECT_TRUE(reader->MayContain(buf));
  }
  // Most absent keys must be rejected without touching SSData.
  Rng rng(5);
  int pass = 0;
  for (int i = 0; i < 1000; ++i) {
    if (reader->MayContain(RandomKey(rng, 16))) ++pass;
  }
  EXPECT_LT(pass, 100);
}

TEST(SSTableFormatTest, CorruptedRecordDetected) {
  TempDir tmp;
  BuildTable(tmp.path(), 1, 20);
  // Flip a byte inside the first record's value region.
  const std::string data_path = tmp.path() + "/" + SsDataName(1);
  std::string raw;
  ASSERT_TRUE(sim::Storage::ReadFileToString(data_path, &raw).ok());
  raw[kRecordHeaderSize + 12] ^= 0x7f;
  ASSERT_TRUE(sim::Storage::WriteStringToFile(data_path, raw).ok());

  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 1, &reader).ok());
  SSTableReader::Scanner scan;
  ASSERT_TRUE(scan.Open(reader).ok());
  EXPECT_EQ(scan.Next().code(), PAPYRUSKV_CORRUPTED);
  // The bad record is skipped, not retried: the scan goes on with the next.
  ASSERT_TRUE(scan.Next().ok());
  EXPECT_EQ(scan.key(), Slice("key000001"));
}

TEST(SSTableFormatTest, IndexEntryPastEndOfDataRejected) {
  TempDir tmp;
  BuildTable(tmp.path(), 1, 20);
  // A CRC-valid index whose second entry points past the end of SSData;
  // its offset wraps when the record size is added, so it would pass a
  // plain "does the read-ahead buffer cover it" test.
  const std::string idx_path = tmp.path() + "/" + SsIndexName(1);
  std::string raw;
  ASSERT_TRUE(sim::Storage::ReadFileToString(idx_path, &raw).ok());
  EncodeFixed64(raw.data() + 16 + kIndexEntrySize, ~uint64_t{0} - 4);
  EncodeFixed32(raw.data() + raw.size() - 4,
                MaskCrc(Crc32c(raw.data(), raw.size() - 4)));
  ASSERT_TRUE(sim::Storage::WriteStringToFile(idx_path, raw).ok());

  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 1, &reader).ok());
  SSTableReader::Scanner scan;
  ASSERT_TRUE(scan.Open(reader).ok());
  ASSERT_TRUE(scan.Next().ok());
  EXPECT_EQ(scan.Next().code(), PAPYRUSKV_CORRUPTED);
  ASSERT_TRUE(scan.Next().ok());
  EXPECT_EQ(scan.key(), Slice("key000002"));
}

TEST(SSTableFormatTest, CorruptedIndexDetected) {
  TempDir tmp;
  BuildTable(tmp.path(), 1, 20);
  const std::string idx_path = tmp.path() + "/" + SsIndexName(1);
  std::string raw;
  ASSERT_TRUE(sim::Storage::ReadFileToString(idx_path, &raw).ok());
  raw[16] ^= 0x01;
  ASSERT_TRUE(sim::Storage::WriteStringToFile(idx_path, raw).ok());

  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 1, &reader).ok());
  std::string value;
  bool tomb, found;
  EXPECT_EQ(
      reader->Get("key000000", SearchMode::kBinary, &value, &tomb, &found)
          .code(),
      PAPYRUSKV_CORRUPTED);
}

TEST(SSTableFormatTest, FlushMemTableRoundTrip) {
  TempDir tmp;
  MemTable mem(MemTable::Kind::kLocal, 1 << 20);
  Rng rng(30);
  std::map<std::string, std::string> ref;
  for (int i = 0; i < 300; ++i) {
    const std::string k = RandomKey(rng, 16);
    const std::string v = PatternValue(i, 64);
    ref[k] = v;
    mem.Put(k, v, false, 0);
  }
  mem.Seal();
  ASSERT_TRUE(FlushMemTable(tmp.path(), 3, mem).ok());

  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 3, &reader).ok());
  EXPECT_EQ(reader->count(), ref.size());
  for (const auto& [k, v] : ref) {
    std::string value;
    bool tomb, found;
    ASSERT_TRUE(
        reader->Get(k, SearchMode::kBinary, &value, &tomb, &found).ok());
    EXPECT_TRUE(found);
    EXPECT_EQ(value, v);
  }
}

TEST(SSTableFormatTest, EmptyValueAndBinaryKeys) {
  TempDir tmp;
  SSTableBuilder builder(tmp.path(), 1, 4);
  const std::string bin_key1("\x00\x01\x02", 3);
  const std::string bin_key2("\x00\x01\x03\xff", 4);
  ASSERT_TRUE(builder.Add(bin_key1, "", 0).ok());
  ASSERT_TRUE(builder.Add(bin_key2, std::string(3, '\0'), 0).ok());
  ASSERT_TRUE(builder.Finish().ok());

  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(tmp.path(), 1, &reader).ok());
  std::string value;
  bool tomb, found;
  ASSERT_TRUE(reader->Get(bin_key1, SearchMode::kBinary, &value, &tomb,
                          &found).ok());
  EXPECT_TRUE(found);
  EXPECT_TRUE(value.empty());
  ASSERT_TRUE(reader->Get(bin_key2, SearchMode::kLinear, &value, &tomb,
                          &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(value, std::string(3, '\0'));
}

// Builds table `ssid` from `entries` (already in key order), then checks
// that the scanner and both Get modes return every record byte for byte.
void BuildAndReadBack(const std::string& dir, uint64_t ssid,
                      const std::vector<std::pair<std::string, std::string>>&
                          entries) {
  SSTableBuilder builder(dir, ssid, entries.size());
  for (const auto& [k, v] : entries) ASSERT_TRUE(builder.Add(k, v, 0).ok());
  ASSERT_TRUE(builder.Finish().ok());

  SSTablePtr reader;
  ASSERT_TRUE(SSTableReader::Open(dir, ssid, &reader).ok());
  SSTableReader::Scanner scan;
  ASSERT_TRUE(scan.Open(reader).ok());
  ASSERT_EQ(scan.count(), entries.size());
  for (const auto& [k, v] : entries) {
    ASSERT_TRUE(scan.Next().ok()) << k;
    EXPECT_EQ(scan.key(), Slice(k));
    EXPECT_EQ(scan.value(), Slice(v)) << k;
  }
  EXPECT_TRUE(scan.done());
  for (SearchMode mode : {SearchMode::kBinary, SearchMode::kLinear}) {
    for (const auto& [k, v] : entries) {
      std::string value;
      bool tomb = true, found = false;
      ASSERT_TRUE(reader->Get(k, mode, &value, &tomb, &found).ok());
      EXPECT_TRUE(found) << k;
      EXPECT_EQ(value, v) << k;
    }
  }
}

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%05d", i);
  return buf;
}

TEST(SSTableChunkTest, RecordsStraddleChunkBoundaries) {
  TempDir tmp;
  // 1000-byte values: record 64 (1021 B each) spans file offset 64 KB,
  // where the scanner's first read-ahead ends; the builder, which never
  // splits a record, writes it at the start of the second chunk.
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 200; ++i) {
    entries.emplace_back(Key(i), PatternValue(static_cast<uint64_t>(i), 1000));
  }
  BuildAndReadBack(tmp.path(), 1, entries);
  uint64_t size = 0;
  ASSERT_TRUE(
      sim::Storage::GetFileSize(tmp.path() + "/" + SsDataName(1), &size).ok());
  EXPECT_EQ(size, 200u * (kRecordHeaderSize + 8 + 1000));
}

TEST(SSTableChunkTest, ValueLargerThanAChunk) {
  TempDir tmp;
  std::vector<std::pair<std::string, std::string>> entries = {
      {Key(0), "small"},
      {Key(1), PatternValue(1, 3 * kSsDataChunkSize + 123)},
      {Key(2), "after"},
      {Key(3), PatternValue(3, kSsDataChunkSize)},
  };
  BuildAndReadBack(tmp.path(), 1, entries);
}

TEST(SSTableChunkTest, DataExactlyTwoChunksIsWrittenInTwoAppends) {
  TempDir tmp;
  // Its own device, so its write count is this table's alone.
  auto dev = sim::DeviceRegistry::Instance().GetOrCreate(
      tmp.path(), sim::DeviceClass::kDram);
  const uint64_t ops_before = dev->write_ops();
  // 16 records of 13 + 8 + 8171 = 8192 B: exactly 2 x 64 KB of SSData.
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 16; ++i) {
    entries.emplace_back(Key(i),
                         PatternValue(static_cast<uint64_t>(i), 8192 - 21));
  }
  BuildAndReadBack(tmp.path(), 1, entries);
  uint64_t size = 0;
  ASSERT_TRUE(
      sim::Storage::GetFileSize(tmp.path() + "/" + SsDataName(1), &size).ok());
  EXPECT_EQ(size, 2 * kSsDataChunkSize);
  // Two full chunks, no empty tail append; plus the Sync charge and one
  // write each for SSIndex and bloom.
  EXPECT_EQ(dev->write_ops() - ops_before, 2u + 1u + 1u + 1u);
}

TEST(SSTableChunkTest, RecordLargerThanAChunkIsOneWrite) {
  TempDir tmp;
  auto dev = sim::DeviceRegistry::Instance().GetOrCreate(
      tmp.path(), sim::DeviceClass::kDram);
  const uint64_t ops_before = dev->write_ops();
  // Small, 1 MB, small: the pending small record goes out first, then the
  // large record alone, then the tail at Finish().
  std::vector<std::pair<std::string, std::string>> entries = {
      {Key(0), "small"},
      {Key(1), PatternValue(1, 1 << 20)},
      {Key(2), "small"},
  };
  BuildAndReadBack(tmp.path(), 1, entries);
  EXPECT_EQ(dev->write_ops() - ops_before, 3u + 1u + 1u + 1u);
}

TEST(SSTableChunkTest, IndexCountIgnoresExpectedKeys) {
  TempDir tmp;
  const size_t actual = 100;
  uint64_t ssid = 1;
  for (size_t expected : {size_t{0}, size_t{1}, size_t{99}, size_t{101},
                          size_t{5000}}) {
    SSTableBuilder builder(tmp.path(), ssid, expected);
    for (size_t i = 0; i < actual; ++i) {
      ASSERT_TRUE(builder.Add(Key(static_cast<int>(i)), "v", 0).ok());
    }
    EXPECT_EQ(builder.num_entries(), actual);
    ASSERT_TRUE(builder.Finish().ok());

    std::string raw;
    ASSERT_TRUE(sim::Storage::ReadFileToString(
                    tmp.path() + "/" + SsIndexName(ssid), &raw)
                    .ok());
    EXPECT_EQ(raw.size(), 16 + actual * kIndexEntrySize + 4) << expected;
    EXPECT_EQ(DecodeFixed64(raw.data() + 8), actual) << expected;
    SSTablePtr reader;
    ASSERT_TRUE(SSTableReader::Open(tmp.path(), ssid, &reader).ok());
    EXPECT_EQ(reader->count(), actual) << expected;
    ++ssid;
  }
}

}  // namespace
}  // namespace papyrus::store
