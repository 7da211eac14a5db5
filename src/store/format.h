// On-disk formats and naming for the LSM structures.
//
// Per the paper (§2.4): an SSTable consists of three files — SSData (the
// sorted key-value records), SSIndex (offsets and lengths of the keys in
// SSData), and a bloom filter.  Each SSTable carries a per-database,
// per-rank, unique increasing integer SSID starting at one.
//
// SSData record layout (little-endian):
//   [u32 crc][u32 keylen][u32 vallen][u8 flags][key bytes][value bytes]
// crc = CRC-32C over (keylen..value) — i.e. everything after the crc field.
// flags bit 0 = tombstone (paper §2.5: a delete is a put of a zero-length
// value with the tombstone bit set).
//
// SSIndex layout:
//   [u32 magic][u32 reserved][u64 count]
//   count × [u64 data_offset][u32 keylen][u32 vallen][u8 flags]
//   [u32 crc of all of the above]
// The index is small (17 B/record) and loaded fully into memory on first
// use, kept in this encoding (paper §2.6: "PapyrusKV loads the SSIndex in
// memory and searches SSData").
//
// Bloom filter file layout: see bloom.h.
#pragma once

#include <cstdint>
#include <string>

namespace papyrus::store {

inline constexpr uint32_t kSsIndexMagic = 0x50504b49;  // "PPKI"
inline constexpr uint32_t kBloomMagic = 0x50504b42;    // "PPKB"
inline constexpr uint8_t kFlagTombstone = 0x1;

// Fixed header bytes preceding key/value in an SSData record.
inline constexpr size_t kRecordHeaderSize = 4 + 4 + 4 + 1;
// Bytes per SSIndex entry.
inline constexpr size_t kIndexEntrySize = 8 + 4 + 4 + 1;

struct IndexEntry {
  uint64_t data_offset = 0;  // record start within SSData
  uint32_t keylen = 0;
  uint32_t vallen = 0;
  uint8_t flags = 0;

  bool tombstone() const { return (flags & kFlagTombstone) != 0; }
  // Offset of the key bytes (they follow the record header).
  uint64_t key_offset() const { return data_offset + kRecordHeaderSize; }
  uint64_t value_offset() const { return key_offset() + keylen; }
};

// File names within a rank's database directory.
inline std::string SsDataName(uint64_t ssid) {
  return "sst_" + std::to_string(ssid) + ".data";
}
inline std::string SsIndexName(uint64_t ssid) {
  return "sst_" + std::to_string(ssid) + ".index";
}
inline std::string BloomName(uint64_t ssid) {
  return "sst_" + std::to_string(ssid) + ".bloom";
}

}  // namespace papyrus::store
