// SSTable: the immutable on-NVM level of the LSM tree.
//
// Paper §2.4: "An SSTable consists of three files, SSData, SSIndex, and
// bloom filter.  SSData contains the actual key-value pair data ... sorted
// by key.  SSIndex stores the offsets and lengths of keys ... Bloom filter
// is a bit vector ..."  SSTables are written once by the compaction thread
// and never modified; updates and deletes land in newer SSTables (higher
// SSIDs) and win by recency.
//
// §2.6 defines the two search strategies this reader implements:
//   * kLinear — sequential scan of SSData (what a disk-era store would do);
//   * kBinary — binary search over the in-memory SSIndex with random reads
//     of key bytes from SSData, exploiting NVM's fast random access.  This
//     is the paper's "SSTable binary search" optimization (Fig. 8 "B").
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/slice.h"
#include "common/status.h"
#include "sim/storage.h"
#include "store/bloom.h"
#include "store/format.h"
#include "store/memtable.h"

namespace papyrus::store {

enum class SearchMode { kLinear, kBinary };

// Streaming builder: feeds records in ascending key order, then Finish()
// atomically materializes the three files.  Used both by MemTable flush and
// by compaction merges.
class SSTableBuilder {
 public:
  // dir: the rank's database directory; ssid: this table's id;
  // expected_keys sizes the bloom filter.
  SSTableBuilder(std::string dir, uint64_t ssid, size_t expected_keys,
                 int bloom_bits_per_key = 10);

  // Keys must be strictly ascending.  flags: kFlagTombstone or 0.
  Status Add(const Slice& key, const Slice& value, uint8_t flags);
  // Writes SSIndex and bloom files, syncs SSData.  After Finish() the
  // SSTable is visible to readers.
  Status Finish();

  size_t num_entries() const { return index_.size(); }
  uint64_t data_bytes() const { return data_offset_; }

 private:
  std::string dir_;
  uint64_t ssid_;
  std::unique_ptr<sim::WritableFile> data_file_;
  Status open_status_;
  std::vector<IndexEntry> index_;
  BloomFilter bloom_;
  uint64_t data_offset_ = 0;
  std::string last_key_;
  bool finished_ = false;
};

// Convenience: flush a sealed MemTable to SSTable `ssid` in `dir`.
Status FlushMemTable(const std::string& dir, uint64_t ssid,
                     const MemTable& mem, int bloom_bits_per_key = 10);

// Reader.  Open() loads the bloom filter eagerly (the cheap "can we skip
// this table?" probe the paper describes); SSIndex is loaded lazily on the
// first real lookup.  Thread-safe for concurrent Gets.
class SSTableReader {
 public:
  static Status Open(const std::string& dir, uint64_t ssid,
                     std::shared_ptr<SSTableReader>* out);

  uint64_t ssid() const { return ssid_; }
  // Number of records.  Loads the SSIndex on first use (it is lazy so the
  // bloom-only skip path never touches it); returns 0 if the index cannot
  // be read.
  size_t count();

  // Bloom-filter pre-check: false means the key definitely is not here.
  bool MayContain(const Slice& key) const { return bloom_.MayContain(key); }

  // Searches for key.  On hit: *found=true and value/tombstone filled.
  // On miss: *found=false, status OK.
  Status Get(const Slice& key, SearchMode mode, std::string* value,
             bool* tombstone, bool* found);

  // Random access to entry i (compaction / redistribution / checkpoint
  // verification).  Entries are in ascending key order.
  Status ReadEntry(size_t i, std::string* key, std::string* value,
                   uint8_t* flags);

 private:
  SSTableReader(std::string dir, uint64_t ssid)
      : dir_(std::move(dir)), ssid_(ssid) {}

  Status EnsureIndexLoaded();
  // Reads and CRC-verifies the record at index entry i.
  Status ReadRecordAt(const IndexEntry& e, std::string* key,
                      std::string* value);
  // Reads only the key bytes of entry i (a binary-search probe).
  Status ReadKeyAt(const IndexEntry& e, std::string* key);

  std::string dir_;
  uint64_t ssid_;
  BloomFilter bloom_;
  std::unique_ptr<sim::RandomAccessFile> data_file_;

  // Publish-once lazy index.  The hot path (Get/ReadEntry) must not
  // serialize on a lock — simulated NVM reads sleep, so concurrent binary
  // searches have to proceed in parallel.  index_mu_ serializes only the
  // one-time load; on success index_ is populated and index_ready_ is
  // store-released, after which readers acquire-load the flag and read the
  // now-immutable vector with no lock.  A failed load leaves index_ready_
  // false so a later call retries.
  // analyze:allow-unguarded-mutex: serializes the load only; nothing is
  // guarded by it after index_ready_ is published.
  Mutex index_mu_{"sstable_index_mu"};
  std::atomic<bool> index_ready_{false};
  std::vector<IndexEntry> index_;  // immutable once published
};

using SSTablePtr = std::shared_ptr<SSTableReader>;

}  // namespace papyrus::store
