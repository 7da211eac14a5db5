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

// SSData is written and scanned in chunks of this size: the builder makes
// one WritableFile::Append per full chunk (a record larger than a chunk is
// one write of its own), the scanner one pread per chunk.
inline constexpr size_t kSsDataChunkSize = 64 * 1024;

// Streaming builder: feeds records in ascending key order, then Finish()
// atomically materializes the three files.  Used both by MemTable flush and
// by compaction merges.
class SSTableBuilder {
 public:
  // dir: the rank's database directory; ssid: this table's id;
  // expected_keys sizes the bloom filter and the in-memory SSIndex.
  SSTableBuilder(std::string dir, uint64_t ssid, size_t expected_keys,
                 int bloom_bits_per_key = 10);
  // Removes the staging (.tmp) files unless Finish() published the table,
  // so a failed or abandoned build leaves nothing behind.
  ~SSTableBuilder();
  SSTableBuilder(const SSTableBuilder&) = delete;
  SSTableBuilder& operator=(const SSTableBuilder&) = delete;

  // Keys must be strictly ascending.  flags: kFlagTombstone or 0.
  Status Add(const Slice& key, const Slice& value, uint8_t flags);
  // Writes the last chunk, syncs SSData, writes SSIndex and bloom files.
  // After Finish() the SSTable is visible to readers.
  Status Finish();

  size_t num_entries() const { return num_entries_; }
  uint64_t data_bytes() const { return data_offset_; }

 private:
  // Appends chunk_ to SSData and empties it.
  Status FlushChunk();

  std::string dir_;
  uint64_t ssid_;
  std::unique_ptr<sim::WritableFile> data_file_;
  Status open_status_;
  // Whole records not yet appended to SSData; fewer than
  // kSsDataChunkSize bytes between Add() calls.
  std::string chunk_;
  // The SSIndex file as built so far, in its on-disk encoding; Finish()
  // patches the count into the header and appends the CRC.
  std::string index_;
  size_t num_entries_ = 0;
  BloomFilter bloom_;
  uint64_t data_offset_ = 0;
  std::string last_key_;
  bool finished_ = false;
  bool published_ = false;  // Finish() renamed every file into place
};

// Convenience: flush a sealed MemTable to SSTable `ssid` in `dir`.
Status FlushMemTable(const std::string& dir, uint64_t ssid,
                     const MemTable& mem, int bloom_bits_per_key = 10);

// Reader.  Open() loads the bloom filter eagerly (the cheap "can we skip
// this table?" probe the paper describes); SSIndex is loaded lazily on the
// first real lookup.  Thread-safe for concurrent Gets.
class SSTableReader {
 public:
  class Scanner;

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

 private:
  SSTableReader(std::string dir, uint64_t ssid)
      : dir_(std::move(dir)), ssid_(ssid) {}

  Status EnsureIndexLoaded();
  // Valid only after EnsureIndexLoaded() succeeded.
  size_t NumEntries() const;
  IndexEntry EntryAt(size_t i) const;
  // Reads and CRC-verifies the record at index entry i.
  Status ReadRecordAt(const IndexEntry& e, std::string* value);
  // Reads only the key bytes of entry i (a binary-search probe).
  Status ReadKeyAt(const IndexEntry& e, std::string* key);

  std::string dir_;
  uint64_t ssid_;
  BloomFilter bloom_;
  std::unique_ptr<sim::RandomAccessFile> data_file_;

  // Publish-once lazy index.  The hot path (Get, Scanner) must not
  // serialize on a lock — simulated NVM reads sleep, so concurrent binary
  // searches have to proceed in parallel.  index_mu_ serializes only the
  // one-time load; on success index_ holds the SSIndex file's bytes and
  // index_ready_ is store-released, after which readers acquire-load the
  // flag and decode entries from the now-immutable string with no lock.  A
  // failed load leaves index_ready_ false so a later call retries.
  // analyze:allow-unguarded-mutex: serializes the load only; nothing is
  // guarded by it after index_ready_ is published.
  Mutex index_mu_{"sstable_index_mu"};
  std::atomic<bool> index_ready_{false};
  std::string index_;  // CRC-verified SSIndex bytes; immutable once published
};

// Sequential reader over every record of one table, in key order: the
// full-table scans (compaction, restart replay, papyrus_inspect).  Reads
// SSData ahead in kSsDataChunkSize preads and CRC-checks every record.
//   SSTableReader::Scanner scan;
//   Status s = scan.Open(table);
//   while (s.ok() && !scan.done()) { s = scan.Next(); ...scan.key()... }
class SSTableReader::Scanner {
 public:
  // Loads the table's SSIndex; fails if it is unreadable or corrupt.
  Status Open(std::shared_ptr<SSTableReader> table);

  size_t count() const { return count_; }
  bool done() const { return pos_ >= count_; }
  // Ordinal of the record the next Next() reads.
  size_t pos() const { return pos_; }
  // Reads record pos() and moves past it, whether or not it verifies, so a
  // caller may report a bad record and go on.  Requires !done().
  Status Next();

  // The record the last successful Next() read.  key() and value() view
  // the read-ahead buffer: they stay valid until this scanner's next
  // Next().
  Slice key() const { return key_; }
  Slice value() const { return value_; }
  uint8_t flags() const { return flags_; }

 private:
  std::shared_ptr<SSTableReader> table_;
  size_t count_ = 0;
  size_t pos_ = 0;
  // buf_[0, buf_len_) holds SSData bytes from file offset buf_offset_.
  std::string buf_;
  size_t buf_len_ = 0;
  uint64_t buf_offset_ = 0;
  Slice key_, value_;
  uint8_t flags_ = 0;
};

using SSTablePtr = std::shared_ptr<SSTableReader>;

}  // namespace papyrus::store
