#include "store/sstable.h"

#include <algorithm>
#include <cassert>

#include "common/coding.h"
#include "common/crc32.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace papyrus::store {

namespace {

// SSIndex framing around the 17-byte entries: [u32 magic][u32 reserved]
// [u64 count] before them, [u32 crc] after (format.h).
constexpr size_t kSsIndexHeaderSize = 16;
constexpr size_t kSsIndexOverhead = kSsIndexHeaderSize + 4;

}  // namespace

SSTableBuilder::SSTableBuilder(std::string dir, uint64_t ssid,
                               size_t expected_keys, int bloom_bits_per_key)
    : dir_(std::move(dir)),
      ssid_(ssid),
      bloom_(expected_keys, bloom_bits_per_key) {
  open_status_ =
      sim::Storage::NewWritableFile(dir_ + "/" + SsDataName(ssid_) + ".tmp",
                                    &data_file_);
  chunk_.reserve(kSsDataChunkSize);
  index_.reserve(kSsIndexOverhead + expected_keys * kIndexEntrySize);
  PutFixed32(&index_, kSsIndexMagic);
  PutFixed32(&index_, 0);
  PutFixed64(&index_, 0);  // count, patched by Finish()
}

SSTableBuilder::~SSTableBuilder() {
  if (published_) return;
  for (const auto& name :
       {SsDataName(ssid_), SsIndexName(ssid_), BloomName(ssid_)}) {
    // Best effort: a file the failed build never created is already gone.
    (void)sim::Storage::RemoveFile(dir_ + "/" + name + ".tmp");
  }
}

Status SSTableBuilder::FlushChunk() {
  Status s = data_file_->Append(chunk_);
  chunk_.clear();
  return s;
}

Status SSTableBuilder::Add(const Slice& key, const Slice& value,
                           uint8_t flags) {
  if (!open_status_.ok()) return open_status_;
  assert(!finished_);
  if (num_entries_ > 0 && Slice(last_key_).compare(key) >= 0) {
    return Status::InvalidArg("SSTable keys must be strictly ascending");
  }
  last_key_.assign(key.data(), key.size());

  // A record is never split across writes: one that does not fit in what
  // is left of the chunk starts the next chunk, and one larger than a
  // chunk is written on its own, so no record costs more than one write.
  const size_t rec_size = kRecordHeaderSize + key.size() + value.size();
  if (!chunk_.empty() && chunk_.size() + rec_size > kSsDataChunkSize) {
    Status s = FlushChunk();
    if (!s.ok()) return s;
  }

  // Record: [crc][keylen][vallen][flags][key][value], assembled in place;
  // the CRC covers everything after itself.
  const size_t start = chunk_.size();
  PutFixed32(&chunk_, 0);  // crc placeholder
  PutFixed32(&chunk_, static_cast<uint32_t>(key.size()));
  PutFixed32(&chunk_, static_cast<uint32_t>(value.size()));
  chunk_.push_back(static_cast<char>(flags));
  chunk_.append(key.data(), key.size());
  chunk_.append(value.data(), value.size());
  EncodeFixed32(chunk_.data() + start,
                MaskCrc(Crc32c(chunk_.data() + start + 4, rec_size - 4)));

  PutFixed64(&index_, data_offset_);
  PutFixed32(&index_, static_cast<uint32_t>(key.size()));
  PutFixed32(&index_, static_cast<uint32_t>(value.size()));
  index_.push_back(static_cast<char>(flags));
  ++num_entries_;
  bloom_.Add(key);
  data_offset_ += rec_size;

  return chunk_.size() >= kSsDataChunkSize ? FlushChunk() : Status::OK();
}

Status SSTableBuilder::Finish() {
  if (!open_status_.ok()) return open_status_;
  assert(!finished_);
  finished_ = true;

  Status s = chunk_.empty() ? Status::OK() : FlushChunk();
  if (!s.ok()) return s;
  s = data_file_->Sync();
  if (!s.ok()) return s;
  s = data_file_->Close();
  if (!s.ok()) return s;

  // SSIndex.
  EncodeFixed64(index_.data() + 8, num_entries_);
  PutFixed32(&index_, MaskCrc(Crc32c(index_.data(), index_.size())));
  s = sim::Storage::WriteStringToFile(dir_ + "/" + SsIndexName(ssid_) + ".tmp",
                                      index_);
  if (!s.ok()) return s;

  // Bloom.
  s = sim::Storage::WriteStringToFile(dir_ + "/" + BloomName(ssid_) + ".tmp",
                                      bloom_.Serialize());
  if (!s.ok()) return s;

  // Publish atomically: data last, since readers discover tables by the
  // presence of the data file's final name.
  for (const auto& name :
       {SsIndexName(ssid_), BloomName(ssid_), SsDataName(ssid_)}) {
    s = sim::Storage::RenameFile(dir_ + "/" + name + ".tmp",
                                 dir_ + "/" + name);
    if (!s.ok()) return s;
  }
  published_ = true;
  return Status::OK();
}

Status FlushMemTable(const std::string& dir, uint64_t ssid,
                     const MemTable& mem, int bloom_bits_per_key) {
  obs::Registry& reg = obs::Current();
  obs::ScopedLatency lat(&reg.GetHistogram("store.flush_us"));
  obs::TraceSpan span("store", "flush");
  reg.GetCounter("store.flush_bytes").Inc(mem.ApproxBytes());
  reg.GetCounter("store.flush_entries").Inc(mem.Count());
  SSTableBuilder builder(dir, ssid, mem.Count(), bloom_bits_per_key);
  Status result = Status::OK();
  mem.ForEachSorted([&](const Slice& key, const MemTable::Entry& e) {
    if (!result.ok()) return;
    result = builder.Add(key, e.value, e.tombstone ? kFlagTombstone : 0);
  });
  if (!result.ok()) return result;
  return builder.Finish();
}

Status SSTableReader::Open(const std::string& dir, uint64_t ssid,
                           std::shared_ptr<SSTableReader>* out) {
  auto reader = std::shared_ptr<SSTableReader>(new SSTableReader(dir, ssid));

  // Paper order: the bloom filter file is opened first, to decide whether
  // the rest of the table can be skipped.
  std::string bloom_bytes;
  Status s = sim::Storage::ReadFileToString(dir + "/" + BloomName(ssid),
                                            &bloom_bytes);
  if (!s.ok()) return s;
  s = BloomFilter::Parse(bloom_bytes, &reader->bloom_);
  if (!s.ok()) return s;

  s = sim::Storage::NewRandomAccessFile(dir + "/" + SsDataName(ssid),
                                        &reader->data_file_);
  if (!s.ok()) return s;

  *out = std::move(reader);
  return Status::OK();
}

size_t SSTableReader::count() {
  if (!EnsureIndexLoaded().ok()) return 0;
  return NumEntries();
}

size_t SSTableReader::NumEntries() const {
  return (index_.size() - kSsIndexOverhead) / kIndexEntrySize;
}

IndexEntry SSTableReader::EntryAt(size_t i) const {
  const char* p = index_.data() + kSsIndexHeaderSize + i * kIndexEntrySize;
  IndexEntry e;
  e.data_offset = DecodeFixed64(p);
  e.keylen = DecodeFixed32(p + 8);
  e.vallen = DecodeFixed32(p + 12);
  e.flags = static_cast<uint8_t>(p[16]);
  return e;
}

Status SSTableReader::EnsureIndexLoaded() {
  // Fast path: already published (acquire pairs with the release below).
  if (index_ready_.load(std::memory_order_acquire)) return Status::OK();
  MutexLock lock(&index_mu_);
  if (index_ready_.load(std::memory_order_relaxed)) return Status::OK();

  std::string idx;
  Status s = sim::Storage::ReadFileToString(dir_ + "/" + SsIndexName(ssid_),
                                            &idx);
  if (!s.ok()) return s;
  if (idx.size() < kSsIndexOverhead) {
    return Status::Corrupted("ssindex too small");
  }
  const uint32_t stored =
      UnmaskCrc(DecodeFixed32(idx.data() + idx.size() - 4));
  if (Crc32c(idx.data(), idx.size() - 4) != stored) {
    return Status::Corrupted("ssindex crc mismatch");
  }
  if (DecodeFixed32(idx.data()) != kSsIndexMagic) {
    return Status::Corrupted("ssindex bad magic");
  }
  if (idx.size() - kSsIndexOverhead !=
      DecodeFixed64(idx.data() + 8) * kIndexEntrySize) {
    return Status::Corrupted("ssindex size mismatch");
  }
  // analyze:allow-guarded-by: publish-once — index_mu_ serializes only
  // this load; after the release-store below the index_ string is
  // immutable and decoded lock-free, so GUARDED_BY(index_mu_) would
  // misdescribe the protocol.
  index_ = std::move(idx);
  // Publish: readers that acquire-load index_ready_ == true see the
  // complete string; index_ is never written again.
  index_ready_.store(true, std::memory_order_release);
  return Status::OK();
}

Status SSTableReader::ReadRecordAt(const IndexEntry& e, std::string* value) {
  const size_t rec_size = kRecordHeaderSize + e.keylen + e.vallen;
  std::string buf(rec_size, '\0');
  Slice got;
  Status s = data_file_->Read(e.data_offset, rec_size, buf.data(), &got);
  if (!s.ok()) return s;
  if (got.size() != rec_size) return Status::Corrupted("record truncated");
  const uint32_t stored = UnmaskCrc(DecodeFixed32(buf.data()));
  if (Crc32c(buf.data() + 4, rec_size - 4) != stored) {
    return Status::Corrupted("record crc mismatch");
  }
  value->assign(buf.data() + kRecordHeaderSize + e.keylen, e.vallen);
  return Status::OK();
}

Status SSTableReader::ReadKeyAt(const IndexEntry& e, std::string* key) {
  key->resize(e.keylen);
  Slice got;
  Status s = data_file_->Read(e.key_offset(), e.keylen, key->data(), &got);
  if (!s.ok()) return s;
  if (got.size() != e.keylen) return Status::Corrupted("key truncated");
  return Status::OK();
}

Status SSTableReader::Get(const Slice& key, SearchMode mode,
                          std::string* value, bool* tombstone, bool* found) {
  *found = false;
  Status s = EnsureIndexLoaded();
  if (!s.ok()) return s;
  const size_t n = NumEntries();

  if (mode == SearchMode::kLinear) {
    // Sequential scan of SSData in file order, stopping as soon as we pass
    // the sorted position of the key.  Cost: O(n) sequential reads — the
    // disk-era strategy the binary search optimization replaces.
    std::string cur_key;
    for (size_t i = 0; i < n; ++i) {
      const IndexEntry e = EntryAt(i);
      s = ReadKeyAt(e, &cur_key);
      if (!s.ok()) return s;
      const int cmp = Slice(cur_key).compare(key);
      if (cmp == 0) {
        *found = true;
        if (tombstone) *tombstone = e.tombstone();
        return value ? ReadRecordAt(e, value) : Status::OK();
      }
      if (cmp > 0) return Status::OK();  // passed it: absent
    }
    return Status::OK();
  }

  // Binary search over the in-memory index; each probe random-reads one
  // key from SSData — fast on NVM (paper §2.6 "Binary search").
  size_t lo = 0, hi = n;
  std::string probe;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const IndexEntry e = EntryAt(mid);
    s = ReadKeyAt(e, &probe);
    if (!s.ok()) return s;
    const int cmp = Slice(probe).compare(key);
    if (cmp == 0) {
      *found = true;
      if (tombstone) *tombstone = e.tombstone();
      return value ? ReadRecordAt(e, value) : Status::OK();
    }
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return Status::OK();
}

Status SSTableReader::Scanner::Open(std::shared_ptr<SSTableReader> table) {
  Status s = table->EnsureIndexLoaded();
  if (!s.ok()) return s;
  count_ = table->NumEntries();
  pos_ = 0;
  buf_len_ = 0;
  table_ = std::move(table);
  return Status::OK();
}

Status SSTableReader::Scanner::Next() {
  assert(!done());
  const IndexEntry e = table_->EntryAt(pos_++);
  const size_t rec_size = kRecordHeaderSize + e.keylen + e.vallen;
  const uint64_t file_size = table_->data_file_->size();
  if (e.data_offset > file_size || rec_size > file_size - e.data_offset) {
    return Status::Corrupted("index entry past the end of SSData");
  }
  if (e.data_offset < buf_offset_ ||
      e.data_offset + rec_size > buf_offset_ + buf_len_) {
    // Read ahead from this record: one chunk, or the whole record when it
    // is larger than a chunk.
    if (buf_.size() < std::max(kSsDataChunkSize, rec_size)) {
      buf_.resize(std::max(kSsDataChunkSize, rec_size));
    }
    buf_len_ = 0;
    Slice got;
    Status s = table_->data_file_->Read(e.data_offset, buf_.size(),
                                        buf_.data(), &got);
    if (!s.ok()) return s;
    buf_offset_ = e.data_offset;
    buf_len_ = got.size();
    if (buf_len_ < rec_size) return Status::Corrupted("record truncated");
  }
  const char* rec = buf_.data() + (e.data_offset - buf_offset_);
  if (Crc32c(rec + 4, rec_size - 4) != UnmaskCrc(DecodeFixed32(rec))) {
    return Status::Corrupted("record crc mismatch");
  }
  key_ = Slice(rec + kRecordHeaderSize, e.keylen);
  value_ = Slice(rec + kRecordHeaderSize + e.keylen, e.vallen);
  flags_ = e.flags;
  return Status::OK();
}

}  // namespace papyrus::store
