// Store replay for traced runs.  After the ranks have closed the database,
// the run's own key stream is replayed, single-threaded, against the store's
// public classes on the files the run left behind: SSTableReader::Get with
// its bloom pre-check (the owner's tables, newest first, as DbShard searches
// them), BloomFilter::MayContain alone, MemTable::Get, and Crc32c over the
// SSData bytes.  This times the store's pieces without the runtime around
// them.
#include <fstream>

#include "common/crc32.h"
#include "core/layout.h"
#include "harness.h"
#include "store/format.h"
#include "store/manifest.h"
#include "store/memtable.h"
#include "store/sstable.h"

namespace perfbench {

namespace store = papyrus::store;

namespace {

// Results of timed loops land here so the compiler keeps the loops.
volatile uint64_t g_sink = 0;

// Repeats fn until at least 50 ms have passed; returns ns per call of fn.
template <typename Fn>
double TimePerCall(Fn fn) {
  const int64_t t0 = NowNs();
  uint64_t calls = 0;
  int64_t now = t0;
  while (calls == 0 || now - t0 < 50'000'000) {
    fn();
    ++calls;
    now = NowNs();
  }
  return static_cast<double>(now - t0) / static_cast<double>(calls);
}

}  // namespace

ReplayResult ReplayStore(const Job& job) {
  ReplayResult out;
  const auto& stream = job.replay_stream;
  if (stream.empty()) return out;

  papyrus::sim::Topology topo;
  topo.nranks = kRanks;
  topo.ranks_per_node = kRanks;
  const papyrus::core::StorageLayout layout(job.repo_spec, topo, -1);
  std::vector<std::vector<store::SSTablePtr>> tables(kRanks);
  std::vector<std::string> data_files;
  for (int r = 0; r < kRanks; ++r) {
    const std::string dir = layout.RankDir(job.db_name, r);
    std::vector<uint64_t> ssids;  // newest first
    if (!store::Manifest::ListSsids(dir, &ssids).ok()) continue;
    for (uint64_t ssid : ssids) {
      store::SSTablePtr t;
      if (!store::SSTableReader::Open(dir, ssid, &t).ok()) continue;
      tables[static_cast<size_t>(r)].push_back(t);
      data_files.push_back(dir + "/" + store::SsDataName(ssid));
    }
  }

  // SSTable gets through the bloom pre-check, stopping at the first table
  // that holds the key.
  std::string value;
  bool tombstone = false, found = false;
  const int64_t g0 = NowNs();
  for (const auto& [key, owner] : stream) {
    for (const auto& t : tables[static_cast<size_t>(owner)]) {
      if (!t->MayContain(key)) continue;
      if (!t->Get(key, store::SearchMode::kBinary, &value, &tombstone, &found)
               .ok()) {
        break;
      }
      if (found) break;
    }
  }
  out.sstable_get_mean_us =
      (NowNs() - g0) * 1e-3 / static_cast<double>(stream.size());

  // Bloom probes alone: every key against every table of its owner.
  uint64_t probes = 0;
  for (const auto& [key, owner] : stream) {
    probes += tables[static_cast<size_t>(owner)].size();
  }
  if (probes > 0) {
    uint64_t hits = 0;
    out.bloom_probe_ns = TimePerCall([&] {
      for (const auto& [key, owner] : stream) {
        for (const auto& t : tables[static_cast<size_t>(owner)]) {
          hits += t->MayContain(key);
        }
      }
    }) / static_cast<double>(probes);
    g_sink = g_sink + hits;
  }

  // CRC-32C over the run's SSData bytes, one record-sized chunk at a time
  // as the reader verifies them.
  std::string bytes;
  for (const std::string& f : data_files) {
    if (bytes.size() >= (size_t{32} << 20)) break;
    std::ifstream in(f, std::ios::binary);
    bytes.append(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  if (!bytes.empty()) {
    const size_t chunk = store::kRecordHeaderSize + kKeyLen + job.vallen;
    uint32_t crc = 0;
    const double ns = TimePerCall([&] {
      for (size_t off = 0; off < bytes.size(); off += chunk) {
        crc ^= papyrus::Crc32c(bytes.data() + off,
                               std::min(chunk, bytes.size() - off));
      }
    });
    out.crc_mb_per_s = static_cast<double>(bytes.size()) / (ns * 1e-3);
    g_sink = g_sink + crc;
  }

  // MemTable gets of the same stream, on a table holding exactly its keys.
  store::MemTable mem(store::MemTable::Kind::kLocal, size_t{1} << 30);
  std::vector<char> val(job.vallen);
  for (const auto& [key, owner] : stream) {
    MakeValue(key.data(), 1, job.vallen, val.data());
    mem.Put(key, papyrus::Slice(val.data(), val.size()), false, owner);
  }
  uint64_t mem_found = 0;
  out.memtable_get_ns = TimePerCall([&] {
    for (const auto& [key, owner] : stream) {
      mem_found += mem.Get(key, &value, &tombstone);
    }
  }) / static_cast<double>(stream.size());
  g_sink = g_sink + mem_found;
  return out;
}

}  // namespace perfbench
