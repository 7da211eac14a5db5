#include "store/compactor.h"

#include <queue>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/format.h"
#include "store/sstable.h"

namespace papyrus::store {

namespace {

// A sequential cursor over one input table.  key()/value() view the
// scanner's read-ahead buffer, so a cursor's record stays valid while it
// sits in the heap and is copied only into the output chunk.
struct Cursor {
  uint64_t ssid = 0;
  SSTableReader::Scanner scan;
};

// Heap order: smallest key first; among equal keys, highest SSID first so
// the newest version pops first and older ones are skipped.
struct HeapCmp {
  bool operator()(const Cursor* a, const Cursor* b) const {
    const int c = a->scan.key().compare(b->scan.key());
    if (c != 0) return c > 0;
    return a->ssid < b->ssid;
  }
};

}  // namespace

Status MergeTables(Manifest& manifest,
                   const std::vector<uint64_t>& input_ssids,
                   bool drop_tombstones, int bloom_bits_per_key,
                   CompactionStats* stats) {
  obs::Registry& reg = obs::Current();
  obs::ScopedLatency lat(&reg.GetHistogram("store.compaction_us"));
  obs::TraceSpan span("store", "compaction");
  uint64_t read_bytes = 0, written_bytes = 0;

  CompactionStats local;
  local.input_tables = input_ssids.size();

  // Opening a scanner loads and CRC-checks the table's SSIndex, so an
  // unreadable index fails the merge instead of reading as an empty table.
  std::vector<Cursor> cursors(input_ssids.size());
  size_t expected = 0;
  for (size_t i = 0; i < input_ssids.size(); ++i) {
    SSTablePtr table;
    Status s = manifest.GetReader(input_ssids[i], &table);
    if (s.ok()) s = cursors[i].scan.Open(std::move(table));
    if (!s.ok()) return s;
    cursors[i].ssid = input_ssids[i];
    expected += cursors[i].scan.count();
  }
  local.input_entries = expected;

  std::priority_queue<Cursor*, std::vector<Cursor*>, HeapCmp> heap;
  for (auto& c : cursors) {
    if (c.scan.done()) continue;
    Status s = c.scan.Next();
    if (!s.ok()) return s;
    heap.push(&c);
  }

  const uint64_t out_ssid = manifest.NextSsid();
  SSTableBuilder builder(manifest.dir(), out_ssid, expected,
                         bloom_bits_per_key);

  std::string last_emitted_key;
  bool any_emitted = false;
  while (!heap.empty()) {
    Cursor* c = heap.top();
    heap.pop();
    const Slice key = c->scan.key();
    const Slice value = c->scan.value();
    const uint8_t flags = c->scan.flags();

    const bool duplicate = any_emitted && key == Slice(last_emitted_key);
    read_bytes += key.size() + value.size();
    if (duplicate) {
      ++local.dropped_stale;
    } else if (drop_tombstones && (flags & kFlagTombstone)) {
      ++local.dropped_tombstones;
      // Still record the key so older versions of it are dropped as stale.
      last_emitted_key.assign(key.data(), key.size());
      any_emitted = true;
    } else {
      Status s = builder.Add(key, value, flags);
      if (!s.ok()) return s;
      last_emitted_key.assign(key.data(), key.size());
      any_emitted = true;
      ++local.output_entries;
      written_bytes += key.size() + value.size();
    }

    if (!c->scan.done()) {
      Status s = c->scan.Next();
      if (!s.ok()) return s;
      heap.push(c);
    }
  }

  Status s = builder.Finish();
  if (!s.ok()) return s;
  s = manifest.ReplaceTables(input_ssids, {out_ssid});
  if (!s.ok()) return s;
  reg.GetCounter("store.compaction_read_bytes").Inc(read_bytes);
  reg.GetCounter("store.compaction_written_bytes").Inc(written_bytes);
  reg.GetCounter("store.compaction_dropped_entries")
      .Inc(local.dropped_stale + local.dropped_tombstones);
  if (stats) *stats = local;
  return Status::OK();
}

Status MaybeCompact(Manifest& manifest, uint64_t new_ssid, uint64_t trigger,
                    int bloom_bits_per_key, CompactionStats* stats) {
  if (trigger <= 1 || new_ssid % trigger != 0) return Status::OK();
  std::vector<uint64_t> live = manifest.LiveSsids();  // descending
  if (live.size() < 2) return Status::OK();
  // Full-set merge: tombstones can be purged.
  return MergeTables(manifest, live, /*drop_tombstones=*/true,
                     bloom_bits_per_key, stats);
}

}  // namespace papyrus::store
