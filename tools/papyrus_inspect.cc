// papyrus_inspect — offline inspection of a PapyrusKV rank directory.
//
//   papyrus_inspect <rank dir>               # catalog: live SSTables
//   papyrus_inspect <rank dir> --ssid=N      # dump one table's records
//   papyrus_inspect <rank dir> --verify      # CRC-check every record
//   papyrus_inspect --stats <stats.json>     # render one stats dump
//   papyrus_inspect --trace-merge <obs dir>  # merge per-rank traces
//   papyrus_inspect --timeline <obs dir>     # merge per-rank time series
//
// Works on any directory produced by the library (a repository's
// <group>/<db>/rank<k>, or a checkpoint's rank<k> snapshot directory) —
// the same recovery scan the zero-copy reopen uses.  The other modes read
// what a run wrote into its PAPYRUSKV_OBS=<dir>.  --stats prints one
// stats JSON (stats.rank<k>.json or the rank-0 aggregate stats.json) as
// tables.  --trace-merge merges every trace.rank<k>.json into one
// Perfetto-loadable <dir>/trace.merged.json (all ranks share one steady
// clock, so events concatenate without rebasing), and prints a per-op
// critical-path table built from the trace/span/parent ids each span
// carries.  --timeline merges every timeline.rank<k>.json, with the
// flight.rank<k>.json events overlaid, into <dir>/timeline.merged.json.
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/timeline.h"
#include "sim/storage.h"
#include "store/format.h"
#include "store/manifest.h"
#include "store/sstable.h"

using namespace papyrus;

namespace {

// Renders bytes printably; non-ASCII as \xNN, truncated with an ellipsis.
std::string Printable(const std::string& s, size_t limit = 48) {
  std::string out;
  for (size_t i = 0; i < s.size() && out.size() < limit; ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c < 0x7f) {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\x%02x", c);
      out += buf;
    }
  }
  if (out.size() >= limit) out += "…";
  return out;
}

int Catalog(store::Manifest& manifest) {
  const auto live = manifest.LiveSsids();
  printf("%zu live SSTable(s), latest SSID %llu\n", live.size(),
         static_cast<unsigned long long>(manifest.LatestSsid()));
  printf("%8s  %10s  %12s  %12s\n", "SSID", "records", "SSData B",
         "SSIndex B");
  for (uint64_t ssid : live) {
    store::SSTablePtr reader;
    Status s = manifest.GetReader(ssid, &reader);
    // Missing/unreadable files report as size 0 in the listing.
    uint64_t data_size = 0, index_size = 0;
    sim::Storage::GetFileSize(
        manifest.dir() + "/" + store::SsDataName(ssid), &data_size)
        .IgnoreError();
    sim::Storage::GetFileSize(
        manifest.dir() + "/" + store::SsIndexName(ssid), &index_size)
        .IgnoreError();
    if (s.ok()) {
      printf("%8llu  %10zu  %12llu  %12llu\n",
             static_cast<unsigned long long>(ssid), reader->count(),
             static_cast<unsigned long long>(data_size),
             static_cast<unsigned long long>(index_size));
    } else {
      printf("%8llu  <unreadable: %s>\n",
             static_cast<unsigned long long>(ssid), s.ToString().c_str());
    }
  }
  return 0;
}

int Dump(store::Manifest& manifest, uint64_t ssid) {
  store::SSTablePtr reader;
  Status s = manifest.GetReader(ssid, &reader);
  if (!s.ok()) {
    fprintf(stderr, "cannot open ssid %llu: %s\n",
            static_cast<unsigned long long>(ssid), s.ToString().c_str());
    return 1;
  }
  printf("SSTable %llu: %zu records\n",
         static_cast<unsigned long long>(ssid), reader->count());
  for (size_t i = 0; i < reader->count(); ++i) {
    std::string key, value;
    uint8_t flags = 0;
    s = reader->ReadEntry(i, &key, &value, &flags);
    if (!s.ok()) {
      printf("%6zu  <error: %s>\n", i, s.ToString().c_str());
      continue;
    }
    printf("%6zu  %s%s = [%zu B] %s\n", i, Printable(key).c_str(),
           (flags & store::kFlagTombstone) ? " (TOMBSTONE)" : "",
           value.size(), Printable(value).c_str());
  }
  return 0;
}

int Verify(store::Manifest& manifest) {
  int bad = 0;
  uint64_t records = 0;
  for (uint64_t ssid : manifest.LiveSsids()) {
    store::SSTablePtr reader;
    Status s = manifest.GetReader(ssid, &reader);
    if (!s.ok()) {
      printf("ssid %llu: OPEN FAILED: %s\n",
             static_cast<unsigned long long>(ssid), s.ToString().c_str());
      ++bad;
      continue;
    }
    std::string prev_key;
    for (size_t i = 0; i < reader->count(); ++i) {
      std::string key, value;
      s = reader->ReadEntry(i, &key, &value, nullptr);
      if (!s.ok()) {
        printf("ssid %llu record %zu: %s\n",
               static_cast<unsigned long long>(ssid), i,
               s.ToString().c_str());
        ++bad;
        continue;
      }
      if (i > 0 && key <= prev_key) {
        printf("ssid %llu record %zu: SORT ORDER VIOLATION\n",
               static_cast<unsigned long long>(ssid), i);
        ++bad;
      }
      prev_key = std::move(key);
      ++records;
    }
  }
  printf("verified %llu record(s), %d problem(s)\n",
         static_cast<unsigned long long>(records), bad);
  return bad == 0 ? 0 : 1;
}

int ShowStats(const std::string& path) {
  std::string text;
  // Stats dumps are host-side files (written with plain stdio), but
  // ReadFileToString works on any readable path.
  Status s = sim::Storage::ReadFileToString(path, &text);
  if (!s.ok()) {
    fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
            s.ToString().c_str());
    return 1;
  }
  obs::Snapshot snap;
  obs::StatsMeta meta;
  if (!obs::ParseStatsJson(text, &snap, &meta)) {
    fprintf(stderr, "%s is not a PapyrusKV stats-v1 dump\n", path.c_str());
    return 1;
  }
  if (meta.aggregated) {
    printf("aggregated stats over %d rank(s)\n", meta.nranks);
  } else {
    printf("stats for rank %d of %d\n", meta.rank, meta.nranks);
  }
  if (!snap.histograms.empty()) {
    // Percentiles re-derived from the parsed log2 buckets (not the dump's
    // precomputed fields), so aggregated dumps get the same treatment; the
    // p99.9/max tail columns are where transients hide.
    printf("\n%-34s %10s %10s %10s %10s %10s %10s %12s\n", "histogram (us)",
           "count", "mean", "p50", "p95", "p99", "p99.9", "max");
    for (const auto& [name, h] : snap.histograms) {
      printf("%-34s %10llu %10.1f %10.1f %10.1f %10.1f %10.1f %12llu\n",
             name.c_str(), static_cast<unsigned long long>(h.count), h.Mean(),
             h.Percentile(50), h.Percentile(95), h.Percentile(99),
             h.Percentile(99.9), static_cast<unsigned long long>(h.max));
    }
  }
  if (!snap.counters.empty()) {
    printf("\n%-42s %16s\n", "counter", "value");
    for (const auto& [name, v] : snap.counters) {
      printf("%-42s %16llu\n", name.c_str(),
             static_cast<unsigned long long>(v));
    }
  }
  if (!snap.gauges.empty()) {
    printf("\n%-42s %16s\n", "gauge", "value");
    for (const auto& [name, v] : snap.gauges) {
      printf("%-42s %16lld\n", name.c_str(), static_cast<long long>(v));
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// --trace-merge
// ---------------------------------------------------------------------------

// One X span pulled out of a per-rank trace file, keyed by the causal ids
// the runtime wrote into its args.
struct MergedSpan {
  std::string name;
  int rank = 0;
  uint64_t ts = 0;
  uint64_t dur = 0;
  std::string span;    // "0x..." ids, compared as strings ("0x0" = none)
  std::string parent;
};

std::string ArgId(const obs::JsonValue& ev, const char* key) {
  const obs::JsonValue* args = ev.Find("args");
  if (!args) return "0x0";
  const obs::JsonValue* id = args->Find(key);
  return id && !id->str.empty() ? id->str : "0x0";
}

// Inserts ".merged" before the extension: trace.json → trace.merged.json.
// Mean-of-column helper for the critical-path table.
struct OpStats {
  uint64_t count = 0;
  double total = 0, queue = 0, service = 0, search = 0;
};

int TraceMerge(const std::string& dir) {
  const std::string base = dir + "/trace.json";
  const std::string out_path = dir + "/trace.merged.json";
  // Collect every per-rank file the run produced (rank files are dense
  // from 0, so the first gap ends the scan).
  std::vector<std::string> texts;
  std::vector<int> ranks;
  for (int r = 0;; ++r) {
    const std::string path = obs::StatsPathForRank(base, r);
    if (!sim::Storage::FileExists(path)) break;
    std::string text;
    Status s = sim::Storage::ReadFileToString(path, &text);
    if (!s.ok()) {
      fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
              s.ToString().c_str());
      return 1;
    }
    texts.push_back(std::move(text));
    ranks.push_back(r);
  }
  if (texts.empty()) {
    fprintf(stderr, "no per-rank traces found (expected %s, ...)\n",
            obs::StatsPathForRank(base, 0).c_str());
    return 1;
  }

  // Merge by splicing each file's traceEvents array verbatim — every event
  // already carries its rank as pid and absolute timestamps.
  std::string merged = "{\"traceEvents\": [";
  bool first = true;
  for (const std::string& text : texts) {
    const size_t lb = text.find('[');
    const size_t rb = text.rfind(']');
    if (lb == std::string::npos || rb == std::string::npos || rb <= lb) {
      fprintf(stderr, "malformed trace file (rank %d)\n",
              ranks[&text - texts.data()]);
      return 1;
    }
    std::string inner = text.substr(lb + 1, rb - lb - 1);
    // Trim whitespace so empty arrays contribute nothing.
    const size_t b = inner.find_first_not_of(" \t\r\n");
    if (b == std::string::npos) continue;
    inner = inner.substr(b, inner.find_last_not_of(" \t\r\n") - b + 1);
    if (!first) merged += ",\n";
    first = false;
    merged += inner;
  }
  merged += "\n]}\n";
  FILE* f = fopen(out_path.c_str(), "w");
  if (!f) {
    fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  const size_t n = fwrite(merged.data(), 1, merged.size(), f);
  fclose(f);
  if (n != merged.size()) {
    fprintf(stderr, "short write to %s\n", out_path.c_str());
    return 1;
  }

  // Critical-path analysis: index every span by id, then walk the caller
  // RPC spans (*.rpc) to their owner-side service span (parent == rpc id)
  // and its queue.wait / search.* children.
  std::vector<MergedSpan> spans;
  for (size_t i = 0; i < texts.size(); ++i) {
    obs::JsonValue v;
    if (!obs::ParseJson(texts[i], &v)) {
      fprintf(stderr, "cannot parse trace file for rank %d\n", ranks[i]);
      return 1;
    }
    const obs::JsonValue* events = v.Find("traceEvents");
    if (!events) continue;
    for (const obs::JsonValue& ev : events->array) {
      const obs::JsonValue* ph = ev.Find("ph");
      if (!ph || ph->str != "X") continue;
      MergedSpan s;
      s.name = ev.Find("name")->str;
      s.rank = ranks[i];
      s.ts = static_cast<uint64_t>(ev.Find("ts")->number);
      s.dur = static_cast<uint64_t>(ev.Find("dur")->number);
      s.span = ArgId(ev, "span");
      s.parent = ArgId(ev, "parent");
      spans.push_back(std::move(s));
    }
  }
  // children[parent span id] = indices into spans.
  std::map<std::string, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != "0x0") children[spans[i].parent].push_back(i);
  }

  std::map<std::string, OpStats> per_op;
  for (const MergedSpan& rpc : spans) {
    const size_t suffix = rpc.name.rfind(".rpc");
    if (suffix == std::string::npos ||
        suffix + 4 != rpc.name.size() || rpc.span == "0x0") {
      continue;
    }
    OpStats& os = per_op[rpc.name.substr(0, suffix)];
    ++os.count;
    os.total += static_cast<double>(rpc.dur);
    auto it = children.find(rpc.span);
    if (it == children.end()) continue;
    for (size_t ci : it->second) {
      const MergedSpan& svc = spans[ci];
      if (svc.name.rfind("handle.", 0) != 0) continue;
      os.service += static_cast<double>(svc.dur);
      auto grand = children.find(svc.span);
      if (grand == children.end()) continue;
      for (size_t gi : grand->second) {
        const MergedSpan& child = spans[gi];
        if (child.name == "queue.wait") {
          os.queue += static_cast<double>(child.dur);
        } else if (child.name.rfind("search.", 0) == 0) {
          os.search += static_cast<double>(child.dur);
        }
      }
    }
  }

  printf("merged %zu rank trace(s), %zu span(s) -> %s\n", texts.size(),
         spans.size(), out_path.c_str());
  if (per_op.empty()) {
    printf("no cross-rank operations recorded (all traffic was local?)\n");
    return 0;
  }
  printf("\nper-op critical path, mean us per request\n");
  printf("%-16s %8s %10s %10s %10s %10s %10s\n", "op", "count", "total",
         "queue", "service", "search", "wire+ack");
  for (const auto& [op, os] : per_op) {
    const double n_ops = static_cast<double>(os.count);
    const double wire = os.total - os.queue - os.service;
    printf("%-16s %8llu %10.1f %10.1f %10.1f %10.1f %10.1f\n", op.c_str(),
           static_cast<unsigned long long>(os.count), os.total / n_ops,
           os.queue / n_ops, os.service / n_ops, os.search / n_ops,
           wire / n_ops);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// --timeline
// ---------------------------------------------------------------------------

// Flight-recorder kinds worth drawing on a throughput timeline: the state
// transitions (crash/promote/degraded/quarantine/suspect/resync) and the
// timeouts that explain a dip — not the per-op begin/end chatter.
bool OverlayKind(const std::string& kind) {
  return kind == "crash" || kind == "promote" || kind == "degraded" ||
         kind == "quarantine" || kind == "suspect" || kind == "timeout" ||
         kind == "repl_resync";
}

int TimelineMode(const std::string& dir) {
  const std::string base = dir + "/timeline.json";
  const std::string out_path = dir + "/timeline.merged.json";
  // Collect every per-rank timeline the run produced (rank files are dense
  // from 0, so the first gap ends the scan).
  std::vector<obs::TimelineDoc> docs;
  for (int r = 0;; ++r) {
    const std::string path = obs::StatsPathForRank(base, r);
    if (!sim::Storage::FileExists(path)) break;
    std::string text;
    Status s = sim::Storage::ReadFileToString(path, &text);
    if (!s.ok()) {
      fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
              s.ToString().c_str());
      return 1;
    }
    obs::TimelineDoc doc;
    if (!obs::ParseTimelineJson(text, &doc)) {
      fprintf(stderr, "%s is not a PapyrusKV timeline-v1 dump\n",
              path.c_str());
      return 1;
    }
    docs.push_back(std::move(doc));
  }
  if (docs.empty()) {
    fprintf(stderr,
            "no per-rank timelines found (expected %s, ...)\n"
            "was the run started with PAPYRUSKV_OBS=<dir> set?\n",
            obs::StatsPathForRank(base, 0).c_str());
    return 1;
  }

  // Flight-event overlay from the same directory.  Absence is fine — the
  // lanes render without annotations.
  const std::string fbase = dir + "/flight.json";
  std::vector<obs::TimelineEvent> events;
  int flight_files = 0;
  for (int r = 0;; ++r) {
    const std::string path = obs::StatsPathForRank(fbase, r);
    if (!sim::Storage::FileExists(path)) break;
    std::string text;
    if (!sim::Storage::ReadFileToString(path, &text).ok()) break;
    std::vector<obs::TimelineEvent> evs;
    if (obs::ParseFlightEvents(text, &evs)) {
      ++flight_files;
      for (obs::TimelineEvent& e : evs) {
        if (OverlayKind(e.kind)) events.push_back(std::move(e));
      }
    }
  }

  const obs::MergedTimeline merged =
      obs::MergeTimelines(docs, std::move(events));
  const std::string json = obs::MergedTimelineToJson(merged);
  FILE* f = fopen(out_path.c_str(), "w");
  if (!f) {
    fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  const size_t n = fwrite(json.data(), 1, json.size(), f);
  fclose(f);
  if (n != json.size()) {
    fprintf(stderr, "short write to %s\n", out_path.c_str());
    return 1;
  }

  printf("merged %zu rank timeline(s), %d flight dump(s) -> %s\n",
         docs.size(), flight_files, out_path.c_str());
  fputs(obs::RenderTimelineTables(merged).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && strcmp(argv[1], "--stats") == 0) {
    return ShowStats(argv[2]);
  }
  if (argc == 3 && strcmp(argv[1], "--timeline") == 0) {
    return TimelineMode(argv[2]);
  }
  if (argc == 3 && strcmp(argv[1], "--trace-merge") == 0) {
    return TraceMerge(argv[2]);
  }
  if (argc < 2 || argv[1][0] == '-') {  // no args, or a mode misused
    fprintf(stderr,
            "usage: %s <rank dir> [--ssid=N | --verify]\n"
            "       %s --stats <stats.json>\n"
            "       %s --trace-merge <obs dir>\n"
            "       %s --timeline <obs dir>\n"
            "  inspects the SSTables of one rank of a PapyrusKV database,\n"
            "  renders a stats dump, or merges the per-rank traces (or\n"
            "  time series, with flight-recorder event overlays) that a\n"
            "  PAPYRUSKV_OBS=<obs dir> run wrote into one file in <obs dir>\n",
            argv[0], argv[0], argv[0], argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  if (!sim::Storage::FileExists(dir)) {
    fprintf(stderr, "no such directory: %s\n", dir.c_str());
    return 2;
  }

  store::Manifest manifest(dir);
  Status s = manifest.Open();
  if (!s.ok()) {
    fprintf(stderr, "cannot open %s: %s\n", dir.c_str(),
            s.ToString().c_str());
    return 1;
  }

  for (int i = 2; i < argc; ++i) {
    if (strncmp(argv[i], "--ssid=", 7) == 0) {
      return Dump(manifest, strtoull(argv[i] + 7, nullptr, 10));
    }
    if (strcmp(argv[i], "--verify") == 0) {
      return Verify(manifest);
    }
    fprintf(stderr, "unknown flag: %s\n", argv[i]);
    return 2;
  }
  return Catalog(manifest);
}
