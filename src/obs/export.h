// Snapshot export: JSON dumps (also the form ranks exchange for the rank-0
// roll-up, core::RollUpStats) and a small JSON reader so tools and tests
// can consume the dumps without an external parser.
//
// Dump format (stats-v1):
//   {
//     "papyruskv": "stats-v1",
//     "rank": 0, "nranks": 4, "aggregated": false,
//     "counters":   { "kv.puts_local": 123, ... },
//     "gauges":     { "net.flush_queue_depth": 0, ... },
//     "histograms": {
//       "kv.put_us": { "count": N, "sum": S, "min": m, "max": M,
//                      "mean": x, "p50": x, "p95": x, "p99": x,
//                      "buckets": [[upper_bound, count], ...] }, ... }
//   }
// The buckets array carries only non-empty buckets, so a parsed dump can be
// re-merged or re-queried for other percentiles.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace papyrus::obs {

struct StatsMeta {
  int rank = 0;
  int nranks = 1;
  bool aggregated = false;
};

// ---- JSON dump -------------------------------------------------------------

std::string SnapshotToJson(const Snapshot& snap, const StatsMeta& meta);

// Per-rank dump path: inserts ".rank<k>" before a trailing ".json", else
// appends it ("/tmp/stats.json" -> "/tmp/stats.rank3.json").
std::string StatsPathForRank(const std::string& path, int rank);

// Writes `contents` to `path` with plain stdio: the one writer for stats,
// trace and flight dumps, which are host-side diagnostics deliberately
// outside the simulated NVM (and obs stays below sim in the layering).
Status WriteTextFile(const std::string& path, const std::string& contents);

// ---- Minimal JSON reader ---------------------------------------------------

// Just enough JSON to read back our own dumps (and Chrome trace files):
// objects, arrays, strings with escapes, doubles, bools, null.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;  // a string's text, or a number's literal as written
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;

  const JsonValue* Find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

// Parses a complete JSON document (trailing whitespace allowed).
bool ParseJson(const std::string& text, JsonValue* out);

// Parses a stats-v1 dump back into a Snapshot (+ meta), exactly: integers
// are read from their literals.  Fails on anything that is not a stats
// dump.
bool ParseStatsJson(const std::string& text, Snapshot* out, StatsMeta* meta);

}  // namespace papyrus::obs
