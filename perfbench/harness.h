// Shared pieces of the benchmark program: seeded inputs, the value encoding
// every get is checked against, latency samples, spans, and the records the
// emulated ranks fill in.
//
// Inputs come only from the --seed argument and this file's generators (not
// from the store's own common/random.h), so a change to the program can never
// change what the benchmark asks of it.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/papyruskv.h"
#include "net/runtime.h"
#include "obs/metrics.h"

namespace perfbench {

namespace obs = papyrus::obs;
using papyrus::ErrorName;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Seeded generators -----------------------------------------------------

// splitmix64 finalizer: a bijection on 64-bit words.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(Mix64(seed)) {}
  uint64_t Next() { return Mix64(s_++); }
  // Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  double NextDouble() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t s_;
};

// Zipfian ranks in [0, n) with skew theta (Gray et al., as in YCSB): rank 0
// is the hottest.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    double zetan = 0;
    for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(double(i), theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan);
  }
  uint64_t Next(Rng& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const uint64_t r = static_cast<uint64_t>(
        double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
  }

 private:
  uint64_t n_;
  double theta_, zetan_ = 0, alpha_ = 0, eta_ = 0;
};

// ---- Keys and values -------------------------------------------------------

constexpr size_t kKeyLen = 16;  // the paper's key size

// Key `index` of the seed's key space: 16 lowercase hex digits of a
// bijection of the index, so distinct indices give distinct keys.
inline void MakeKey(uint64_t seed, uint64_t index, char* out) {
  static const char kHex[] = "0123456789abcdef";
  uint64_t h = Mix64(index ^ Mix64(seed ^ 0x6b65797370616365ull));
  for (int i = 15; i >= 0; --i, h >>= 4) out[i] = kHex[h & 15];
}

// A flat table of the first n keys.
class KeyTable {
 public:
  KeyTable() = default;
  KeyTable(uint64_t seed, uint64_t n) : n_(n), bytes_(n * kKeyLen) {
    for (uint64_t i = 0; i < n; ++i) MakeKey(seed, i, &bytes_[i * kKeyLen]);
  }
  const char* operator[](uint64_t i) const { return &bytes_[i * kKeyLen]; }
  uint64_t size() const { return n_; }

 private:
  uint64_t n_ = 0;
  std::vector<char> bytes_;
};

// Value layout: the key (16 B), the version (8 hex digits), then filler
// derived from both.  A get is then checked byte for byte, and the version
// it returned can be read back out of it.
constexpr size_t kMinValueLen = kKeyLen + 8;

void MakeValue(const char* key, uint32_t version, size_t vallen, char* out);

// Checks a returned value against key and a version window [lo, hi].
// Returns "" when it matches, else what is wrong.
std::string CheckValue(const char* key, const char* got, size_t got_len,
                       size_t vallen, uint32_t lo, uint32_t hi);

// ---- Samples and spans -----------------------------------------------------

class Samples {
 public:
  void Add(int64_t ns) { us_.push_back(static_cast<float>(ns * 1e-3)); }
  void Append(const Samples& o) {
    us_.insert(us_.end(), o.us_.begin(), o.us_.end());
  }
  size_t size() const { return us_.size(); }
  double Mean() const;
  // Mean of the samples at or below the p99: the body of the distribution,
  // steady under the rare stall that read_p99/write_p99 report anyway.
  double TrimmedMean() const;
  double Percentile(double p) const;  // p in [0, 100]; 0 when empty

 private:
  std::vector<float> us_;
};

// One span around one call into the store (or around a group of calls the
// benchmark issues as a unit).  Spans of one operation share `op`.
struct Span {
  const char* name;  // call name, a string literal
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;    // index into the rank's span list, -1 for roots
  uint64_t op;
  int8_t remote;     // 1 remote key, 0 local key, -1 not applicable
};

// ---- Run configuration and results -----------------------------------------

constexpr int kRanks = 2;  // emulated ranks, one node: one storage group

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;  // small key spaces and rounds, for self-tests
  int setup_reps = 1;  // the workload's own count; 1 with --smoke
  std::string dir;     // scratch directory for the repository and spans
};

// What one emulated rank measured.  Filled by that rank only.
struct RankResult {
  double setup_s = 0;           // init + open + preload, this rank
  uint64_t ops = 0;             // key operations completed in the phase
  uint64_t attempted = 0;       // results checked (phase and read-back)
  uint64_t failed = 0;          // failed, wrong or missing results
  std::vector<std::string> errors;  // the first few failures, for the log

  // The workload's read and write call latencies, and the phase's completed
  // ops, in buckets: one per second of the phase (ingest: per round; calls
  // outside the phase: per fixed-size chunk).  The end-to-end metrics are
  // medians over buckets, so a transient stall moves one bucket, not the
  // result.
  std::vector<Samples> read, write;
  std::vector<uint64_t> bucket_ops;
  std::vector<double> bucket_s;
  std::map<std::string, Samples> calls;  // per call name and locality

  static Samples& In(std::vector<Samples>& buckets, size_t k) {
    if (buckets.size() <= k) buckets.resize(k + 1);
    return buckets[k];
  }
  void CountOps(size_t k, uint64_t n, double seconds) {
    if (bucket_ops.size() <= k) {
      bucket_ops.resize(k + 1);
      bucket_s.resize(k + 1);
    }
    bucket_ops[k] += n;
    bucket_s[k] += seconds;
  }

  uint64_t phase_user_bytes = 0;  // key + value bytes put in the phase
  uint64_t phase_gets = 0;        // keys looked up during the timed phase
  uint64_t live_keys = 0;         // distinct keys this rank wrote
  std::vector<double> barrier_s;  // ingest: one per round
  // ingest: the registry and the distinct keys written after round
  // kAmpRounds, the end of write_amp's span there (empty if the phase ended
  // sooner; write_amp then spans the whole run, as on the other workloads).
  std::optional<obs::Snapshot> amp_stats;
  uint64_t amp_live_keys = 0;

  // Registry deltas (papyruskv_stats_reset between phases).
  obs::Snapshot setup_stats, phase_stats, close_stats;

  // Traced runs: spans of traced slices, and the op rate in traced vs.
  // untraced slices of the same phase.
  std::vector<Span> spans;
  uint64_t spans_dropped = 0;
  double traced_s = 0, untraced_s = 0;
  uint64_t traced_ops = 0, untraced_ops = 0;

  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
  // Records one call into the store.
  void Call(const char* name, int8_t remote, int64_t t0, int64_t t1) {
    std::string key(name);
    if (remote >= 0) key += remote ? ".remote" : ".local";
    calls[key].Add(t1 - t0);
  }
};

// State shared by the ranks of one run (they are threads of this process).
struct Job {
  Config cfg;
  std::string repo_spec;  // "nvme:<dir>/repo"
  std::string repo_root;
  std::string db_name;
  size_t vallen = 128;
  std::vector<double> setup_s;  // slower rank's, one per repetition
  uint64_t live_bytes = 0;  // set after the run
  uint64_t disk_bytes = 0;  // bytes under repo_root after the final close

  // Fixed key spaces (hot_sync, batch_async, nvm_read): key i is written
  // only by rank i % 2.  issued[i] is the newest version any put of i was
  // submitted with, committed[i] the newest one known complete; a get that
  // starts after committed[i] = c and ends before issued[i] exceeds h must
  // return a version in [c, h] (per-key linearizability).
  KeyTable keys;
  std::unique_ptr<std::atomic<uint32_t>[]> issued, committed;
  std::vector<int8_t> owner;  // papyruskv_hash of each key

  // ingest: the index of the last round, set once by rank 0 before the
  // barrier that ends it.
  std::atomic<uint64_t> last_round{UINT64_MAX};

  // The key stream rank 0 issued first, with owners, for the store replay.
  std::vector<std::pair<std::string, int>> replay_stream;

  RankResult ranks[kRanks];
};

// Workload entry points (workloads.cc).  Setup runs inside an initialized
// runtime and opens `*db`; Phase runs the timed loop; Finish closes it.
struct Workload {
  const char* name;
  size_t vallen;
  int setup_reps;  // set-up repetitions per run (setup_s is their median)
  void (*setup)(Job&, papyrus::net::RankContext&, RankResult&,
                papyruskv_db_t*);
  void (*phase)(Job&, papyrus::net::RankContext&, RankResult&,
                papyruskv_db_t);
  void (*finish)(Job&, papyrus::net::RankContext&, RankResult&,
                 papyruskv_db_t);
};

const Workload* FindWorkload(const std::string& name);
// Prepares the shared key space before the ranks start.
void PrepareJob(Job& job);

// Throws with the call name on a non-success code (set-up and teardown
// calls, where a failure means the run measured nothing).
void Must(int rc, const char* what);

// The calling rank's registry as a snapshot, via papyruskv_stats.
obs::Snapshot StatsSnapshot();

// Store replay of a traced run (replay.cc): re-runs the workload's own key
// stream against the store classes on the run's files.
struct ReplayResult {
  double sstable_get_mean_us = 0;
  double bloom_probe_ns = 0;
  double crc_mb_per_s = 0;
  double memtable_get_ns = 0;
};
ReplayResult ReplayStore(const Job& job);

}  // namespace perfbench
