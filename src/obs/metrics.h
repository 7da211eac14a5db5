// Low-overhead metrics registry: the observability substrate every layer
// reports into (see DESIGN.md "Observability").
//
// Design constraints, in order:
//   1. The put/get hot path must not serialize on a lock: counters are
//      relaxed atomics sharded across cache lines, histograms are arrays of
//      relaxed atomic buckets.  Snapshots are approximate under concurrent
//      mutation (counts may lag sums by in-flight operations), which is the
//      standard trade for lock-free telemetry.
//   2. Ranks are threads in this emulation, so metrics cannot live in
//      process globals: each rank's KvRuntime owns a Registry, published to
//      that rank's threads (app, compaction, handler, pipeline) through a
//      thread-local pointer.  Code below core/ (store, sim, net) reports to
//      Current(), which falls back to a process-wide registry outside any
//      rank (unit tests, tools).
//   3. Metric objects are owned by the Registry and never deallocated while
//      it lives, so hot paths cache raw pointers resolved once by name.
//
// Histograms are log-bucketed (one bucket per power of two), which gives
// ~2x-relative-error percentiles over the full uint64 range in 65 words —
// the same scheme HdrHistogram-style recorders use for latency.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/mutex.h"
#include "common/timer.h"

namespace papyrus::obs {

// ---------------------------------------------------------------------------
// Counter: monotonic, relaxed, sharded to avoid cross-thread cache bouncing.
// ---------------------------------------------------------------------------
class Counter {
 public:
  void Inc(uint64_t n = 1) {
    shards_[ShardIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void Reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kShards = 8;
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  // Each thread keeps one shard for life; ranks have ~4 threads each, so 8
  // shards make same-counter collisions rare without bloating snapshots.
  static size_t ShardIndex() {
    static std::atomic<size_t> next{0};
    thread_local size_t idx = next.fetch_add(1, std::memory_order_relaxed);
    return idx % kShards;
  }
  Cell shards_[kShards];
};

// ---------------------------------------------------------------------------
// Gauge: a settable signed level (queue depths, occupancy bytes).
// ---------------------------------------------------------------------------
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> v_{0};
};

// ---------------------------------------------------------------------------
// Histogram: log2 buckets; bucket 0 holds zeros, bucket i (i >= 1) holds
// values in [2^(i-1), 2^i).
// ---------------------------------------------------------------------------
inline constexpr size_t kHistogramBuckets = 65;

// Index of the bucket containing v.
inline size_t HistogramBucketOf(uint64_t v) {
  size_t b = 0;
  while (v) {
    ++b;
    v >>= 1;
  }
  return b;  // 0 for v == 0, else floor(log2(v)) + 1
}

// Inclusive upper bound of bucket b (0 for the zero bucket).
inline uint64_t HistogramBucketUpper(size_t b) {
  if (b == 0) return 0;
  if (b >= 64) return ~uint64_t{0};
  return (uint64_t{1} << b) - 1;
}

// A point-in-time (or merged) histogram state.  Plain data: merging and
// percentile extraction work the same on a live snapshot and on a dump
// parsed back from JSON.
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  // 0 when count == 0
  uint64_t max = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  double Mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0;
  }
  // Nearest-rank percentile with linear interpolation inside the winning
  // bucket, clamped to the observed [min, max].  p in [0, 100].
  double Percentile(double p) const;
  void Merge(const HistogramData& other);
};

class Histogram {
 public:
  void Record(uint64_t v) {
    buckets_[HistogramBucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    AtomicMin(min_, v);
    AtomicMax(max_, v);
  }
  HistogramData Snapshot() const;
  void Reset();

 private:
  static void AtomicMin(std::atomic<uint64_t>& a, uint64_t v) {
    uint64_t cur = a.load(std::memory_order_relaxed);
    while (v < cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void AtomicMax(std::atomic<uint64_t>& a, uint64_t v) {
    uint64_t cur = a.load(std::memory_order_relaxed);
    while (v > cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~uint64_t{0}};
  std::atomic<uint64_t> max_{0};
};

// ---------------------------------------------------------------------------
// TickClock
// ---------------------------------------------------------------------------

// Fast monotonic tick source for hot-path latency measurement.  On hosts
// without vDSO acceleration a clock_gettime syscall costs ~35ns; two of
// them per put/get is a measurable tax at ~2us/op.  rdtsc is a few ns and
// constant-rate on any post-2008 x86 (constant_tsc/nonstop_tsc), so ticks
// convert to microseconds with one multiply by a scale calibrated once per
// process.  Cross-core reads can disagree by a handful of cycles; that
// jitter is far below the histograms' 2x bucket granularity.
class TickClock {
 public:
  static uint64_t Now() {
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_ia32_rdtsc();
#else
    return NowMicros();
#endif
  }
  // Microseconds represented by a tick delta.
  static uint64_t ToMicros(uint64_t ticks) {
    return static_cast<uint64_t>(static_cast<double>(ticks) * Scale());
  }

 private:
  static double Scale();  // us per tick, calibrated on first use
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// Everything a registry holds, frozen.  Maps are sorted by name, which the
// exporters rely on for stable output.
struct Snapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  // Element-wise aggregation (counters/gauges sum, histograms merge) — the
  // rank-0 roll-up.
  void Merge(const Snapshot& other);
};

class Registry {
 public:
  // Touching the tick clock here front-loads its one-time calibration so
  // the first measured operation does not pay it.
  Registry() { TickClock::ToMicros(0); }
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Finds or creates; the returned reference stays valid for the life of
  // the registry.  Lock is taken only here, never on metric updates —
  // resolve once, cache the pointer.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  Snapshot TakeSnapshot() const;
  // Zeroes every metric (papyruskv_stats_reset).  Concurrent updates may
  // survive the sweep; that is acceptable for telemetry.
  void Reset();

  // The process-wide fallback registry (tools, unit tests, code running
  // outside any rank).
  static Registry& Process();

 private:
  // Leaf lock: guards only the name→metric maps (metric *values* are
  // lock-free atomics); held for map lookup/insert, never while calling out.
  mutable Mutex mu_{"obs_registry_mu"};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GUARDED_BY(mu_);
};

// The calling thread's registry: the one installed via SetCurrentRegistry
// (each rank's runtime installs its own on the rank's threads), else
// Registry::Process().
Registry& Current();
void SetCurrentRegistry(Registry* r);  // nullptr restores the process one

// RAII latency recorder: records microseconds from construction to
// destruction into the histogram.  A null histogram disables it.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* h)
      : h_(h), start_(h ? TickClock::Now() : 0) {}
  ~ScopedLatency() {
    if (h_) h_->Record(TickClock::ToMicros(TickClock::Now() - start_));
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* h_;
  uint64_t start_;
};

}  // namespace papyrus::obs
