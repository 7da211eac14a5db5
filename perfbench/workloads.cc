// The four workloads.  Every one is closed-loop: each emulated rank issues
// its next call only after the previous one returned, for --seconds.
//
//   hot_sync     sequential consistency, 2 x 100k keys of 128 B that never
//                leave the MemTable; 90% sync get / 10% sync put, uniform
//                over both ranks' keys (about half remote).
//   batch_async  same key space; windows of 256 fire-and-forget put_async
//                sealed by a fence, each followed by one get_multi of 64
//                already-written keys.
//   ingest       relaxed consistency, 1 KB values, default MemTable: a base
//                load sealed by barrier(SSTABLE), then rounds of unique-key
//                puts with 20% overwrites, each sealed the same way; then
//                close, zero-copy reopen and a durability read-back.
//   nvm_read     2 x 64k keys of 1 KB flushed to SSTables (8x the local
//                cache); Zipfian (0.99) sync gets, 5% of absent keys.
#include <cstdio>
#include <stdexcept>

#include "harness.h"
#include "obs/export.h"

namespace perfbench {

using papyrus::net::RankContext;

// ---- Values ----------------------------------------------------------------

namespace {

uint64_t ValueSeed(const char* key, uint32_t version) {
  uint64_t a = 0, b = 0;
  std::memcpy(&a, key, 8);
  std::memcpy(&b, key + 8, 8);
  return Mix64(a ^ Mix64(b ^ version));
}

void FillFrom(uint64_t seed, char* out, size_t n) {
  for (size_t off = 0; off < n; off += 8) {
    const uint64_t w = Mix64(seed + off);
    std::memcpy(out + off, &w, std::min<size_t>(8, n - off));
  }
}

}  // namespace

void MakeValue(const char* key, uint32_t version, size_t vallen, char* out) {
  std::memcpy(out, key, kKeyLen);
  snprintf(out + kKeyLen, 9, "%08x", version);
  FillFrom(ValueSeed(key, version), out + kMinValueLen, vallen - kMinValueLen);
}

std::string CheckValue(const char* key, const char* got, size_t got_len,
                       size_t vallen, uint32_t lo, uint32_t hi) {
  const std::string k(key, kKeyLen);
  if (got_len != vallen) {
    return k + ": value of " + std::to_string(got_len) + " B, expected " +
           std::to_string(vallen);
  }
  if (std::memcmp(got, key, kKeyLen) != 0) return k + ": value of another key";
  uint32_t version = 0;
  for (size_t i = kKeyLen; i < kMinValueLen; ++i) {
    const char c = got[i];
    const int d = c >= '0' && c <= '9'   ? c - '0'
                  : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                         : -1;
    if (d < 0) return k + ": unreadable version";
    version = version << 4 | static_cast<uint32_t>(d);
  }
  if (version < lo || version > hi) {
    return k + ": version " + std::to_string(version) + " outside [" +
           std::to_string(lo) + ", " + std::to_string(hi) + "]";
  }
  std::string want(vallen - kMinValueLen, '\0');
  FillFrom(ValueSeed(key, version), want.data(), want.size());
  if (std::memcmp(got + kMinValueLen, want.data(), want.size()) != 0) {
    return k + ": corrupted value bytes";
  }
  return "";
}

// ---- Samples ---------------------------------------------------------------

double Samples::Mean() const {
  if (us_.empty()) return 0;
  double s = 0;
  for (float v : us_) s += v;
  return s / static_cast<double>(us_.size());
}

double Samples::TrimmedMean() const {
  if (us_.empty()) return 0;
  const double cut = Percentile(99);
  double s = 0;
  size_t n = 0;
  for (float v : us_) {
    if (v <= cut) {
      s += v;
      ++n;
    }
  }
  return s / static_cast<double>(n);
}

double Samples::Percentile(double p) const {
  if (us_.empty()) return 0;
  std::vector<float> v(us_);
  const size_t k = std::min(
      v.size() - 1, static_cast<size_t>(p / 100.0 * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

// ---- Store calls -----------------------------------------------------------

void Must(int rc, const char* what) {
  if (rc != PAPYRUSKV_SUCCESS) {
    throw std::runtime_error(std::string(what) + ": " + ErrorName(rc));
  }
}

obs::Snapshot StatsSnapshot() {
  std::string buf;
  size_t len = 0;
  int rc = PAPYRUSKV_INVALID_ARG;
  while (rc == PAPYRUSKV_INVALID_ARG) {  // grows between size query and read
    buf.resize(len + 4096);
    len = buf.size();
    rc = papyruskv_stats(-1, buf.data(), &len);
  }
  Must(rc, "papyruskv_stats");
  buf.resize(len);
  obs::Snapshot snap;
  obs::StatsMeta meta;
  if (!obs::ParseStatsJson(buf, &snap, &meta)) {
    throw std::runtime_error("papyruskv_stats: unreadable stats document");
  }
  return snap;
}

namespace {

constexpr int64_t kSliceNs = 100'000'000;  // traced/untraced alternation
constexpr int64_t kBucketNs = 1'000'000'000;  // phase buckets
constexpr uint64_t kChunk = 1024;  // calls per bucket outside the phase
constexpr size_t kMaxSpansPerRank = size_t{1} << 19;
constexpr size_t kReplayKeys = 20000;

// The timed phase's clock.  Traced runs alternate untraced and traced
// 100 ms slices, so the two op rates compare like with like.
class PhaseClock {
 public:
  explicit PhaseClock(const Config& cfg)
      : t0_(NowNs()),
        end_(t0_ + static_cast<int64_t>(cfg.seconds * 1e9)),
        trace_(cfg.trace) {}
  bool Done(int64_t now) const { return now >= end_; }
  bool Traced(int64_t now) const {
    return trace_ && ((now - t0_) / kSliceNs) % 2 == 1;
  }
  size_t Bucket(int64_t now) const {
    return static_cast<size_t>((now - t0_) / kBucketNs);
  }
  // Keeps only whole one-second buckets, drops the first as warm-up (the
  // caches fill during it) when there are more, and splits the phase into
  // traced and untraced time.
  void Finish(RankResult& res, bool per_second_buckets = true) const {
    const int64_t len = NowNs() - t0_;
    if (per_second_buckets) {
      const size_t full = std::max<size_t>(1, static_cast<size_t>(len / kBucketNs));
      res.bucket_ops.resize(full);
      res.bucket_s.assign(full, 1.0);
      if (len < kBucketNs) res.bucket_s[0] = len * 1e-9;
      for (auto* b : {&res.read, &res.write}) {
        if (b->size() > full) b->resize(full);
      }
      if (full > 1) {
        res.bucket_ops.erase(res.bucket_ops.begin());
        res.bucket_s.erase(res.bucket_s.begin());
        for (auto* b : {&res.read, &res.write}) {
          if (!b->empty()) b->erase(b->begin());
        }
      }
    }
    if (!trace_) return;
    const int64_t full = len / kSliceNs, rest = len % kSliceNs;
    int64_t traced = (full / 2) * kSliceNs;
    if (full % 2 == 1) traced += rest;
    res.traced_s = traced * 1e-9;
    res.untraced_s = (len - traced) * 1e-9;
  }

 private:
  int64_t t0_, end_;
  bool trace_;
};

int32_t OpenSpan(RankResult& res, const char* name, int64_t t0, int32_t parent,
                 uint64_t op, int8_t remote) {
  if (res.spans.size() >= kMaxSpansPerRank) {
    ++res.spans_dropped;
    return -1;
  }
  res.spans.push_back(Span{name, t0, t0, parent, op, remote});
  return static_cast<int32_t>(res.spans.size() - 1);
}

void CloseSpan(RankResult& res, int32_t idx, int64_t t1) {
  if (idx >= 0) res.spans[static_cast<size_t>(idx)].end_ns = t1;
}

void AddSpan(RankResult& res, const char* name, int64_t t0, int64_t t1,
             int32_t parent, uint64_t op, int8_t remote) {
  CloseSpan(res, OpenSpan(res, name, t0, parent, op, remote), t1);
}

papyruskv_option_t Options(int consistency, size_t memtable_bytes) {
  papyruskv_option_t opt;
  Must(papyruskv_option_init(&opt), "papyruskv_option_init");
  opt.keylen = kKeyLen;
  opt.consistency = consistency;
  if (memtable_bytes) opt.memtable_size = memtable_bytes;
  opt.replicas = 1;
  return opt;
}

void Open(const Job& job, papyruskv_option_t* opt, papyruskv_db_t* db) {
  Must(papyruskv_open(job.db_name.c_str(), PAPYRUSKV_CREATE | PAPYRUSKV_RDWR,
                      opt, db),
       "papyruskv_open");
}

int8_t OwnerOf(papyruskv_db_t db, const char* key) {
  int owner = -1;
  Must(papyruskv_hash(db, key, kKeyLen, &owner), "papyruskv_hash");
  return static_cast<int8_t>(owner);
}

// Rank 0 classifies the fixed key space with papyruskv_hash.
void ClassifyKeys(Job& job, RankContext& ctx, papyruskv_db_t db) {
  if (ctx.rank == 0) {
    job.owner.resize(job.keys.size());
    for (uint64_t i = 0; i < job.keys.size(); ++i) {
      job.owner[i] = OwnerOf(db, job.keys[i]);
    }
  }
  ctx.comm.Barrier();
}

// Puts version 1 of every written key this rank writes (i % 2 == rank).
void Preload(Job& job, RankContext& ctx, RankResult& res, papyruskv_db_t db,
             uint64_t nwritten) {
  std::vector<char> val(job.vallen);
  for (uint64_t i = static_cast<uint64_t>(ctx.rank); i < nwritten;
       i += kRanks) {
    MakeValue(job.keys[i], 1, job.vallen, val.data());
    Must(papyruskv_put(db, job.keys[i], kKeyLen, val.data(), job.vallen),
         "preload papyruskv_put");
    ++res.live_keys;
  }
}

// One sync put of key i, with the version bookkeeping the gets check.
void SyncPut(Job& job, RankContext& ctx, RankResult& res, papyruskv_db_t db,
             uint64_t i, char* val, size_t bucket, bool traced, uint64_t op) {
  const char* key = job.keys[i];
  const uint32_t v = job.issued[i].load(std::memory_order_relaxed) + 1;
  job.issued[i].store(v, std::memory_order_release);
  MakeValue(key, v, job.vallen, val);
  const int8_t remote = job.owner[i] != ctx.rank;
  const int64_t t0 = NowNs();
  const int rc = papyruskv_put(db, key, kKeyLen, val, job.vallen);
  const int64_t t1 = NowNs();
  RankResult::In(res.write, bucket).Add(t1 - t0);
  res.Call("put", remote, t0, t1);
  if (traced) AddSpan(res, "put", t0, t1, -1, op, remote);
  ++res.attempted;
  if (rc == PAPYRUSKV_SUCCESS) {
    job.committed[i].store(v, std::memory_order_release);
  } else {
    res.Fail("put " + std::string(key, kKeyLen) + ": " + ErrorName(rc));
  }
}

// Checks one get result against the window [lo, hi]; hi == 0 means the key
// was never written and must be absent.
void CheckGet(RankResult& res, const char* key, int rc, const char* out,
              size_t len, size_t vallen, uint32_t lo, uint32_t hi) {
  ++res.attempted;
  const std::string k(key, kKeyLen);
  if (hi == 0) {
    if (rc != PAPYRUSKV_NOT_FOUND) {
      res.Fail("get " + k + ": absent key returned " +
               (rc == PAPYRUSKV_SUCCESS ? std::string("a value")
                                        : std::string(ErrorName(rc))));
    }
    return;
  }
  if (rc == PAPYRUSKV_NOT_FOUND) {
    res.Fail("get " + k + ": written key NOT_FOUND");
  } else if (rc != PAPYRUSKV_SUCCESS) {
    res.Fail("get " + k + ": " + ErrorName(rc));
  } else {
    const std::string why = CheckValue(key, out, len, vallen, lo, hi);
    if (!why.empty()) res.Fail("get " + why);
  }
}

void SyncGet(Job& job, RankContext& ctx, RankResult& res, papyruskv_db_t db,
             uint64_t i, char* buf, size_t bucket, bool traced, uint64_t op) {
  const char* key = job.keys[i];
  const int8_t remote = job.owner[i] != ctx.rank;
  const uint32_t lo = job.committed[i].load(std::memory_order_acquire);
  char* out = buf;
  size_t len = job.vallen;
  const int64_t t0 = NowNs();
  const int rc = papyruskv_get(db, key, kKeyLen, &out, &len);
  const int64_t t1 = NowNs();
  const uint32_t hi = job.issued[i].load(std::memory_order_acquire);
  RankResult::In(res.read, bucket).Add(t1 - t0);
  res.Call("get", remote, t0, t1);
  if (traced) AddSpan(res, "get", t0, t1, -1, op, remote);
  ++res.phase_gets;
  CheckGet(res, key, rc, out, len, job.vallen, lo, hi);
}

void KeepForReplay(Job& job, RankContext& ctx, const char* key, int owner) {
  if (ctx.rank == 0 && job.replay_stream.size() < kReplayKeys) {
    job.replay_stream.emplace_back(std::string(key, kKeyLen), owner);
  }
}

// ---- hot_sync --------------------------------------------------------------

void MemoryResidentSetup(Job& job, RankContext& ctx, RankResult& res,
                         papyruskv_db_t* db) {
  // MemTable sized never to seal: nothing below the MemTable is exercised.
  papyruskv_option_t opt = Options(PAPYRUSKV_RELAXED, size_t{1} << 30);
  Open(job, &opt, db);
  ClassifyKeys(job, ctx, *db);
  Preload(job, ctx, res, *db, job.keys.size());
  Must(papyruskv_barrier(*db, PAPYRUSKV_MEMTABLE), "papyruskv_barrier");
  Must(papyruskv_consistency(*db, PAPYRUSKV_SEQUENTIAL),
       "papyruskv_consistency");
}

void HotSyncPhase(Job& job, RankContext& ctx, RankResult& res,
                  papyruskv_db_t db) {
  Rng rng(job.cfg.seed * 2 + static_cast<uint64_t>(ctx.rank));
  std::vector<char> val(job.vallen), buf(job.vallen);
  const uint64_t n = job.keys.size(), mine = n / kRanks;
  const PhaseClock clock(job.cfg);
  uint64_t op = 0;
  for (int64_t now = NowNs(); !clock.Done(now); now = NowNs()) {
    const bool traced = clock.Traced(now);
    const size_t bucket = clock.Bucket(now);
    ++op;
    if (rng.Uniform(100) < 10) {
      SyncPut(job, ctx, res, db, rng.Uniform(mine) * kRanks + ctx.rank,
              val.data(), bucket, traced, op);
      res.phase_user_bytes += kKeyLen + job.vallen;
    } else {
      const uint64_t i = rng.Uniform(n);
      KeepForReplay(job, ctx, job.keys[i], job.owner[i]);
      SyncGet(job, ctx, res, db, i, buf.data(), bucket, traced, op);
    }
    res.CountOps(bucket, 1, 0);
    ++(traced ? res.traced_ops : res.untraced_ops);
  }
  clock.Finish(res);
  res.ops = op;
}

void CloseFinish(Job&, RankContext&, RankResult&, papyruskv_db_t db) {
  Must(papyruskv_close(db), "papyruskv_close");
}

// ---- batch_async -----------------------------------------------------------

constexpr int kWindow = 256;
constexpr int kMultiGet = 64;

void BatchAsyncPhase(Job& job, RankContext& ctx, RankResult& res,
                     papyruskv_db_t db) {
  Rng rng(job.cfg.seed * 2 + static_cast<uint64_t>(ctx.rank));
  const uint64_t n = job.keys.size(), mine = n / kRanks;
  const size_t vallen = job.vallen;
  std::vector<char> val(vallen), bufs(kMultiGet * vallen);
  std::vector<std::pair<uint64_t, uint32_t>> pending;
  uint64_t idx[kMultiGet];
  const char* keyp[kMultiGet];
  size_t keylens[kMultiGet], vallens[kMultiGet];
  char* values[kMultiGet];
  int statuses[kMultiGet];
  uint32_t lo[kMultiGet];
  std::fill(keylens, keylens + kMultiGet, kKeyLen);

  const PhaseClock clock(job.cfg);
  uint64_t op = 0;
  for (int64_t now = NowNs(); !clock.Done(now); now = NowNs()) {
    const bool traced = clock.Traced(now);
    const size_t bucket = clock.Bucket(now);
    // Window: 256 fire-and-forget puts, then the fence that completes them.
    ++op;
    const int64_t w0 = NowNs();
    const int32_t wspan = traced ? OpenSpan(res, "window", w0, -1, op, -1) : -1;
    pending.clear();
    for (int j = 0; j < kWindow; ++j) {
      const uint64_t i = rng.Uniform(mine) * kRanks + ctx.rank;
      const uint32_t v = job.issued[i].load(std::memory_order_relaxed) + 1;
      job.issued[i].store(v, std::memory_order_release);
      MakeValue(job.keys[i], v, vallen, val.data());
      const int8_t remote = job.owner[i] != ctx.rank;
      const int64_t t0 = NowNs();
      const int rc = papyruskv_put_async(db, job.keys[i], kKeyLen, val.data(),
                                         vallen, nullptr);
      const int64_t t1 = NowNs();
      res.Call("put_async", remote, t0, t1);
      if (traced) AddSpan(res, "put_async", t0, t1, wspan, op, remote);
      ++res.attempted;
      res.phase_user_bytes += kKeyLen + vallen;
      if (rc == PAPYRUSKV_SUCCESS) {
        pending.emplace_back(i, v);
      } else {
        res.Fail("put_async " + std::string(job.keys[i], kKeyLen) + ": " +
                 ErrorName(rc));
      }
    }
    const int64_t f0 = NowNs();
    const int frc = papyruskv_fence(db);
    const int64_t f1 = NowNs();
    res.Call("fence", -1, f0, f1);
    RankResult::In(res.write, bucket).Add(f1 - w0);
    res.Call("window", -1, w0, f1);
    if (traced) {
      AddSpan(res, "fence", f0, f1, wspan, op, -1);
      CloseSpan(res, wspan, f1);
    }
    if (frc == PAPYRUSKV_SUCCESS) {
      for (const auto& [i, v] : pending) {
        job.committed[i].store(v, std::memory_order_release);
      }
    } else {
      res.Fail(std::string("fence: ") + ErrorName(frc));
    }

    // One get_multi of 64 keys, all written by the preload at least.
    ++op;
    for (int j = 0; j < kMultiGet; ++j) {
      idx[j] = rng.Uniform(n);
      keyp[j] = job.keys[idx[j]];
      KeepForReplay(job, ctx, keyp[j], job.owner[idx[j]]);
      values[j] = &bufs[static_cast<size_t>(j) * vallen];
      vallens[j] = vallen;
      lo[j] = job.committed[idx[j]].load(std::memory_order_acquire);
    }
    const int64_t g0 = NowNs();
    const int grc = papyruskv_get_multi(db, kMultiGet, keyp, keylens, values,
                                        vallens, statuses);
    const int64_t g1 = NowNs();
    RankResult::In(res.read, bucket).Add(g1 - g0);
    res.Call("get_multi", -1, g0, g1);
    if (traced) AddSpan(res, "get_multi", g0, g1, -1, op, -1);
    res.phase_gets += kMultiGet;
    const uint64_t failed_before = res.failed;
    for (int j = 0; j < kMultiGet; ++j) {
      const uint32_t hi = job.issued[idx[j]].load(std::memory_order_acquire);
      CheckGet(res, keyp[j], statuses[j], values[j], vallens[j], vallen, lo[j],
               hi);
    }
    if (grc != PAPYRUSKV_SUCCESS && res.failed == failed_before) {
      res.Fail(std::string("get_multi: ") + ErrorName(grc));
    }
    res.ops += kWindow + kMultiGet;
    res.CountOps(bucket, kWindow + kMultiGet, 0);
    ++(traced ? res.traced_ops : res.untraced_ops);
  }
  clock.Finish(res);
  // Traced vs. untraced rates compare key operations.
  res.traced_ops *= kWindow + kMultiGet;
  res.untraced_ops *= kWindow + kMultiGet;
}

// ---- ingest ----------------------------------------------------------------

// Rank r's j-th own key is key 2j + r of the seed's space: unique per rank.
class IngestKeys {
 public:
  IngestKeys(uint64_t seed, int rank) : seed_(seed), rank_(rank) {}
  void Key(uint64_t j, char* out) const {
    MakeKey(seed_, j * kRanks + static_cast<uint64_t>(rank_), out);
  }

 private:
  uint64_t seed_;
  int rank_;
};

// Versions of this rank's ingest keys (0 = never written successfully).
// Only the owning rank thread touches its vector.
std::vector<uint32_t> g_ingest_versions[kRanks];

uint64_t IngestRoundPuts(const Config& cfg) { return cfg.smoke ? 512 : 8192; }

// write_amp covers the set-up and this many rounds.  Every compaction
// merges the whole set, so device bytes per byte put grow with the number of
// rounds, which a time-bounded phase ties to throughput.
constexpr uint64_t kAmpRounds = 4;

// Set-up loads one round's worth of this rank's first keys (version 1) and
// seals them with barrier(SSTABLE), so the phase starts on SSTables and
// setup_s times store work, not only init + open (~1 ms, too short to time
// steadily).
void IngestSetup(Job& job, RankContext& ctx, RankResult&, papyruskv_db_t* db) {
  papyruskv_option_t opt = Options(PAPYRUSKV_RELAXED, 0);  // default MemTable
  Open(job, &opt, db);
  std::vector<uint32_t>& ver = g_ingest_versions[ctx.rank];
  ver.assign(IngestRoundPuts(job.cfg), 1);
  const IngestKeys keys(job.cfg.seed, ctx.rank);
  std::vector<char> val(job.vallen);
  char key[kKeyLen];
  for (uint64_t j = 0; j < ver.size(); ++j) {
    keys.Key(j, key);
    MakeValue(key, 1, job.vallen, val.data());
    Must(papyruskv_put(*db, key, kKeyLen, val.data(), job.vallen),
         "base load papyruskv_put");
  }
  Must(papyruskv_barrier(*db, PAPYRUSKV_SSTABLE), "papyruskv_barrier");
}

void IngestPhase(Job& job, RankContext& ctx, RankResult& res,
                 papyruskv_db_t db) {
  const uint64_t round_puts = IngestRoundPuts(job.cfg);
  Rng rng(job.cfg.seed * 2 + static_cast<uint64_t>(ctx.rank));
  const IngestKeys keys(job.cfg.seed, ctx.rank);
  std::vector<uint32_t>& ver = g_ingest_versions[ctx.rank];
  std::vector<char> val(job.vallen);
  char key[kKeyLen];
  const PhaseClock clock(job.cfg);
  uint64_t op = 0;
  for (uint64_t round = 0;; ++round) {
    const bool traced = job.cfg.trace && round % 2 == 1;
    const int64_t r0 = NowNs();
    ++op;
    const int32_t rspan = traced ? OpenSpan(res, "round", r0, -1, op, -1) : -1;
    for (uint64_t p = 0; p < round_puts; ++p) {
      uint64_t j = ver.size();
      if (j > 0 && rng.Uniform(5) == 0) {
        j = rng.Uniform(j);  // 20% overwrite an earlier key
      } else {
        ver.push_back(0);
      }
      const uint32_t v = ver[j] + 1;
      keys.Key(j, key);
      MakeValue(key, v, job.vallen, val.data());
      const int8_t owner = OwnerOf(db, key);
      const int8_t remote = owner != ctx.rank;
      KeepForReplay(job, ctx, key, owner);
      const int64_t t0 = NowNs();
      const int rc = papyruskv_put(db, key, kKeyLen, val.data(), job.vallen);
      const int64_t t1 = NowNs();
      RankResult::In(res.write, round).Add(t1 - t0);
      res.Call("put", remote, t0, t1);
      if (traced) AddSpan(res, "put", t0, t1, rspan, op, remote);
      ++res.attempted;
      res.phase_user_bytes += kKeyLen + job.vallen;
      if (rc == PAPYRUSKV_SUCCESS) {
        ver[j] = v;
      } else {
        res.Fail("put " + std::string(key, kKeyLen) + ": " + ErrorName(rc));
      }
    }
    // Rounds end in a collective barrier, so rank 0 decides for both which
    // round is the last and publishes its index before that barrier.  The
    // index is written once: rank 1 cannot read a later round's decision
    // for this one.
    if (ctx.rank == 0 && clock.Done(NowNs())) job.last_round.store(round);
    const int64_t b0 = NowNs();
    const int brc = papyruskv_barrier(db, PAPYRUSKV_SSTABLE);
    const int64_t b1 = NowNs();
    res.Call("barrier", -1, b0, b1);
    res.barrier_s.push_back((b1 - b0) * 1e-9);
    if (traced) {
      AddSpan(res, "barrier", b0, b1, rspan, op, -1);
      CloseSpan(res, rspan, b1);
    }
    if (brc != PAPYRUSKV_SUCCESS) {
      res.Fail(std::string("barrier: ") + ErrorName(brc));
    }
    res.ops += round_puts;
    res.CountOps(round, round_puts, (b1 - r0) * 1e-9);
    (traced ? res.traced_ops : res.untraced_ops) += round_puts;
    (traced ? res.traced_s : res.untraced_s) += (b1 - r0) * 1e-9;
    if (round + 1 == kAmpRounds) {
      res.amp_stats = StatsSnapshot();
      res.amp_live_keys = static_cast<uint64_t>(
          std::count_if(ver.begin(), ver.end(), [](uint32_t v) { return v > 0; }));
      ctx.comm.Barrier();  // no later put reaches a rank before its snapshot
    }
    if (job.last_round.load() == round) break;
  }
  const double traced_s = res.traced_s, untraced_s = res.untraced_s;
  clock.Finish(res, /*per_second_buckets=*/false);
  res.traced_s = traced_s;
  res.untraced_s = untraced_s;
  for (uint32_t v : ver) res.live_keys += v > 0;
}

// Durability check: close, reopen the same repository without moving any
// data (§4.1), and read back a seeded sample of every acknowledged key.
void IngestFinish(Job& job, RankContext& ctx, RankResult& res,
                  papyruskv_db_t db) {
  const uint64_t sample = job.cfg.smoke ? 512 : 16384;
  Must(papyruskv_close(db), "papyruskv_close");
  papyruskv_option_t opt = Options(PAPYRUSKV_RELAXED, 0);
  Must(papyruskv_open(job.db_name.c_str(), PAPYRUSKV_RDWR, &opt, &db),
       "papyruskv_open (reopen)");
  const std::vector<uint32_t>& ver = g_ingest_versions[ctx.rank];
  std::vector<uint64_t> order(ver.size());
  for (uint64_t j = 0; j < order.size(); ++j) order[j] = j;
  Rng rng(job.cfg.seed * 2 + static_cast<uint64_t>(ctx.rank) + 0x7265);
  const uint64_t m = std::min<uint64_t>(sample, order.size());
  const IngestKeys keys(job.cfg.seed, ctx.rank);
  std::vector<char> buf(job.vallen);
  char key[kKeyLen];
  for (uint64_t s = 0; s < m; ++s) {
    std::swap(order[s], order[s + rng.Uniform(order.size() - s)]);
    const uint64_t j = order[s];
    keys.Key(j, key);
    const int8_t remote = OwnerOf(db, key) != ctx.rank;
    char* out = buf.data();
    size_t len = job.vallen;
    const int64_t t0 = NowNs();
    const int rc = papyruskv_get(db, key, kKeyLen, &out, &len);
    const int64_t t1 = NowNs();
    RankResult::In(res.read, s / kChunk).Add(t1 - t0);
    res.Call("get", remote, t0, t1);
    CheckGet(res, key, rc, out, len, job.vallen, ver[j], ver[j]);
  }
  Must(papyruskv_close(db), "papyruskv_close");
}

// ---- nvm_read --------------------------------------------------------------

void NvmReadSetup(Job& job, RankContext& ctx, RankResult& res,
                  papyruskv_db_t* db) {
  papyruskv_option_t opt = Options(PAPYRUSKV_RELAXED, 0);  // default MemTable
  Open(job, &opt, db);
  ClassifyKeys(job, ctx, *db);
  // The first half of the table is loaded; the second half stays absent.
  Preload(job, ctx, res, *db, job.keys.size() / 2);
  Must(papyruskv_barrier(*db, PAPYRUSKV_SSTABLE), "papyruskv_barrier");
}

void NvmReadPhase(Job& job, RankContext& ctx, RankResult& res,
                  papyruskv_db_t db) {
  const uint64_t n = job.keys.size() / 2;
  // Hotness goes through a seeded permutation, so it is not tied to the
  // order keys were loaded in (and so to SSTable age).
  std::vector<uint32_t> perm(n);
  Rng prng(job.cfg.seed ^ 0x7065726d);
  for (uint64_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  for (uint64_t i = n - 1; i > 0; --i) std::swap(perm[i], perm[prng.Uniform(i + 1)]);
  const Zipf zipf(n, 0.99);
  Rng rng(job.cfg.seed * 2 + static_cast<uint64_t>(ctx.rank));
  std::vector<char> buf(job.vallen);
  ctx.comm.Barrier();  // the permutation is set-up work, not phase time

  const PhaseClock clock(job.cfg);
  uint64_t op = 0;
  for (int64_t now = NowNs(); !clock.Done(now); now = NowNs()) {
    const bool traced = clock.Traced(now);
    const size_t bucket = clock.Bucket(now);
    ++op;
    const uint64_t i =
        rng.Uniform(100) < 5 ? n + rng.Uniform(n) : perm[zipf.Next(rng)];
    KeepForReplay(job, ctx, job.keys[i], job.owner[i]);
    SyncGet(job, ctx, res, db, i, buf.data(), bucket, traced, op);
    res.CountOps(bucket, 1, 0);
    ++(traced ? res.traced_ops : res.untraced_ops);
  }
  clock.Finish(res);
  res.ops = op;
}

// After the read phase the ranks switch to sequential consistency and each
// updates a seeded run of 3 x 1024 of its keys with sync puts: nvm_read's
// write call.  Each owner's MemTable takes ~3 MB of 1 KB values, under its
// 4 MB, so no flush runs under these puts.  The preload's relaxed puts run
// under flush and compaction of the whole load, and a relaxed update is a
// 1-2 us MemTable insert; both swing too much run to run to gate on.
void NvmReadFinish(Job& job, RankContext& ctx, RankResult& res,
                   papyruskv_db_t db) {
  Must(papyruskv_consistency(db, PAPYRUSKV_SEQUENTIAL),
       "papyruskv_consistency");
  const uint64_t mine = job.keys.size() / 2 / kRanks;
  const uint64_t m = std::min<uint64_t>(mine, 3 * kChunk);
  Rng rng(job.cfg.seed * 2 + static_cast<uint64_t>(ctx.rank) + 0x7570);
  const uint64_t start = rng.Uniform(mine);
  std::vector<char> val(job.vallen);
  for (uint64_t u = 0; u < m; ++u) {
    const uint64_t i = ((start + u) % mine) * kRanks + ctx.rank;
    // Buckets of 2 x 512 puts: the most whose p99 still has ten samples
    // beyond it.
    SyncPut(job, ctx, res, db, i, val.data(), u / (kChunk / 2), false, 0);
  }
  Must(papyruskv_close(db), "papyruskv_close");
}

const Workload kWorkloads[] = {
    {"hot_sync", 128, 5, MemoryResidentSetup, HotSyncPhase, CloseFinish},
    {"batch_async", 128, 5, MemoryResidentSetup, BatchAsyncPhase, CloseFinish},
    {"ingest", 1024, 5, IngestSetup, IngestPhase, IngestFinish},
    {"nvm_read", 1024, 3, NvmReadSetup, NvmReadPhase, NvmReadFinish},
};

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

void PrepareJob(Job& job) {
  const Workload* w = FindWorkload(job.cfg.workload);
  job.vallen = w->vallen;
  job.db_name = w->name;
  const uint64_t div = job.cfg.smoke ? 16 : 1;
  uint64_t n = 0;      // keys in the table
  uint64_t loaded = 0;  // of which the preload writes
  if (job.cfg.workload == "hot_sync" || job.cfg.workload == "batch_async") {
    n = loaded = 200000 / div;
  } else if (job.cfg.workload == "nvm_read") {
    loaded = 131072 / div;
    n = 2 * loaded;  // the upper half is the pool of absent keys
  }
  job.keys = KeyTable(job.cfg.seed, n);
  job.issued = std::make_unique<std::atomic<uint32_t>[]>(n);
  job.committed = std::make_unique<std::atomic<uint32_t>[]>(n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t v = i < loaded ? 1 : 0;
    job.issued[i].store(v);
    job.committed[i].store(v);
  }
}

}  // namespace perfbench
