// perfbench — the PapyrusKV benchmark program.
//
//   perfbench --workload <hot_sync|batch_async|ingest|nvm_read> --seed N
//             --seconds S --trace 0|1 --dir SCRATCH [--smoke] [--faults SPEC]
//
// Runs one workload on 2 emulated ranks (threads, one simulated node, so
// one storage group) through the public papyruskv_* API, checks every
// returned value, and prints one JSON object on its last stdout line:
// end-to-end metrics, the per-layer metrics of a traced run, the run's
// environment, and the first failures.  perfbench/run.py builds this
// binary, runs it and turns that object into the benchmark's result line.
//
// Exit code: 0 when every result was right, 1 when any was wrong or
// failed, 2 when the run could not be made at all.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "harness.h"
#include "obs/export.h"
#include "sim/device_model.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// ---- Environment -----------------------------------------------------------

// Clears every PAPYRUSKV_* / PAPYRUS_* variable (batching, MemTable size,
// consistency, caches, group size, replication, faults, telemetry, time
// scale): a leftover export must not change the measured program.
void PinEnvironment(const std::string& faults) {
  std::vector<std::string> names;
  for (char** e = environ; *e; ++e) {
    const std::string kv(*e);
    if (kv.rfind("PAPYRUS", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  if (!faults.empty()) setenv("PAPYRUSKV_FAULTS", faults.c_str(), 1);
  papyrus::sim::SetTimeScale(0);  // no NVM here: device work is counted
}

// ---- Metric helpers --------------------------------------------------------

obs::Snapshot Merged(const Job& job, obs::Snapshot RankResult::*which) {
  obs::Snapshot all;
  for (const RankResult& r : job.ranks) all.Merge(r.*which);
  return all;
}

uint64_t Count(const obs::Snapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

// Sum of counters named <prefix>*<suffix> (e.g. every sim.dev.<class>).
uint64_t CountAll(const obs::Snapshot& s, const std::string& prefix,
                  const std::string& suffix) {
  uint64_t total = 0;
  for (const auto& [name, v] : s.counters) {
    if (name.rfind(prefix, 0) == 0 && name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += v;
    }
  }
  return total;
}

obs::HistogramData Hist(const obs::Snapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? obs::HistogramData{} : it->second;
}

// Registry times as exact means (sum / count), never bucket percentiles.
double MeanOf(const obs::Snapshot& s, const std::string& name) {
  return Hist(s, name).Mean();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// A statistic of each bucket, both ranks' samples pooled, and its median
// over the buckets.
template <typename Stat>
double BucketMedian(const Job& job, std::vector<Samples> RankResult::*which,
                    Stat stat) {
  const auto& a = job.ranks[0].*which;
  const auto& b = job.ranks[1].*which;
  std::vector<double> per_bucket;
  for (size_t k = 0; k < std::min(a.size(), b.size()); ++k) {
    Samples s;
    s.Append(a[k]);
    s.Append(b[k]);
    if (s.size() > 0) per_bucket.push_back(stat(s));
  }
  return Median(per_bucket);
}

// Ops per second of each bucket (both ranks' ops over the slower rank's
// time), and its median over the buckets.
double RateMedian(const Job& job) {
  const RankResult &a = job.ranks[0], &b = job.ranks[1];
  std::vector<double> per_bucket;
  for (size_t k = 0; k < std::min(a.bucket_ops.size(), b.bucket_ops.size());
       ++k) {
    per_bucket.push_back(Ratio(double(a.bucket_ops[k] + b.bucket_ops[k]),
                               std::max(a.bucket_s[k], b.bucket_s[k])));
  }
  return Median(per_bucket);
}

Samples PoolCalls(const Job& job, std::initializer_list<const char*> names) {
  Samples all;
  for (const RankResult& r : job.ranks) {
    for (const char* n : names) {
      auto it = r.calls.find(n);
      if (it != r.calls.end()) all.Append(it->second);
    }
  }
  return all;
}

uint64_t DirBytes(const std::string& root) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

// ---- Output ----------------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// An ordered list of (name, value, unit), printed as a JSON object.
class MetricList {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  double Get(const std::string& name) const {
    for (const auto& m : items_) {
      if (m.name == name) return m.value;
    }
    return 0;
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      char num[64];
      snprintf(num, sizeof num, "%.17g",
               std::isfinite(items_[i].value) ? items_[i].value : 0.0);
      out += (i ? ", " : "") + Quote(items_[i].name) + ": {\"value\": " + num +
             ", \"unit\": " + Quote(items_[i].unit) + "}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

// End-to-end metrics: the same names on every workload.  "read" and "write"
// are the workload's read and write calls: hot_sync get / put, batch_async
// get_multi / window (256 put_async + fence), ingest read-back get (after
// reopen) / put, nvm_read get / update-burst put.  write_amp is device bytes
// written per live byte (distinct keys x (key + value)) over a span whose
// work does not depend on the op rate: the whole run where the time-bounded
// phase puts a fixed key space that reaches the device only as the final
// MemTable (a per-put-byte ratio would just be 1 / ops_per_s), and the
// set-up plus the first rounds on ingest (RankResult::amp_stats).  Latency
// means, not medians:
// about half the keys are remote, so a median falls between the local and
// the remote mode and jumps from one to the other run to run; the means are
// trimmed at the p99, which has its own metric.  Rates and latencies are
// medians over the run's buckets (RankResult).
MetricList EndToEnd(const Job& job, double peak_rss_mb) {
  MetricList m;
  const auto mean = [](const Samples& s) { return s.TrimmedMean(); };
  const auto p99 = [](const Samples& s) { return s.Percentile(99); };
  const auto dev_written = [](const obs::Snapshot& s) {
    return CountAll(s, "sim.dev.", ".bytes_written");
  };
  uint64_t amp_dev = 0, amp_live = 0;
  for (const RankResult& r : job.ranks) {
    amp_dev += dev_written(r.setup_stats);
    if (r.amp_stats) {
      amp_dev += dev_written(*r.amp_stats);
      amp_live += r.amp_live_keys * (kKeyLen + job.vallen);
    } else {
      amp_dev += dev_written(r.phase_stats) + dev_written(r.close_stats);
      amp_live += r.live_keys * (kKeyLen + job.vallen);
    }
  }
  m.Add("setup_s", Median(job.setup_s), "s");
  m.Add("ops_per_s", RateMedian(job), "1/s");
  m.Add("read_trim_mean_us", BucketMedian(job, &RankResult::read, mean), "us");
  m.Add("read_p99_us", BucketMedian(job, &RankResult::read, p99), "us");
  m.Add("write_trim_mean_us", BucketMedian(job, &RankResult::write, mean), "us");
  m.Add("write_p99_us", BucketMedian(job, &RankResult::write, p99), "us");
  m.Add("write_amp", Ratio(double(amp_dev), double(amp_live)), "B/B");
  m.Add("space_amp", Ratio(double(job.disk_bytes), double(job.live_bytes)), "B/B");
  m.Add("peak_rss_mb", peak_rss_mb, "MB");
  return m;
}

// The per-workload names of the end-to-end numbers, for the workloads they
// apply to (printed in the report, not part of the gated result).
MetricList Report(const Job& job, const MetricList& e2e) {
  MetricList m;
  const std::string& w = job.cfg.workload;
  auto lat = [&](const char* name, std::initializer_list<const char*> calls) {
    const Samples s = PoolCalls(job, calls);
    if (s.size() == 0) return;
    m.Add(std::string(name) + "_p50_us", s.Percentile(50), "us");
    m.Add(std::string(name) + "_p99_us", s.Percentile(99), "us");
    m.Add(std::string(name) + "_samples", double(s.size()), "count");
  };
  m.Add("setup_s", e2e.Get("setup_s"), "s");
  m.Add("ops_per_s", e2e.Get("ops_per_s"), "1/s");
  lat("get", {"get.local", "get.remote"});
  lat("get_local", {"get.local"});
  lat("get_remote", {"get.remote"});
  if (w != "batch_async") {
    lat("put", {"put.local", "put.remote"});
    lat("put_local", {"put.local"});
    lat("put_remote", {"put.remote"});
  }
  lat("get_multi", {"get_multi"});
  if (w == "batch_async") {
    m.Add("window_p50_us", PoolCalls(job, {"window"}).Percentile(50), "us");
  }
  if (w == "ingest") {
    std::vector<double> rounds;
    for (size_t k = 0; k < job.ranks[0].barrier_s.size(); ++k) {
      rounds.push_back(std::max(job.ranks[0].barrier_s[k],
                                k < job.ranks[1].barrier_s.size()
                                    ? job.ranks[1].barrier_s[k]
                                    : 0.0));
    }
    m.Add("barrier_s", Median(rounds), "s");
    m.Add("barrier_rounds", double(rounds.size()), "count");
    // User bytes over put plus barrier time (median round).
    m.Add("ingest_mb_per_s",
          e2e.Get("ops_per_s") * double(kKeyLen + job.vallen) / 1e6, "MB/s");
  }
  m.Add("write_amp", e2e.Get("write_amp"), "B/B");
  m.Add("space_amp", e2e.Get("space_amp"), "B/B");
  m.Add("peak_rss_mb", e2e.Get("peak_rss_mb"), "MB");
  const double attempted = double(job.ranks[0].attempted + job.ranks[1].attempted);
  const double failed = double(job.ranks[0].failed + job.ranks[1].failed);
  m.Add("error_rate", Ratio(failed, attempted), "1/op");
  return m;
}

// Mean duration of the named spans (optionally only local or remote ones).
struct SpanStats {
  double mean_us = 0, p99_us = 0;
};
SpanStats SpansOf(const Job& job, const char* name, int remote) {
  Samples s;
  for (const RankResult& r : job.ranks) {
    for (const Span& sp : r.spans) {
      if (std::strcmp(sp.name, name) == 0 && (remote < 0 || sp.remote == remote)) {
        s.Add(sp.end_ns - sp.start_ns);
      }
    }
  }
  return {s.Mean(), s.Percentile(99)};
}

// Per-layer metrics of a traced run.  core.* come from the benchmark's own
// spans (traced slices only); async/net/store/sim.* from the registry deltas
// of the timed phase, summed over both ranks; the store.* replay numbers
// from ReplayStore.
MetricList Layers(const Job& job, const ReplayResult& rp) {
  MetricList m;
  const obs::Snapshot ph = Merged(job, &RankResult::phase_stats);
  const std::string db = "db." + job.db_name + ".";
  uint64_t ops = 0, gets = 0, put_bytes = 0;
  double traced_ops = 0, traced_s = 0, untraced_ops = 0, untraced_s = 0;
  for (const RankResult& r : job.ranks) {
    ops += r.ops;
    gets += r.phase_gets;
    put_bytes += r.phase_user_bytes;
    traced_ops += double(r.traced_ops);
    traced_s += r.traced_s;
    untraced_ops += double(r.untraced_ops);
    untraced_s += r.untraced_s;
  }

  // core (benchmark spans)
  const double get_remote = SpansOf(job, "get", 1).mean_us;
  const double async_get = MeanOf(ph, "async.get_op_us");
  m.Add("core.get_remote_mean_us", get_remote, "us");
  m.Add("core.put_remote_mean_us", SpansOf(job, "put", 1).mean_us, "us");
  m.Add("core.get_local_mean_us", SpansOf(job, "get", 0).mean_us, "us");
  m.Add("core.put_local_p99_us", SpansOf(job, "put", 0).p99_us, "us");
  m.Add("core.fence_mean_us", SpansOf(job, "fence", -1).mean_us, "us");
  m.Add("core.barrier_s", SpansOf(job, "barrier", -1).mean_us * 1e-6, "s");
  m.Add("core.remote_get_self_us", get_remote > 0 ? get_remote - async_get : 0,
        "us");

  // async
  const uint64_t frames = Count(ph, "async.frames");
  const uint64_t framed_ops =
      Hist(ph, "async.batch_size").sum + Hist(ph, "async.get_batch_size").sum;
  m.Add("async.get_op_mean_us", async_get, "us");
  m.Add("async.put_op_mean_us", MeanOf(ph, "async.put_op_us"), "us");
  m.Add("async.ops_per_frame", Ratio(double(framed_ops), double(frames)), "ops");
  m.Add("async.op_errors", double(Count(ph, "async.op_errors")), "count");

  // net
  const double handler = MeanOf(ph, "net.handler_service_us");
  m.Add("net.handler_service_mean_us", handler, "us");
  m.Add("net.wire_queue_us", async_get > 0 ? async_get - handler : 0, "us");
  m.Add("net.msgs_per_op", Ratio(double(Count(ph, "sim.net.messages")), double(ops)),
        "msgs/op");
  m.Add("net.bytes_per_op", Ratio(double(Count(ph, "sim.net.bytes")), double(ops)),
        "B/op");
  m.Add("net.retries", double(Count(ph, "net.req.retries")), "count");
  m.Add("net.timeouts", double(Count(ph, "net.req.timeouts")), "count");

  // store (registry)
  const double lookups =
      double(Count(ph, db + "gets_local") + Count(ph, db + "gets_remote"));
  const double cache_hits = double(Count(ph, db + "cache_local.hits"));
  m.Add("store.memtable_hit_ratio",
        Ratio(double(Count(ph, db + "memtable_hits")), lookups), "ratio");
  m.Add("store.cache_hit_ratio",
        Ratio(cache_hits, cache_hits + double(Count(ph, db + "cache_local.misses"))),
        "ratio");
  m.Add("store.bloom_negative_ratio",
        Ratio(double(Count(ph, db + "bloom_negatives")),
              double(Count(ph, db + "bloom_checks"))),
        "ratio");
  m.Add("store.foreign_hits_per_remote_get",
        Ratio(double(Count(ph, db + "foreign_sstable_hits")),
              double(Count(ph, db + "gets_remote"))),
        "ratio");
  m.Add("store.flushes", double(Count(ph, db + "flushes")), "count");
  m.Add("store.flush_mean_us", MeanOf(ph, "store.flush_us"), "us");
  m.Add("store.migration_mean_us", MeanOf(ph, "store.migration_us"), "us");
  m.Add("store.compactions", double(Count(ph, db + "compactions")), "count");
  m.Add("store.compaction_s", double(Hist(ph, "store.compaction_us").sum) * 1e-6,
        "s");
  m.Add("store.compaction_rewrite_ratio",
        Ratio(double(Count(ph, "store.compaction_written_bytes")),
              double(Count(ph, "store.flush_bytes"))),
        "B/B");

  // store (replay)
  m.Add("store.sstable_get_mean_us", rp.sstable_get_mean_us, "us");
  m.Add("store.bloom_probe_ns", rp.bloom_probe_ns, "ns");
  m.Add("store.crc_mb_per_s", rp.crc_mb_per_s, "MB/s");
  m.Add("store.memtable_get_ns", rp.memtable_get_ns, "ns");

  // sim (device counts; the time scale is 0, so no modelled time)
  m.Add("sim.dev.read_ops_per_get",
        Ratio(double(CountAll(ph, "sim.dev.", ".read_ops")), double(gets)), "ops");
  m.Add("sim.dev.bytes_read_per_get",
        Ratio(double(CountAll(ph, "sim.dev.", ".bytes_read")), double(gets)), "B");
  m.Add("sim.dev.bytes_written_per_user_byte",
        Ratio(double(CountAll(ph, "sim.dev.", ".bytes_written")), double(put_bytes)),
        "B/B");
  m.Add("sim.dev.write_ops", double(CountAll(ph, "sim.dev.", ".write_ops")), "count");

  // Tracing overhead: op rate in traced vs. untraced slices of the phase.
  const double traced_rate = Ratio(traced_ops, traced_s);
  const double untraced_rate = Ratio(untraced_ops, untraced_s);
  m.Add("trace.overhead_pct",
        untraced_rate > 0 ? (1 - traced_rate / untraced_rate) * 100 : 0, "%");
  m.Add("trace.ops_per_s_traced", traced_rate * kRanks, "1/s");
  m.Add("trace.ops_per_s_untraced", untraced_rate * kRanks, "1/s");
  m.Add("trace.spans", double(job.ranks[0].spans.size() + job.ranks[1].spans.size()),
        "count");
  m.Add("trace.spans_dropped",
        double(job.ranks[0].spans_dropped + job.ranks[1].spans_dropped), "count");
  return m;
}

// Writes the spans as TSV: rank, index, name, start, end (ns from the first
// span), parent index, op id, locality (1 remote, 0 local, -1 n/a).
bool WriteSpans(const Job& job, const std::string& path) {
  FILE* f = fopen(path.c_str(), "w");
  if (!f) return false;
  int64_t base = INT64_MAX;
  for (const RankResult& r : job.ranks) {
    if (!r.spans.empty()) base = std::min(base, r.spans.front().start_ns);
  }
  fprintf(f, "rank\tindex\tname\tstart_ns\tend_ns\tparent\top\tremote\n");
  for (int rank = 0; rank < kRanks; ++rank) {
    const auto& spans = job.ranks[rank].spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      fprintf(f, "%d\t%zu\t%s\t%lld\t%lld\t%d\t%llu\t%d\n", rank, i, s.name,
              static_cast<long long>(s.start_ns - base),
              static_cast<long long>(s.end_ns - base), s.parent,
              static_cast<unsigned long long>(s.op), s.remote);
    }
  }
  return fclose(f) == 0;
}

papyrus::sim::Topology JobTopology() {
  papyrus::sim::Topology topo;
  topo.nranks = kRanks;
  topo.ranks_per_node = kRanks;  // one node: one storage group
  return topo;
}

// Init, open and preload on one rank; returns this rank's set-up time.
double Setup(Job& job, const Workload& w, papyrus::net::RankContext& ctx,
             papyruskv_db_t* db) {
  ctx.comm.Barrier();
  const int64_t t0 = NowNs();
  Must(papyruskv_init(nullptr, nullptr, job.repo_spec.c_str()),
       "papyruskv_init");
  w.setup(job, ctx, job.ranks[ctx.rank], db);
  return (NowNs() - t0) * 1e-9;
}

// One discarded set-up, in a child process so that it leaves no trace in
// this process's memory peak or allocator state.  Returns the slower rank's
// set-up time, or a negative value when it failed.
double SetupInChild(Job& job, const Workload& w) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  const pid_t pid = fork();  // no threads yet: the ranks start after this
  if (pid == 0) {
    close(fds[0]);
    double rank_s[kRanks] = {-1, -1};
    try {
      papyrus::net::RunRanks(JobTopology(), [&](papyrus::net::RankContext& ctx) {
        papyruskv_db_t db = -1;
        rank_s[ctx.rank] = Setup(job, w, ctx, &db);
        Must(papyruskv_destroy(db, nullptr), "papyruskv_destroy");
        Must(papyruskv_finalize(), "papyruskv_finalize");
      });
    } catch (const std::exception& e) {
      fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
      rank_s[0] = -1;
    }
    const double s = std::min(rank_s[0], rank_s[1]) < 0
                         ? -1
                         : std::max(rank_s[0], rank_s[1]);
    const bool sent = write(fds[1], &s, sizeof s) == sizeof s;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double s = -1;
  if (pid < 0 || read(fds[0], &s, sizeof s) != sizeof s) s = -1;
  close(fds[0]);
  if (pid > 0) waitpid(pid, nullptr, 0);
  return s;
}

void RankMain(Job& job, const Workload& w, papyrus::net::RankContext& ctx) {
  RankResult& res = job.ranks[ctx.rank];
  papyruskv_db_t db = -1;
  res.setup_s = Setup(job, w, ctx, &db);
  res.setup_stats = StatsSnapshot();
  Must(papyruskv_stats_reset(), "papyruskv_stats_reset");
  ctx.comm.Barrier();
  w.phase(job, ctx, res, db);
  ctx.comm.Barrier();
  res.phase_stats = StatsSnapshot();
  Must(papyruskv_stats_reset(), "papyruskv_stats_reset");
  w.finish(job, ctx, res, db);
  ctx.comm.Barrier();
  res.close_stats = StatsSnapshot();
  if (ctx.rank == 0) job.disk_bytes = DirBytes(job.repo_root);
  Must(papyruskv_finalize(), "papyruskv_finalize");
}

int Usage(const char* why) {
  fprintf(stderr,
          "perfbench: %s\nusage: perfbench --workload NAME --seed N "
          "--seconds S --trace 0|1 --dir DIR [--smoke] [--faults SPEC]\n",
          why);
  return 2;
}

int Main(int argc, char** argv) {
  Job job;
  std::string faults;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") job.cfg.workload = next();
    else if (a == "--seed") job.cfg.seed = std::strtoull(next(), nullptr, 10);
    else if (a == "--seconds") job.cfg.seconds = std::atof(next());
    else if (a == "--trace") job.cfg.trace = std::atoi(next()) != 0;
    else if (a == "--dir") job.cfg.dir = next();
    else if (a == "--smoke") job.cfg.smoke = true;
    else if (a == "--faults") faults = next();
    else return Usage(("unknown argument " + a).c_str());
  }
  const Workload* w = FindWorkload(job.cfg.workload);
  if (!w) return Usage("unknown --workload");
  if (job.cfg.dir.empty()) return Usage("--dir is required");
  if (job.cfg.seconds <= 0) return Usage("--seconds must be positive");
  job.cfg.setup_reps = job.cfg.smoke ? 1 : w->setup_reps;
  PinEnvironment(faults);

  job.repo_root = job.cfg.dir + "/repo";
  job.repo_spec = "nvme:" + job.repo_root;
  std::error_code ec;
  fs::remove_all(job.repo_root, ec);
  PrepareJob(job);

  // Set-up runs setup_reps times and setup_s is the median; all copies but
  // the measured one are made and destroyed in child processes first.
  for (int rep = 1; rep < job.cfg.setup_reps; ++rep) {
    const double s = SetupInChild(job, *w);
    if (s < 0) {
      fprintf(stderr, "perfbench: set-up repetition %d failed\n", rep);
      fs::remove_all(job.repo_root, ec);
      return 2;
    }
    job.setup_s.push_back(s);
  }
  try {
    papyrus::net::RunRanks(JobTopology(), [&](papyrus::net::RankContext& ctx) {
      RankMain(job, *w, ctx);
    });
  } catch (const std::exception& e) {
    fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    fs::remove_all(job.repo_root, ec);
    return 2;
  }
  for (const RankResult& r : job.ranks) {
    job.live_bytes += r.live_keys * (kKeyLen + job.vallen);
  }
  job.setup_s.push_back(std::max(job.ranks[0].setup_s, job.ranks[1].setup_s));

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const MetricList e2e = EndToEnd(job, static_cast<double>(ru.ru_maxrss) / 1024);
  const MetricList report = Report(job, e2e);
  std::string layers = "{}", spans_file;
  if (job.cfg.trace) {
    layers = Layers(job, ReplayStore(job)).Json();
    spans_file = job.cfg.dir + "/spans_" + job.cfg.workload + ".tsv";
    if (!WriteSpans(job, spans_file)) spans_file.clear();
  }
  fs::remove_all(job.repo_root, ec);

  uint64_t attempted = 0, failed = 0;
  std::string errors;
  for (const RankResult& r : job.ranks) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) {
      errors += (errors.empty() ? "" : ", ") + Quote(e);
    }
  }
  const std::string flags = PERFBENCH_CXX_FLAGS;
  const bool optimized = flags.find("-O0") == std::string::npos &&
                         flags.find("-O") != std::string::npos;
  printf(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %.17g, \"trace\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"errors\": [%s], "
      "\"e2e\": %s, \"report\": %s, \"layers\": %s, \"spans_file\": %s, "
      "\"env\": {\"nproc\": %ld, \"compiler\": %s, \"build_type\": %s, "
      "\"cxx_flags\": %s, \"optimized\": %s, \"ranks\": %d, "
      "\"setup_reps\": %d}}\n",
      Quote(job.cfg.workload).c_str(),
      static_cast<unsigned long long>(job.cfg.seed), job.cfg.seconds,
      job.cfg.trace ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), errors.c_str(),
      e2e.Json().c_str(), report.Json().c_str(), layers.c_str(),
      Quote(spans_file).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      Quote(PERFBENCH_COMPILER).c_str(), Quote(PERFBENCH_BUILD_TYPE).c_str(),
      Quote(flags).c_str(), optimized ? "true" : "false", kRanks,
      job.cfg.setup_reps);
  return failed == 0 && attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
