// micro_kv_async — remote-put throughput: one-round-trip-per-op synchronous
// puts vs the async submission pipeline's same-destination batching
// (DESIGN.md §9).
//
// Every rank streams puts whose keys hash to its neighbour rank, so every
// operation is a remote one.  The synchronous series pays one put_batch
// round trip per op (sequential consistency); the async series submits
// fire-and-forget papyruskv_put_async and seals with papyruskv_fence, so
// consecutive same-destination submissions coalesce into shared frames.
// Series vary the batching knobs (PAPYRUSKV_BATCH_WINDOW_US /
// PAPYRUSKV_BATCH_MAX); each series is its own job because the pipeline
// reads the knobs once at startup.
//
// The headline series (200us window, default max) also snapshots the
// metrics registry to BENCH_micro_kv_async.json with the measured
// throughputs folded in as bench.* gauges, so the sync-vs-async ratio is
// part of the committed results trajectory.
//
//   micro_kv_async [--ranks=N] [--iters=N] [--vallen=N] [--repo=PATH]
//
// Defaults: 8 ranks (the Flags default), 2000 puts/rank, 100 B values.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "benchlib/flags.h"
#include "benchlib/report.h"
#include "common/timer.h"
#include "core/papyruskv.h"
#include "core/runtime.h"
#include "net/runtime.h"
#include "obs/metrics.h"
#include "sim/device_model.h"
#include "sim/storage.h"

using namespace papyrus;
using namespace papyrus::bench;

namespace {

// Keys look like "d<rank>/...": the destination rank is explicit, so the
// bench controls exactly which ops are remote (paper §2.4 custom hashing).
uint64_t DestRankHash(const char* key, size_t keylen) {
  uint64_t r = 0;
  for (size_t i = 1; i < keylen && key[i] != '/'; ++i) {
    r = r * 10 + static_cast<uint64_t>(key[i] - '0');
  }
  return r;
}

struct Series {
  const char* label;
  bool async_api;
  int window_us;   // PAPYRUSKV_BATCH_WINDOW_US (async series only)
  int batch_max;   // PAPYRUSKV_BATCH_MAX (async series only)
};

struct SeriesResult {
  double seconds = 0;      // slowest rank's put-phase time
  uint64_t frames = 0;     // wire frames sent by rank 0's pipeline
  double ops_per_frame = 0;
};

SeriesResult RunSeries(const Series& s, const Flags& flags, int iters,
                       size_t vallen, const std::string& repo,
                       bool write_metrics, double sync_krps) {
  if (s.async_api) {
    setenv("PAPYRUSKV_BATCH_WINDOW_US", std::to_string(s.window_us).c_str(), 1);
    setenv("PAPYRUSKV_BATCH_MAX", std::to_string(s.batch_max).c_str(), 1);
  } else {
    unsetenv("PAPYRUSKV_BATCH_WINDOW_US");
    unsetenv("PAPYRUSKV_BATCH_MAX");
  }

  SeriesResult out;
  RunKvJob(flags.ranks, /*ranks_per_node=*/flags.ranks, repo,
           [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    BenchCheck(papyruskv_option_init(&opt), "papyruskv_option_init");
    opt.consistency = PAPYRUSKV_SEQUENTIAL;  // sync puts = one RTT each
    opt.hash = DestRankHash;
    // Never rotate a MemTable: the series isolate the wire round trips,
    // not flush I/O.
    opt.memtable_size =
        static_cast<size_t>(iters + 1024) * (vallen + 64) * 2;
    papyruskv_db_t db;
    BenchCheck(papyruskv_open("masync", PAPYRUSKV_CREATE | PAPYRUSKV_RDWR,
                              &opt, &db),
               "papyruskv_open");

    // Every op targets the neighbour rank — all remote.
    const int peer = (ctx.rank + 1) % ctx.size();
    std::vector<std::string> keys;
    keys.reserve(iters);
    for (int i = 0; i < iters; ++i) {
      keys.push_back("d" + std::to_string(peer) + "/k" +
                     std::to_string(ctx.rank) + "." + std::to_string(i));
    }
    const std::string& value = ValueBlob(vallen);

    auto& reg = papyrus::core::KvRuntime::Current()->metrics();
    const uint64_t frames_before = reg.GetCounter("async.frames").Value();

    BenchCheck(papyruskv_barrier(db, PAPYRUSKV_MEMTABLE), "papyruskv_barrier");
    Stopwatch sw;
    for (const auto& k : keys) {
      if (s.async_api) {
        BenchCheck(papyruskv_put_async(db, k.data(), k.size(), value.data(),
                                       value.size(), nullptr),
                   "papyruskv_put_async");
      } else {
        BenchCheck(papyruskv_put(db, k.data(), k.size(), value.data(),
                                 value.size()),
                   "papyruskv_put");
      }
    }
    // Both series pay the completion fence, so the async numbers include
    // draining every in-flight batch.
    BenchCheck(papyruskv_fence(db), "papyruskv_fence");
    const RankStats t = GatherStats(ctx.comm, sw.ElapsedSeconds());

    if (ctx.rank == 0) {
      out.seconds = t.max;
      out.frames = reg.GetCounter("async.frames").Value() - frames_before;
      out.ops_per_frame =
          out.frames > 0 ? static_cast<double>(iters) / out.frames : 0;
      if (write_metrics) {
        const uint64_t total = static_cast<uint64_t>(iters) * flags.ranks;
        reg.GetGauge("bench.sync_put_krps")
            .Set(static_cast<int64_t>(sync_krps));
        reg.GetGauge("bench.async_put_krps")
            .Set(static_cast<int64_t>(Krps(total, t.max)));
        reg.GetGauge("bench.async_speedup_x100")
            .Set(static_cast<int64_t>(Krps(total, t.max) / sync_krps * 100));
      }
    }
    if (write_metrics) WriteBenchMetrics(ctx.comm, "micro_kv_async");

    BenchCheck(papyruskv_close(db), "papyruskv_close");
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const int iters = flags.iters > 0 ? flags.iters : 2000;
  const size_t vallen = flags.vallen > 0 ? flags.vallen : 100;
  const std::string repo = "nvme:" + flags.repo + "/micro_kv_async";
  ApplyScale(flags, 0);  // software cost only, like micro_kv

  printf("micro_kv_async: %d ranks, %d remote puts/rank, %zuB values\n",
         flags.ranks, iters, vallen);

  // The headline async series runs last and writes the metrics snapshot.
  const std::vector<Series> series = {
      {"sync put", false, 0, 0},
      {"async w=0", true, 0, 256},
      {"async w=200us max=32", true, 200, 32},
      {"async w=200us", true, 200, 256},
  };

  const uint64_t total = static_cast<uint64_t>(iters) * flags.ranks;
  double sync_krps = 0;
  Table t("micro_kv_async remote puts",
          {"series", "KRPS", "us/op (max rank)", "ops/frame", "speedup"});
  for (size_t i = 0; i < series.size(); ++i) {
    const bool last = i + 1 == series.size();
    const SeriesResult r =
        RunSeries(series[i], flags, iters, vallen, repo, last, sync_krps);
    const double krps = Krps(total, r.seconds);
    if (!series[i].async_api) sync_krps = krps;
    t.AddRow({series[i].label, Table::Num(krps, 1),
              Table::Num(r.seconds / iters * 1e6, 3),
              series[i].async_api ? Table::Num(r.ops_per_frame, 1) : "-",
              series[i].async_api ? Table::Num(krps / sync_krps, 2) + "x"
                                  : "1.00x"});
  }
  t.Print();
  CleanupRepo(repo);
  return 0;
}
