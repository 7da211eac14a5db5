// repl_failover — put throughput across a kill-and-promote cycle
// (DESIGN.md §12).
//
// Three ranks (the default) with k=2 intra-group replication stream puts
// over the whole key space in fixed windows.  Midway, the last rank is
// fail-stopped via the rank.crash failpoint; the survivors keep writing.
// The first post-crash op against each dead hash slot pays the (tight)
// timeout ladder plus the election that promotes the victim's follower,
// after which the promoted-owner cache routes at full speed — so the
// expected shape is a bounded dip, not a collapse.
//
// Every window is bracketed by barriers, so rank 0 times each one between
// them and every rank counts the puts it completed inside it.  Rank 0 sums
// the counts and reads the shape off the per-window put rate: "before" is
// the fastest window before the crash, "dip" the crash window, and "after"
// the fastest window after it.  BENCH_repl_failover.json carries the six
// rates as bench.w<k>_ops next to the before/dip/after aggregate.  The
// run's per-rank dumps (stats, trace, flight) stay in <repo>/obs; the
// victim's flight.rank<k>.json records the crash.
//
//   repl_failover [--ranks=N(default 3)] [--iters=N(puts/rank/window)]
//                 [--vallen=N] [--repo=PATH]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "benchlib/flags.h"
#include "benchlib/report.h"
#include "common/coding.h"
#include "common/timer.h"
#include "core/papyruskv.h"
#include "core/runtime.h"
#include "fault/failpoint.h"
#include "net/runtime.h"
#include "obs/metrics.h"

using namespace papyrus;
using namespace papyrus::bench;

namespace {

constexpr int kWindows = 6;
constexpr int kCrashAfter = 2;  // windows completed before the victim dies

}  // namespace

int main(int argc, char** argv) {
  Flags defaults;
  defaults.ranks = 3;
  Flags flags = Flags::Parse(argc, argv, defaults);
  const int iters = flags.iters > 0 ? flags.iters : 500;
  const size_t vallen = flags.vallen > 0 ? flags.vallen : 100;
  const std::string repo = "nvme:" + flags.repo + "/repl_failover";
  ApplyScale(flags, 0);  // software cost only, like micro_kv
  const int victim = flags.ranks - 1;

  // k=2 replication with a tight retry ladder: the bench measures the
  // failover dip, and that dip is (timeouts x retries) + election, so the
  // knobs are part of the experiment's definition, not tuning noise.
  // The timeout is overridable (overwrite=0): at higher rank counts on a
  // starved host the promoted rank serves two partitions, and 50ms can sit
  // below its loaded service time — every request then times out, retries,
  // and adds more load (a livelock, not a dip).
  setenv("PAPYRUSKV_REPLICAS", "2", 1);
  setenv("PAPYRUSKV_TIMEOUT_MS", "50", 0);
  setenv("PAPYRUSKV_RETRY_MAX", "2", 0);
  const std::string obs_dir = flags.repo + "/obs";
  setenv("PAPYRUSKV_OBS", obs_dir.c_str(), 1);

  printf("repl_failover: %d ranks (k=2), %d windows x %d puts/rank, "
         "rank %d dies after window %d, dumps -> %s\n",
         flags.ranks, kWindows, iters, victim, kCrashAfter, obs_dir.c_str());

  // Filled on rank 0: puts/s per window, and the shape read off them.
  std::vector<double> ops(kWindows, 0);
  double before = 0, dip = 0, after = 0;
  RunKvJob(flags.ranks, /*ranks_per_node=*/flags.ranks, repo,
           [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    BenchCheck(papyruskv_option_init(&opt), "papyruskv_option_init");
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    opt.memtable_size = static_cast<size_t>(kWindows) *
                        static_cast<size_t>(iters + 1024) * (vallen + 64);
    papyruskv_db_t db;
    BenchCheck(papyruskv_open("replbench", PAPYRUSKV_CREATE | PAPYRUSKV_RDWR,
                              &opt, &db),
               "papyruskv_open");
    const std::string& value = ValueBlob(vallen);

    // Per window: this rank's completed puts, and (rank 0) the window's
    // length between the barriers that bracket it.
    std::vector<uint64_t> done(kWindows, 0);
    std::vector<uint64_t> window_us(kWindows, 0);
    bool dead = false;
    uint64_t t0 = 0;
    for (int w = 0; w <= kWindows; ++w) {
      ctx.comm.Barrier();
      if (w > 0) window_us[w - 1] = NowMicros() - t0;
      if (w == kWindows) break;
      if (w == kCrashAfter && ctx.rank == 0) {
        const std::string spec =
            "rank.crash=rank" + std::to_string(victim) + "@op1";
        if (!fault::Registry::Instance().Configure(spec, 1234).ok()) {
          throw std::runtime_error("failed to arm " + spec);
        }
      }
      ctx.comm.Barrier();
      t0 = NowMicros();

      for (int i = 0; i < iters && !dead; ++i) {
        const std::string k = "w" + std::to_string(w) + "/r" +
                              std::to_string(ctx.rank) + "." +
                              std::to_string(i);
        const int rc = papyruskv_put(db, k.data(), k.size(), value.data(),
                                     value.size());
        if (rc != PAPYRUSKV_SUCCESS) {
          // Only the victim may fail, and only at its injected crash; a
          // survivor's put rides detection -> promotion -> retry inside
          // the call and must come back SUCCESS.
          if (ctx.rank != victim) BenchCheck(rc, "papyruskv_put");
          dead = true;
        } else {
          ++done[w];
        }
      }
    }

    // Every rank (the dead one included) contributes its counts.
    std::string mine(8 * kWindows, '\0');
    for (int w = 0; w < kWindows; ++w) EncodeFixed64(&mine[8 * w], done[w]);
    std::vector<std::string> all;
    ctx.comm.Allgather(Slice(mine), &all);
    if (ctx.rank == 0) {
      auto& reg = core::KvRuntime::Current()->metrics();
      for (int w = 0; w < kWindows; ++w) {
        uint64_t puts = 0;
        for (const std::string& counts : all) {
          puts += DecodeFixed64(counts.data() + 8 * w);
        }
        ops[w] = window_us[w] > 0 ? static_cast<double>(puts) * 1e6 /
                                        static_cast<double>(window_us[w])
                                  : 0;
        reg.GetGauge("bench.w" + std::to_string(w) + "_ops")
            .Set(static_cast<int64_t>(ops[w]));
      }
      before = *std::max_element(ops.begin(), ops.begin() + kCrashAfter);
      dip = ops[kCrashAfter];
      after = *std::max_element(ops.begin() + kCrashAfter + 1, ops.end());
      reg.GetGauge("bench.before_krps").Set(static_cast<int64_t>(before / 1e3));
      reg.GetGauge("bench.dip_krps").Set(static_cast<int64_t>(dip / 1e3));
      reg.GetGauge("bench.after_krps").Set(static_cast<int64_t>(after / 1e3));
      reg.GetGauge("bench.after_vs_before_x100")
          .Set(static_cast<int64_t>(before > 0 ? after / before * 100 : 0));
    }
    WriteBenchMetrics(ctx.comm, "repl_failover");
    BenchCheck(papyruskv_close(db), "papyruskv_close");
  });

  Table table("repl_failover: put rate per window",
              {"window", "puts/s", "phase"});
  for (int w = 0; w < kWindows; ++w) {
    table.AddRow({std::to_string(w), Table::Num(ops[w], 0),
                  w < kCrashAfter    ? "before"
                  : w == kCrashAfter ? "dip (crash)"
                                     : "after"});
  }
  table.Print();
  printf("before %.0f puts/s, dip %.0f puts/s, after %.0f puts/s\n", before,
         dip, after);
  CleanupRepo(repo);
  return 0;
}
