// repl_failover — put throughput across a kill-and-promote cycle
// (DESIGN.md §12), measured by the timeline sampler (DESIGN.md §13).
//
// Three ranks with k=2 intra-group replication stream puts over the whole
// key space in fixed windows.  Midway, rank 2 is fail-stopped via the
// rank.crash failpoint; the survivors keep writing.  The first post-crash
// op against each dead hash slot pays the (tight) timeout ladder plus the
// election that promotes rank 2's follower, after which the promoted-owner
// cache routes at full speed — so the expected shape is a bounded dip,
// not a collapse.
//
// Instead of hand-rolled stopwatch windows, the bench runs with
// PAPYRUSKV_OBS=<repo>/obs,20 and derives everything from the sampler: each
// rank allgathers its timeline-v1 JSON, rank 0 merges the series onto the
// shared steady clock (the same path papyrus_inspect --timeline takes) and
// reads before/dip/after off the merged per-window put-rate series.  The
// merged series lands in BENCH_repl_failover.json as bench.tl.w* gauges
// next to the before/dip/after aggregate, so the whole failover shape is
// part of the committed results trajectory.  The run's per-rank dumps
// (timeline, flight, stats, trace) stay in <repo>/obs for
// `papyrus_inspect --timeline <repo>/obs`.
//
//   repl_failover [--ranks=N] [--iters=N(puts/rank/window)] [--vallen=N]
//                 [--repo=PATH]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "benchlib/flags.h"
#include "benchlib/report.h"
#include "core/papyruskv.h"
#include "core/runtime.h"
#include "fault/failpoint.h"
#include "net/runtime.h"
#include "obs/metrics.h"
#include "obs/timeline.h"

using namespace papyrus;
using namespace papyrus::bench;

namespace {

constexpr int kWindows = 6;
constexpr int kCrashAfter = 2;  // windows completed before rank 2 dies

// Reads the failover shape off the merged per-window put-rate series:
// the dip is the slowest non-empty interior window, "before" the fastest
// window preceding it, "after" the fastest one following it.  Empty edge
// windows (grid slots before the first / after the last sample) are
// ignored.  Returns false when the series is too short to bracket a dip.
bool FailoverShape(const std::vector<double>& ops, double* before,
                   double* dip, double* after) {
  size_t lo = 0, hi = ops.size();
  while (lo < hi && ops[lo] <= 0) ++lo;
  while (hi > lo && ops[hi - 1] <= 0) --hi;
  if (hi - lo < 3) return false;
  size_t dip_w = lo + 1;
  for (size_t w = lo + 1; w + 1 < hi; ++w) {
    if (ops[w] < ops[dip_w]) dip_w = w;
  }
  *before = 0;
  for (size_t w = lo; w < dip_w; ++w) {
    if (ops[w] > *before) *before = ops[w];
  }
  *dip = ops[dip_w];
  *after = 0;
  for (size_t w = dip_w + 1; w < hi; ++w) {
    if (ops[w] > *after) *after = ops[w];
  }
  return *before > 0 && *after > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  if (flags.ranks <= 0) flags.ranks = 3;
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
  // The sampler IS the measurement: 20ms windows resolve a dip whose
  // floor is one 50ms timeout ladder.
  const std::string obs_dir = flags.repo + "/obs";
  setenv("PAPYRUSKV_OBS", (obs_dir + ",20").c_str(), 1);

  printf("repl_failover: %d ranks (k=2), %d windows x %d puts/rank, "
         "rank %d dies after window %d, 20ms sampler -> %s\n",
         flags.ranks, kWindows, iters, victim, kCrashAfter, obs_dir.c_str());

  std::string rendered;  // rank 0's merged-lane tables, printed post-job
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

    bool dead = false;
    for (int w = 0; w < kWindows; ++w) {
      ctx.comm.Barrier();
      if (w == kCrashAfter && ctx.rank == 0) {
        const std::string spec =
            "rank.crash=rank" + std::to_string(victim) + "@op1";
        if (!fault::Registry::Instance().Configure(spec, 1234).ok()) {
          throw std::runtime_error("failed to arm " + spec);
        }
      }
      ctx.comm.Barrier();

      if (!dead) {
        for (int i = 0; i < iters; ++i) {
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
            break;
          }
        }
      }
    }

    // Every rank (the dead one included — its sampler kept ticking)
    // contributes its series; rank 0 merges them on the shared clock.
    const std::string mine = core::KvRuntime::Current()->TimelineJson();
    std::vector<std::string> all;
    ctx.comm.Allgather(Slice(mine), &all);
    if (ctx.rank == 0) {
      std::vector<obs::TimelineDoc> docs;
      for (const std::string& text : all) {
        obs::TimelineDoc doc;
        if (obs::ParseTimelineJson(text, &doc)) docs.push_back(std::move(doc));
      }
      const obs::MergedTimeline merged = obs::MergeTimelines(docs);
      rendered = obs::RenderTimelineTables(merged);
      const std::vector<double> ops = obs::WindowOpsPerSec(merged);
      double before = 0, dip = 0, after = 0;
      if (!FailoverShape(ops, &before, &dip, &after)) {
        fprintf(stderr,
                "repl_failover: merged series too short for a dip "
                "(%zu windows) — is the sampler on?\n", ops.size());
      }
      auto& reg = core::KvRuntime::Current()->metrics();
      reg.GetGauge("bench.before_krps").Set(static_cast<int64_t>(before / 1e3));
      reg.GetGauge("bench.dip_krps").Set(static_cast<int64_t>(dip / 1e3));
      reg.GetGauge("bench.after_krps").Set(static_cast<int64_t>(after / 1e3));
      reg.GetGauge("bench.after_vs_before_x100")
          .Set(static_cast<int64_t>(before > 0 ? after / before * 100 : 0));
      reg.GetGauge("bench.tl.window_us")
          .Set(static_cast<int64_t>(merged.window_us));
      for (size_t w = 0; w < ops.size(); ++w) {
        char name[32];
        snprintf(name, sizeof(name), "bench.tl.w%02zu_ops", w);
        reg.GetGauge(name).Set(static_cast<int64_t>(ops[w]));
      }
    }
    WriteBenchMetrics(ctx.comm, "repl_failover");
    BenchCheck(papyruskv_close(db), "papyruskv_close");
  });

  fputs(rendered.c_str(), stdout);
  CleanupRepo(repo);
  return 0;
}
