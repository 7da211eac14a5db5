// micro_kv — put/get hot-path microbenchmark through the full C API.
//
// Unlike the figure benches this runs with the device/interconnect time
// scale at 0 and a MemTable large enough to avoid flushes, so the numbers
// isolate the *software* cost of one put / one get on the local path —
// the instrumentation hot path.  Used to bound observability overhead
// (EXPERIMENTS.md): run before and after a change that touches the per-op
// bookkeeping and compare KRPS.
//
//   micro_kv [--ranks=N] [--iters=N] [--vallen=N] [--repo=PATH]
//
// Defaults: 1 rank, 200000 ops/rank, 100 B values.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "benchlib/flags.h"
#include "benchlib/report.h"
#include "common/timer.h"
#include "core/papyruskv.h"
#include "net/runtime.h"
#include "sim/device_model.h"
#include "sim/storage.h"

using namespace papyrus;
using namespace papyrus::bench;

int main(int argc, char** argv) {
  Flags defaults;
  defaults.ranks = 1;
  Flags flags = Flags::Parse(argc, argv, defaults);
  const int ranks = flags.ranks;
  const int iters = flags.iters > 0 ? flags.iters : 200000;
  const size_t vallen = flags.vallen > 0 ? flags.vallen : 100;
  const std::string repo = flags.repo + "/micro_kv";

  sim::Storage::RemoveDirRecursive(repo).IgnoreError();
  sim::SetTimeScale(0);

  printf("micro_kv: %d rank(s), %d ops/rank, %zuB values (hot path, no "
         "simulated delays)\n", ranks, iters, vallen);

  net::RunRanks(ranks, [&](net::RankContext& ctx) {
    BenchCheck(papyruskv_init(nullptr, nullptr, repo.c_str()), "papyruskv_init");

    papyruskv_option_t opt;
    BenchCheck(papyruskv_option_init(&opt), "papyruskv_option_init");
    // Big enough that the workload never rotates a MemTable: we are
    // measuring the per-op software path, not flush I/O.
    opt.memtable_size = static_cast<size_t>(iters + 1024) * (vallen + 64);
    papyruskv_db_t db;
    BenchCheck(papyruskv_open("micro", PAPYRUSKV_CREATE | PAPYRUSKV_RDWR, &opt, &db), "papyruskv_open");

    // Rank-local keys only: the put/get fast path with no network hop.
    std::vector<std::string> keys;
    keys.reserve(iters);
    for (int i = 0; i < iters; ++i) {
      keys.push_back("r" + std::to_string(ctx.rank) + "/k" +
                     std::to_string(i));
    }
    const std::string value(vallen, 'v');

    BenchCheck(papyruskv_barrier(db, PAPYRUSKV_MEMTABLE), "papyruskv_barrier");
    Stopwatch put_sw;
    for (const auto& k : keys) {
      BenchCheck(papyruskv_put(db, k.data(), k.size(), value.data(), value.size()), "papyruskv_put");
    }
    const double put_s = put_sw.ElapsedSeconds();

    BenchCheck(papyruskv_barrier(db, PAPYRUSKV_MEMTABLE), "papyruskv_barrier");
    std::string out(vallen, 0);
    Stopwatch get_sw;
    for (const auto& k : keys) {
      char* buf = out.data();
      size_t len = out.size();
      BenchCheck(papyruskv_get(db, k.data(), k.size(), &buf, &len), "papyruskv_get");
    }
    const double get_s = get_sw.ElapsedSeconds();

    RankStats put_stats = GatherStats(ctx.comm, put_s);
    RankStats get_stats = GatherStats(ctx.comm, get_s);
    if (ctx.rank == 0) {
      const uint64_t total = static_cast<uint64_t>(iters) * ranks;
      Table t("micro_kv hot path", {"op", "KRPS", "us/op (max rank)"});
      t.AddRow({"put", Table::Num(Krps(total, put_stats.max), 1),
                Table::Num(put_stats.max / iters * 1e6, 3)});
      t.AddRow({"get", Table::Num(Krps(total, get_stats.max), 1),
                Table::Num(get_stats.max / iters * 1e6, 3)});
      t.Print();
    }

    WriteBenchMetrics(ctx.comm, "micro_kv");

    BenchCheck(papyruskv_close(db), "papyruskv_close");
    BenchCheck(papyruskv_finalize(), "papyruskv_finalize");
  });
  return 0;
}
