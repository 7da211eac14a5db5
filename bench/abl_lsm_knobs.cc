// Ablation E8 — LSM design knobs (DESIGN.md §5 items 1 and 3).
//
// Sweeps the design choices the paper motivates but does not isolate:
//   * bloom filter on/off — the "skip the SSTable" pre-check (§2.4);
//   * local cache on/off — the SSTable-hit cache (§2.6);
//   * MemTable threshold — fewer, larger SSTables vs many small ones;
//   * compaction trigger — table count the gets must walk.
//
// Workload: a put phase small-MemTable-flushed into many SSTables, then a
// get-heavy phase (re-reading keys uniformly).  Reported: get KRPS plus
// the mechanism counters (bloom negatives, cache hits, tables).
#include <cstdio>

#include "bench_util.h"
#include "core/db_shard.h"
#include "core/runtime.h"

using namespace papyrus;
using namespace papyrus::bench;

namespace {

struct Config {
  const char* label;
  int bloom_bits;
  int cache_local;
  size_t memtable;
  uint64_t trigger;
};

void RunConfig(const Flags& flags, const Config& cfg, size_t vallen,
               int iters, Table* table) {
  const std::string repo = "nvme:" + flags.repo + "/abl_lsm";
  RankStats get_t;
  uint64_t bloom_negatives = 0, cache_hits = 0, sstable_hits = 0;
  size_t tables = 0;
  RunKvJob(flags.ranks, flags.ranks, repo, [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    BenchCheck(papyruskv_option_init(&opt), "papyruskv_option_init");
    opt.bloom_bits_per_key = cfg.bloom_bits;
    opt.cache_local = cfg.cache_local;
    opt.memtable_size = cfg.memtable;
    opt.compaction_trigger = cfg.trigger;
    papyruskv_db_t db;
    if (papyruskv_open("abl", PAPYRUSKV_CREATE | PAPYRUSKV_RDWR, &opt,
                       &db) != PAPYRUSKV_SUCCESS) {
      throw std::runtime_error("open failed");
    }
    const auto keys = MakeKeys(ctx.rank, static_cast<size_t>(iters),
                               flags.keylen);
    const std::string& value = ValueBlob(vallen);
    for (const auto& k : keys) {
      BenchCheck(papyruskv_put(db, k.data(), k.size(), value.data(), value.size()), "papyruskv_put");
    }
    BenchCheck(papyruskv_barrier(db, PAPYRUSKV_SSTABLE), "papyruskv_barrier");

    Rng rng(3 + static_cast<uint64_t>(ctx.rank));
    Stopwatch sw;
    for (int i = 0; i < iters * 2; ++i) {
      const std::string& k = keys[rng.Uniform(keys.size())];
      char* v = nullptr;
      size_t n = 0;
      if (papyruskv_get(db, k.data(), k.size(), &v, &n) ==
          PAPYRUSKV_SUCCESS) {
        BenchCheck(papyruskv_free(db, v), "papyruskv_free");
      }
    }
    get_t = GatherStats(ctx.comm, sw.ElapsedSeconds());
    if (ctx.rank == 0) {
      obs::Registry& reg = core::KvRuntime::Current()->metrics();
      bloom_negatives = reg.GetCounter("db.abl.bloom_negatives").Value();
      cache_hits = reg.GetCounter("db.abl.cache_local.hits").Value();
      sstable_hits = reg.GetCounter("db.abl.sstable_hits").Value();
      tables = core::DbHandle(db)->manifest().TableCount();
    }
    BenchCheck(papyruskv_close(db), "papyruskv_close");
  });
  CleanupRepo(repo);
  const uint64_t total_ops = static_cast<uint64_t>(iters) * 2 *
                             static_cast<uint64_t>(flags.ranks);
  table->AddRow({cfg.label, Table::Num(Krps(total_ops, get_t.max), 2),
                 std::to_string(tables), std::to_string(bloom_negatives),
                 std::to_string(cache_hits), std::to_string(sstable_hits)});
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  ApplyScale(flags, 10.0);
  const int iters = flags.iters > 0 ? flags.iters : 96;
  const size_t vallen = flags.vallen > 0 ? flags.vallen : 4096;

  printf("Ablation: LSM knobs, %d ranks, %d keys/rank, value %s\n",
         flags.ranks, iters, HumanSize(vallen).c_str());

  Table table("Ablation E8 — get path vs LSM design knobs (rank-0 counters)",
              {"config", "get KRPS", "tables", "bloom neg", "cache hits",
               "sstable hits"});
  const Config configs[] = {
      {"baseline (bloom10,cache,mt64K,tr4)", 10, 1, 64 << 10, 4},
      {"no bloom filter", 0, 1, 64 << 10, 4},
      {"no local cache", 10, 0, 64 << 10, 4},
      {"no bloom, no cache", 0, 0, 64 << 10, 4},
      {"memtable 16K (more tables)", 10, 1, 16 << 10, 4},
      {"memtable 1M (few tables)", 10, 1, 1 << 20, 4},
      {"no compaction (trigger 0)", 10, 1, 64 << 10, 0},
      {"aggressive compaction (trigger 2)", 10, 1, 64 << 10, 2},
  };
  for (const Config& cfg : configs) {
    RunConfig(flags, cfg, vallen, iters, &table);
  }
  table.Print();
  return 0;
}
