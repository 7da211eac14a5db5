// Ablation E10 — application-customized hashing (paper §2.4 "Load
// balancing" and the Meraculous port of Figure 12).
//
// PapyrusKV places a pair on hash(key) % nranks.  The built-in hash
// scatters keys uniformly — good for balance, oblivious to application
// locality.  When the application *knows* its access affinity (Meraculous:
// "the same hash function for load balancing in the UPC application is
// used in PapyrusKV"), installing that function turns most remote
// operations into local ones.
//
// Workload: each rank owns a "block" of keys (block<i>/item<j>) and
// repeatedly reads its own block — the paper's thread-data-affinity
// pattern.  Series:
//   * built-in hash — keys scatter, ~(N-1)/N of reads are remote;
//   * custom hash extracting the block id — every read is local.
// Reported: read KRPS plus the measured local/remote split.
#include <cstdio>

#include "bench_util.h"
#include "core/runtime.h"

using namespace papyrus;
using namespace papyrus::bench;

namespace {

uint64_t BlockAffinityHash(const char* key, size_t keylen) {
  // Keys look like "block<i>/item<j>": the block id defines affinity.
  uint64_t block = 0;
  for (size_t i = 5; i < keylen && key[i] != '/'; ++i) {
    block = block * 10 + static_cast<uint64_t>(key[i] - '0');
  }
  return block;
}

struct HashResult {
  double read_krps = 0;
  uint64_t gets_local = 0;
  uint64_t gets_remote = 0;
};

HashResult RunHash(const Flags& flags, bool custom, int iters) {
  const std::string repo = "nvme:" + flags.repo + "/abl_hash";
  HashResult out;
  RankStats get_t;
  RunKvJob(flags.ranks, /*ranks_per_node=*/2, repo,
           [&](net::RankContext& ctx) {
             papyruskv_option_t opt;
             BenchCheck(papyruskv_option_init(&opt), "papyruskv_option_init");
             if (custom) opt.hash = BlockAffinityHash;
             papyruskv_db_t db;
             if (papyruskv_open("hash", PAPYRUSKV_CREATE | PAPYRUSKV_RDWR,
                                &opt, &db) != PAPYRUSKV_SUCCESS) {
               throw std::runtime_error("open failed");
             }
             // Populate my block.
             const std::string& value = ValueBlob(4096);
             for (int j = 0; j < iters; ++j) {
               const std::string k = "block" + std::to_string(ctx.rank) +
                                     "/item" + std::to_string(j);
               BenchCheck(papyruskv_put(db, k.data(), k.size(), value.data(),
                             value.size()), "papyruskv_put");
             }
             BenchCheck(papyruskv_barrier(db, PAPYRUSKV_SSTABLE), "papyruskv_barrier");

             // Affinity reads: each rank re-reads its own block.
             Stopwatch sw;
             for (int j = 0; j < iters; ++j) {
               const std::string k = "block" + std::to_string(ctx.rank) +
                                     "/item" + std::to_string(j);
               char* v = nullptr;
               size_t n = 0;
               if (papyruskv_get(db, k.data(), k.size(), &v, &n) ==
                   PAPYRUSKV_SUCCESS) {
                 BenchCheck(papyruskv_free(db, v), "papyruskv_free");
               }
             }
             get_t = GatherStats(ctx.comm, sw.ElapsedSeconds());
             if (ctx.rank == 0) {
               obs::Registry& reg =
                   papyrus::core::KvRuntime::Current()->metrics();
               out.gets_local = reg.GetCounter("db.hash.gets_local").Value();
               out.gets_remote =
                   reg.GetCounter("db.hash.gets_remote").Value();
             }
             BenchCheck(papyruskv_close(db), "papyruskv_close");
           });
  CleanupRepo(repo);
  const uint64_t total_ops =
      static_cast<uint64_t>(iters) * static_cast<uint64_t>(flags.ranks);
  out.read_krps = Krps(total_ops, get_t.max);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  ApplyScale(flags, 10.0);
  const int iters = flags.iters > 0 ? flags.iters : 96;

  printf("Ablation: custom hash vs built-in, %d ranks, %d keys/rank\n",
         flags.ranks, iters);

  Table table("Ablation E10 — application affinity hash (rank-0 counters)",
              {"hash", "read KRPS", "local gets", "remote gets"});
  const HashResult builtin = RunHash(flags, false, iters);
  const HashResult custom = RunHash(flags, true, iters);
  table.AddRow({"built-in FNV-1a", Table::Num(builtin.read_krps, 2),
                std::to_string(builtin.gets_local),
                std::to_string(builtin.gets_remote)});
  table.AddRow({"custom (block affinity)", Table::Num(custom.read_krps, 2),
                std::to_string(custom.gets_local),
                std::to_string(custom.gets_remote)});
  table.Print();
  return 0;
}
