// End-to-end observability tests: a real multi-rank run with
// PAPYRUSKV_OBS=<dir> set must produce parseable dumps with non-zero
// operation, network, and device metrics that papyrus_inspect can read
// back; unset it must write nothing, and a malformed switch must fail
// papyruskv_init.  The live papyruskv_stats C API must honor its buffer
// contract, and papyruskv_health must report whole-run rates.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "../fault/fault_test_util.h"
#include "../util/temp_dir.h"
#include "core/db_shard.h"
#include "core/papyruskv.h"
#include "net/runtime.h"
#include "obs/export.h"
#include "sim/device_model.h"
#include "sim/storage.h"

namespace papyrus {
namespace {

// A small workload over a shared keyspace: with 2 ranks roughly half the
// keys are remote, so puts/gets exercise the network path, and the
// SSTABLE barrier forces flushes (device writes + trace spans).
void Workload(int rank) {
  papyruskv_db_t db;
  ASSERT_EQ(papyruskv_open("edb", PAPYRUSKV_CREATE | PAPYRUSKV_RDWR,
                           nullptr, &db),
            PAPYRUSKV_SUCCESS);
  const std::string value(64, 'v');
  for (int i = 0; i < 200; ++i) {
    const std::string key = "r" + std::to_string(rank) + "k" +
                            std::to_string(i);
    ASSERT_EQ(papyruskv_put(db, key.data(), key.size(), value.data(),
                            value.size()),
              PAPYRUSKV_SUCCESS);
  }
  ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_SSTABLE), PAPYRUSKV_SUCCESS);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "r" + std::to_string(1 - rank) + "k" +
                            std::to_string(i);
    char* out = nullptr;
    size_t outlen = 0;
    ASSERT_EQ(papyruskv_get(db, key.data(), key.size(), &out, &outlen),
              PAPYRUSKV_SUCCESS);
    ASSERT_EQ(papyruskv_free(db, out), PAPYRUSKV_SUCCESS);
  }
  ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
}

// Reads and JSON-parses `path`, asserting both succeed.
void ReadJson(const std::string& path, obs::JsonValue* v) {
  std::string text;
  ASSERT_TRUE(sim::Storage::ReadFileToString(path, &text).ok()) << path;
  ASSERT_TRUE(obs::ParseJson(text, v)) << path;
}

// Runs papyrus_inspect with `args`, output discarded; returns its exit code.
int Inspect(const std::string& args) {
  const std::string cmd =
      std::string(PAPYRUS_INSPECT_BIN) + " " + args + " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

class ObsE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Scrub();
    sim::SetTimeScale(0.0);
  }
  void TearDown() override {
    Scrub();
    sim::DeviceRegistry::Instance().Clear();
  }
  static void Scrub() {
    for (const char* var :
         {"PAPYRUSKV_REPOSITORY", "PAPYRUSKV_GROUP_SIZE",
          "PAPYRUSKV_CONSISTENCY", "PAPYRUSKV_MEMTABLE_SIZE",
          "PAPYRUSKV_OBS"}) {
      unsetenv(var);
    }
  }

  // Sums every counter whose name starts with `prefix` and contains `infix`.
  static uint64_t SumCounters(const obs::Snapshot& snap,
                              const std::string& prefix,
                              const std::string& infix = "") {
    uint64_t total = 0;
    for (const auto& [name, v] : snap.counters) {
      if (name.rfind(prefix, 0) == 0 &&
          (infix.empty() || name.find(infix) != std::string::npos)) {
        total += v;
      }
    }
    return total;
  }

  testutil::TempDir tmp_{"papyruskv_obs"};
};

TEST_F(ObsE2eTest, StatsEnvProducesPerRankAndAggregateDumps) {
  const std::string dir = tmp_.path() + "/obs";
  const std::string stats = dir + "/stats.json";
  setenv("PAPYRUSKV_OBS", dir.c_str(), 1);
  const std::string repo = tmp_.path() + "/repo";

  net::RunRanks(2, [&](net::RankContext& ctx) {
    ASSERT_EQ(papyruskv_init(nullptr, nullptr, repo.c_str()),
              PAPYRUSKV_SUCCESS);
    Workload(ctx.rank);
    ASSERT_EQ(papyruskv_finalize(), PAPYRUSKV_SUCCESS);
  });

  // Per-rank dumps, one per rank, each tagged with its rank.
  for (int r = 0; r < 2; ++r) {
    const std::string path = obs::StatsPathForRank(stats, r);
    std::string text;
    ASSERT_TRUE(sim::Storage::ReadFileToString(path, &text).ok()) << path;
    obs::Snapshot snap;
    obs::StatsMeta meta;
    ASSERT_TRUE(obs::ParseStatsJson(text, &snap, &meta)) << path;
    EXPECT_EQ(meta.rank, r);
    EXPECT_EQ(meta.nranks, 2);
    EXPECT_FALSE(meta.aggregated);
    // Each rank issued exactly 200 puts and 50 gets.
    EXPECT_EQ(snap.histograms.at("kv.put_us").count, 200u);
    EXPECT_EQ(snap.histograms.at("kv.get_us").count, 50u);
  }

  // The rank-0 aggregate at <dir>/stats.json.
  std::string text;
  ASSERT_TRUE(sim::Storage::ReadFileToString(stats, &text).ok());
  obs::Snapshot agg;
  obs::StatsMeta meta;
  ASSERT_TRUE(obs::ParseStatsJson(text, &agg, &meta));
  EXPECT_TRUE(meta.aggregated);
  EXPECT_EQ(meta.nranks, 2);

  // Operation latency histograms cover both ranks and report percentiles.
  const obs::HistogramData& put = agg.histograms.at("kv.put_us");
  EXPECT_EQ(put.count, 400u);
  EXPECT_GE(put.Percentile(99), put.Percentile(50));
  EXPECT_EQ(agg.histograms.at("kv.get_us").count, 100u);
  EXPECT_GT(agg.histograms.at("kv.barrier_us").count, 0u);
  EXPECT_GT(agg.histograms.at("store.flush_us").count, 0u);

  // Database counters: all 400 puts are accounted for somewhere.
  EXPECT_EQ(SumCounters(agg, "db.edb.puts_"), 400u);
  EXPECT_GT(agg.counters.at("db.edb.flushes"), 0u);

  // Network: the shared keyspace forced remote traffic.
  EXPECT_GT(agg.counters.at("sim.net.messages"), 0u);
  EXPECT_GT(agg.counters.at("sim.net.bytes"), 0u);
  EXPECT_GT(SumCounters(agg, "net.req.", ".msgs"), 0u);

  // Device I/O: the SSTABLE barrier flushed MemTables to the simulated NVM.
  EXPECT_GT(SumCounters(agg, "sim.dev.", ".write_ops"), 0u);
  EXPECT_GT(SumCounters(agg, "sim.dev.", ".bytes_written"), 0u);
}

TEST_F(ObsE2eTest, TraceEnvProducesChromeTrace) {
  const std::string dir = tmp_.path() + "/obs";
  const std::string trace = dir + "/trace.json";
  setenv("PAPYRUSKV_OBS", dir.c_str(), 1);
  const std::string repo = tmp_.path() + "/repo";

  net::RunRanks(2, [&](net::RankContext& ctx) {
    ASSERT_EQ(papyruskv_init(nullptr, nullptr, repo.c_str()),
              PAPYRUSKV_SUCCESS);
    Workload(ctx.rank);
    ASSERT_EQ(papyruskv_finalize(), PAPYRUSKV_SUCCESS);
  });

  // Every rank flushed, so every rank recorded at least one span.
  for (int r = 0; r < 2; ++r) {
    const std::string path = obs::StatsPathForRank(trace, r);
    std::string text;
    ASSERT_TRUE(sim::Storage::ReadFileToString(path, &text).ok()) << path;
    obs::JsonValue v;
    ASSERT_TRUE(obs::ParseJson(text, &v)) << path;
    const obs::JsonValue* events = v.Find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_GT(events->array.size(), 0u);
    bool saw_flush = false;
    bool saw_named_thread = false;
    bool saw_dropped_counter = false;
    for (const auto& ev : events->array) {
      const std::string& ph = ev.Find("ph")->str;
      EXPECT_TRUE(ph == "X" || ph == "M" || ph == "C" || ph == "s" ||
                  ph == "f")
          << ph;
      EXPECT_DOUBLE_EQ(ev.Find("pid")->number, r);
      const std::string& name = ev.Find("name")->str;
      if (ph == "X" && name == "flush") saw_flush = true;
      if (ph == "M" && name == "thread_name") {
        const obs::JsonValue* args = ev.Find("args");
        ASSERT_NE(args, nullptr);
        const std::string& lane = args->Find("name")->str;
        // Lanes carry role names, not raw tid hashes.
        EXPECT_TRUE(lane == "app" || lane == "compaction" ||
                    lane == "dispatcher" || lane == "handler" ||
                    lane == "aux" || lane == "async" ||
                    lane == "async_repl")
            << lane;
        saw_named_thread = true;
      }
      if (ph == "C" && name == "trace.dropped") saw_dropped_counter = true;
    }
    EXPECT_TRUE(saw_flush) << path;
    EXPECT_TRUE(saw_named_thread) << path;
    EXPECT_TRUE(saw_dropped_counter) << path;
  }
}

TEST_F(ObsE2eTest, UnsetObsWritesNothing) {
  const std::string repo = tmp_.path() + "/repo";
  net::RunRanks(2, [&](net::RankContext& ctx) {
    ASSERT_EQ(papyruskv_init(nullptr, nullptr, repo.c_str()),
              PAPYRUSKV_SUCCESS);
    Workload(ctx.rank);
    ASSERT_EQ(papyruskv_finalize(), PAPYRUSKV_SUCCESS);
  });
  std::vector<std::string> entries;
  ASSERT_TRUE(sim::Storage::ListDir(tmp_.path(), &entries).ok());
  EXPECT_EQ(entries, std::vector<std::string>{"repo"});
}

// PAPYRUSKV_OBS takes a directory alone: a stale "<dir>,<ms>" from the
// retired sampler interval, or any other ',', fails init and creates
// nothing.
TEST_F(ObsE2eTest, MalformedObsIntervalFailsInit) {
  const std::string dir = tmp_.path() + "/obs";
  const std::string repo = tmp_.path() + "/repo";
  for (const std::string& spec : {dir + ",50", dir + ",", std::string(",")}) {
    setenv("PAPYRUSKV_OBS", spec.c_str(), 1);
    net::RunRanks(2, [&](net::RankContext&) {
      EXPECT_EQ(papyruskv_init(nullptr, nullptr, repo.c_str()),
                PAPYRUSKV_INVALID_ARG)
          << spec;
    });
    EXPECT_FALSE(sim::Storage::FileExists(spec)) << spec;
  }
  std::vector<std::string> entries;
  ASSERT_TRUE(sim::Storage::ListDir(tmp_.path(), &entries).ok());
  EXPECT_TRUE(entries.empty());
}

TEST_F(ObsE2eTest, HealthSnapshotLive) {
  const std::string repo = tmp_.path() + "/repo";
  net::RunRanks(2, [&](net::RankContext& ctx) {
    ASSERT_EQ(papyruskv_init(nullptr, nullptr, repo.c_str()),
              PAPYRUSKV_SUCCESS);
    // Sequential puts: the remote half pays a round trip each, so the
    // whole-run put p99 is a real latency, never a 0us bucket.
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("hdb", PAPYRUSKV_CREATE | PAPYRUSKV_RDWR, &opt,
                             &db),
              PAPYRUSKV_SUCCESS);
    const std::string value(32, 'v');
    for (int i = 0; i < 200; ++i) {
      const std::string key = "k" + std::to_string(i);
      ASSERT_EQ(papyruskv_put(db, key.data(), key.size(), value.data(),
                              value.size()),
                PAPYRUSKV_SUCCESS);
    }
    ASSERT_EQ(papyruskv_health(nullptr), PAPYRUSKV_INVALID_ARG);
    papyruskv_health_t h;
    ASSERT_EQ(papyruskv_health(&h), PAPYRUSKV_SUCCESS);
    EXPECT_EQ(h.rank, ctx.rank);
    EXPECT_EQ(h.nranks, 2);
    EXPECT_EQ(h.crashed, 0);
    EXPECT_EQ(h.degraded, 0);
    EXPECT_EQ(h.suspect_peers, 0);
    EXPECT_GE(h.pipeline_queue_depth, 0);
    EXPECT_GE(h.repl_lag_ops, 0);
    EXPECT_GT(h.uptime_us, 0u);
    // Whole-run rates over this rank's own 200 puts.
    EXPECT_GT(h.put_rate, 0.0);
    EXPECT_GT(h.put_p99_us, 0.0);
    EXPECT_EQ(h.get_rate, 0.0);
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
    ASSERT_EQ(papyruskv_finalize(), PAPYRUSKV_SUCCESS);
  });

  // Outside any runtime the health call reports the store closed.
  papyruskv_health_t h;
  EXPECT_EQ(papyruskv_health(&h), PAPYRUSKV_CLOSED);
}

TEST_F(ObsE2eTest, StatsApiBufferContract) {
  const std::string repo = tmp_.path() + "/repo";
  net::RunRanks(1, [&](net::RankContext&) {
    ASSERT_EQ(papyruskv_init(nullptr, nullptr, repo.c_str()),
              PAPYRUSKV_SUCCESS);
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("edb", PAPYRUSKV_CREATE | PAPYRUSKV_RDWR,
                             nullptr, &db),
              PAPYRUSKV_SUCCESS);
    const std::string key = "k", value = "v";
    ASSERT_EQ(papyruskv_put(db, key.data(), key.size(), value.data(),
                            value.size()),
              PAPYRUSKV_SUCCESS);

    // Size query.
    size_t len = 0;
    ASSERT_EQ(papyruskv_stats(-1, nullptr, &len), PAPYRUSKV_SUCCESS);
    ASSERT_GT(len, 0u);

    // Too-small buffer: error, required size reported.
    std::string buf(8, 0);
    size_t small = buf.size();
    EXPECT_EQ(papyruskv_stats(-1, buf.data(), &small), PAPYRUSKV_INVALID_ARG);
    EXPECT_EQ(small, len);

    // Exact-size buffer: the document, and it parses.
    buf.assign(len, 0);
    size_t got = buf.size();
    ASSERT_EQ(papyruskv_stats(db, buf.data(), &got), PAPYRUSKV_SUCCESS);
    ASSERT_EQ(got, len);
    obs::Snapshot snap;
    obs::StatsMeta meta;
    ASSERT_TRUE(obs::ParseStatsJson(buf, &snap, &meta));
    EXPECT_EQ(meta.nranks, 1);
    EXPECT_EQ(snap.histograms.at("kv.put_us").count, 1u);

    // Bad arguments.
    EXPECT_EQ(papyruskv_stats(db + 1000, nullptr, &len),
              PAPYRUSKV_INVALID_DB);
    EXPECT_EQ(papyruskv_stats(-1, nullptr, nullptr), PAPYRUSKV_INVALID_ARG);

    // Reset zeroes the live registry; the next dump reflects it.
    ASSERT_EQ(papyruskv_stats_reset(), PAPYRUSKV_SUCCESS);
    size_t len2 = 0;
    ASSERT_EQ(papyruskv_stats(-1, nullptr, &len2), PAPYRUSKV_SUCCESS);
    buf.assign(len2, 0);
    ASSERT_EQ(papyruskv_stats(-1, buf.data(), &len2), PAPYRUSKV_SUCCESS);
    ASSERT_TRUE(obs::ParseStatsJson(buf, &snap, &meta));
    EXPECT_EQ(snap.histograms.at("kv.put_us").count, 0u);

    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
    ASSERT_EQ(papyruskv_finalize(), PAPYRUSKV_SUCCESS);
  });

  // Outside any runtime the API reports the closed state.
  size_t len = 0;
  EXPECT_EQ(papyruskv_stats(-1, nullptr, &len), PAPYRUSKV_CLOSED);
  EXPECT_EQ(papyruskv_stats_reset(), PAPYRUSKV_CLOSED);
}

// The whole observe -> inspect path: one switch, three artifact families
// per rank (stats, trace, flight), a fault-path flight dump, and the
// inspector reading it all back from the one directory.
class ObsDirE2eTest : public testutil::FaultTest {
 protected:
  void TearDown() override {
    unsetenv("PAPYRUSKV_OBS");
    FaultTest::TearDown();
  }
};

TEST_F(ObsDirE2eTest, OneSwitchWritesEveryFamilyAndInspectorReadsThem) {
  const std::string dir = tmp_.path() + "/obs";
  setenv("PAPYRUSKV_OBS", dir.c_str(), 1);
  setenv("PAPYRUSKV_TIMEOUT_MS", "50", 1);
  setenv("PAPYRUSKV_RETRY_MAX", "2", 1);

  RunKv(2, tmp_.path() + "/repo", [&](net::RankContext& ctx) {
    Workload(ctx.rank);
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("tdb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    ctx.comm.Barrier();
    if (ctx.rank == 0) {
      // Every send from rank 0 is dropped: a put owned by rank 1 times
      // out, and the timeout path dumps the flight ring on the spot.
      auto shard = core::DbHandle(db);
      std::string key = "t0";
      for (int i = 1; shard->OwnerOf(key) != 1; ++i) {
        key = "t" + std::to_string(i);
      }
      Arm("net.msg.drop=rank0:1.0");
      EXPECT_EQ(testutil::PutStr(db, key, "lost"), PAPYRUSKV_ERR_TIMEOUT);
      fault::Registry::Instance().DisableAll();
      obs::JsonValue v;
      ReadJson(dir + "/flight.rank0.json", &v);
      EXPECT_EQ(v.Find("reason")->str, "request timeout");
    }
    ctx.comm.Barrier();
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });

  for (int r = 0; r < 2; ++r) {
    const std::string k = ".rank" + std::to_string(r) + ".json";
    std::string text;
    ASSERT_TRUE(
        sim::Storage::ReadFileToString(dir + "/stats" + k, &text).ok());
    obs::Snapshot snap;
    obs::StatsMeta meta;
    EXPECT_TRUE(obs::ParseStatsJson(text, &snap, &meta));
    EXPECT_EQ(meta.rank, r);

    obs::JsonValue v;
    ReadJson(dir + "/trace" + k, &v);
    ASSERT_NE(v.Find("traceEvents"), nullptr);
    EXPECT_GT(v.Find("traceEvents")->array.size(), 0u);

    ReadJson(dir + "/flight" + k, &v);
    ASSERT_NE(v.Find("events"), nullptr);
  }
  std::string text;
  ASSERT_TRUE(sim::Storage::ReadFileToString(dir + "/stats.json", &text).ok());
  obs::Snapshot agg;
  obs::StatsMeta meta;
  ASSERT_TRUE(obs::ParseStatsJson(text, &agg, &meta));
  EXPECT_TRUE(meta.aggregated);
  EXPECT_GT(agg.counters.at("net.req.timeouts"), 0u);

  // Exactly those families: the switch writes no time-series file.
  std::vector<std::string> entries;
  ASSERT_TRUE(sim::Storage::ListDir(dir, &entries).ok());
  for (const std::string& name : entries) {
    EXPECT_NE(name.rfind("timeline", 0), 0u) << name;
  }

  EXPECT_EQ(Inspect("--stats " + dir + "/stats.json"), 0);
  EXPECT_EQ(Inspect("--trace-merge " + dir), 0);
  EXPECT_TRUE(sim::Storage::FileExists(dir + "/trace.merged.json"));
}

}  // namespace
}  // namespace papyrus
