// Timeline sampler tests (DESIGN.md §13): window-delta correctness, the
// papyruskv_stats_reset race (deltas must stay monotone-safe — never the
// 2^64 underflow spike), timeline-v1 round-trip, the byte-pinned
// timeline-merged-v1 golden for the merge tool, and the papyruskv_health
// C API end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "../util/temp_dir.h"
#include "common/timer.h"
#include "core/papyruskv.h"
#include "net/runtime.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "sim/device_model.h"
#include "sim/storage.h"

namespace papyrus {
namespace {

obs::TimelineSchema SmallSchema() {
  obs::TimelineSchema s;
  s.counters = {"t.ops"};
  s.gauges = {"t.depth"};
  s.histograms = {"t.lat_us"};
  return s;
}

TEST(TimelineSamplerTest, WindowDeltasSumToTotals) {
  obs::Registry reg;
  obs::Counter& ops = reg.GetCounter("t.ops");
  obs::Gauge& depth = reg.GetGauge("t.depth");
  obs::Histogram& lat = reg.GetHistogram("t.lat_us");

  obs::TimelineSampler sampler(&reg);
  sampler.Configure(SmallSchema(), 2000);
  sampler.Start();
  for (int burst = 0; burst < 5; ++burst) {
    for (int i = 0; i < 100; ++i) {
      ops.Inc();
      lat.Record(10 + i % 50);
    }
    depth.Set(burst);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  sampler.Stop();  // tail-flush: the final partial window is sampled too

  const std::vector<obs::TimelineSample> samples = sampler.Samples();
  ASSERT_FALSE(samples.empty());
  uint64_t ops_sum = 0, hist_sum = 0, prev_t = 0;
  for (const obs::TimelineSample& s : samples) {
    ASSERT_EQ(s.counters.size(), 1u);
    ASSERT_EQ(s.gauges.size(), 1u);
    ASSERT_EQ(s.hists.size(), 1u);
    EXPECT_GT(s.t_us, prev_t);  // strictly ordered on the shared clock
    prev_t = s.t_us;
    ops_sum += s.counters[0];
    hist_sum += s.hists[0].count;
    if (s.hists[0].count > 0) {
      EXPECT_GE(s.hists[0].p99, s.hists[0].p50);
    }
  }
  // No sample was dropped (ring holds 4096), so window deltas partition
  // the cumulative totals exactly.
  EXPECT_EQ(ops_sum, 500u);
  EXPECT_EQ(hist_sum, 500u);
  EXPECT_EQ(samples.back().gauges[0], 4);
  obs::TimelineSample last;
  ASSERT_TRUE(sampler.Latest(&last));
  EXPECT_EQ(last.seq, samples.back().seq);
}

TEST(TimelineSamplerTest, StatsResetRaceKeepsDeltasMonotoneSafe) {
  obs::Registry reg;
  obs::Counter& ops = reg.GetCounter("t.ops");
  obs::Histogram& lat = reg.GetHistogram("t.lat_us");

  obs::TimelineSampler sampler(&reg);
  sampler.Configure(SmallSchema(), 1000);
  sampler.Start();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ops.Inc();
      lat.Record(25);
    }
  });
  // Race papyruskv_stats_reset's registry wipe against the live sampler.
  const uint64_t until = NowMicros() + 50 * 1000;
  while (NowMicros() < until) {
    reg.Reset();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  sampler.Stop();

  // A reset observed mid-window restarts the baseline at zero.  An
  // underflowing delta would be ~1.8e19; anything near that is the bug.
  const std::vector<obs::TimelineSample> samples = sampler.Samples();
  ASSERT_FALSE(samples.empty());
  for (const obs::TimelineSample& s : samples) {
    EXPECT_LT(s.counters[0], uint64_t{1} << 32) << "underflowed delta";
    EXPECT_LT(s.hists[0].count, uint64_t{1} << 32) << "underflowed window";
  }
}

TEST(TimelineSamplerTest, DisabledSamplerIsInert) {
  obs::Registry reg;
  obs::TimelineSampler sampler(&reg);
  sampler.Configure(SmallSchema(), 0);  // interval 0 = off
  EXPECT_FALSE(sampler.enabled());
  sampler.Start();
  sampler.Stop();
  EXPECT_EQ(sampler.samples_taken(), 0u);
  obs::TimelineSample s;
  EXPECT_FALSE(sampler.Latest(&s));
}

TEST(TimelineJsonTest, DocRoundTrips) {
  obs::Registry reg;
  reg.GetCounter("t.ops").Inc(7);
  reg.GetGauge("t.depth").Set(-3);
  reg.GetHistogram("t.lat_us").Record(100);

  obs::TimelineSampler sampler(&reg);
  sampler.Configure(SmallSchema(), 1000);
  sampler.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  sampler.Stop();

  const obs::TimelineDoc doc = sampler.Doc(/*rank=*/1, /*nranks=*/4);
  const std::string json = obs::TimelineDocToJson(doc);
  obs::TimelineDoc back;
  ASSERT_TRUE(obs::ParseTimelineJson(json, &back)) << json;
  EXPECT_EQ(back.rank, 1);
  EXPECT_EQ(back.nranks, 4);
  EXPECT_EQ(back.interval_us, 1000u);
  EXPECT_EQ(back.samples_taken, doc.samples_taken);
  EXPECT_EQ(back.schema.counters, doc.schema.counters);
  EXPECT_EQ(back.schema.gauges, doc.schema.gauges);
  EXPECT_EQ(back.schema.histograms, doc.schema.histograms);
  ASSERT_EQ(back.samples.size(), doc.samples.size());
  for (size_t i = 0; i < doc.samples.size(); ++i) {
    EXPECT_EQ(back.samples[i].t_us, doc.samples[i].t_us);
    EXPECT_EQ(back.samples[i].counters, doc.samples[i].counters);
    EXPECT_EQ(back.samples[i].gauges, doc.samples[i].gauges);
    EXPECT_EQ(back.samples[i].hists[0].count, doc.samples[i].hists[0].count);
  }
  // Gauges survive a negative level (bitcast through the u64 slot word).
  EXPECT_EQ(back.samples.back().gauges[0], -3);

  obs::TimelineDoc reject;
  EXPECT_FALSE(obs::ParseTimelineJson("{\"papyruskv\": \"stats-v1\"}",
                                      &reject));
}

// Hand-built two-rank merge, byte-pinned: any change to the
// timeline-merged-v1 serialization must be deliberate (rev the version
// string and this golden together).
TEST(TimelineMergeTest, MergedJsonGolden) {
  obs::TimelineSchema schema;
  schema.counters = {"c.x"};
  schema.gauges = {};
  schema.histograms = {"kv.put_us"};

  auto sample = [](uint64_t seq, uint64_t t_us, uint64_t dt_us, uint64_t c,
                   uint64_t n, uint64_t p50, uint64_t p99) {
    obs::TimelineSample s;
    s.seq = seq;
    s.t_us = t_us;
    s.dt_us = dt_us;
    s.counters = {c};
    s.hists = {{n, p50, p99}};
    return s;
  };
  obs::TimelineDoc r0;
  r0.rank = 0;
  r0.nranks = 2;
  r0.interval_us = 1000;
  r0.samples_taken = 2;
  r0.schema = schema;
  r0.samples = {sample(1, 2000, 1000, 10, 5, 30, 90),
                sample(2, 3000, 1000, 20, 8, 40, 120)};
  obs::TimelineDoc r1;
  r1.rank = 1;
  r1.nranks = 2;
  r1.interval_us = 1000;
  r1.samples_taken = 1;
  r1.schema = schema;
  r1.samples = {sample(1, 2500, 1000, 4, 2, 50, 60)};

  std::vector<obs::TimelineEvent> events(1);
  events[0].rank = 1;
  events[0].ts_us = 2600;
  events[0].kind = "crash";
  events[0].what = "rank.crash";
  events[0].a = 1;

  const obs::MergedTimeline m = obs::MergeTimelines({r0, r1}, events);
  EXPECT_EQ(m.window_us, 1000u);
  EXPECT_EQ(m.lanes.size(), 2u);

  const std::string golden =
      "{\"papyruskv\": \"timeline-merged-v1\", \"nranks\": 2,\n"
      " \"t0_us\": 1000, \"window_us\": 1000, \"windows\": 2,\n"
      " \"counters\": [\"c.x\"],\n"
      " \"gauges\": [],\n"
      " \"histograms\": [\"kv.put_us\"],\n"
      " \"lanes\": [\n"
      "  {\"rank\": 0, \"samples\": [\n"
      "   {\"w\": 0, \"t_us\": 2000, \"dt_us\": 1000, \"c\": [10], "
      "\"g\": [], \"h\": [[5, 30, 90]]},\n"
      "   {\"w\": 1, \"t_us\": 3000, \"dt_us\": 1000, \"c\": [20], "
      "\"g\": [], \"h\": [[8, 40, 120]]}\n"
      "  ]},\n"
      "  {\"rank\": 1, \"samples\": [\n"
      "   {\"w\": 1, \"t_us\": 2500, \"dt_us\": 1000, \"c\": [4], "
      "\"g\": [], \"h\": [[2, 50, 60]]}\n"
      "  ]}\n"
      " ],\n"
      " \"events\": [\n"
      "  {\"w\": 1, \"rank\": 1, \"ts_us\": 2600, \"kind\": \"crash\", "
      "\"what\": \"rank.crash\", \"a\": 1, \"b\": 0}\n"
      " ]}\n";
  EXPECT_EQ(obs::MergedTimelineToJson(m), golden);

  // The render sees one rank-1 put lane die after its only window and the
  // crash annotated on its window.
  const std::string tables = obs::RenderTimelineTables(m);
  EXPECT_NE(tables.find("r1:crash"), std::string::npos) << tables;
  const std::vector<double> ops = obs::WindowOpsPerSec(m);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_DOUBLE_EQ(ops[0], 5 / 1e-3 /*5 ops over 1ms*/);
  EXPECT_DOUBLE_EQ(ops[1], (8 + 2) / 1e-3);
}

// ---------------------------------------------------------------------------
// End-to-end: env-driven export and the papyruskv_health C API.
// ---------------------------------------------------------------------------

class TimelineE2eTest : public ::testing::Test {
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
          "PAPYRUSKV_OBS", "PAPYRUSKV_REPLICAS"}) {
      unsetenv(var);
    }
  }

  testutil::TempDir tmp_{"papyruskv_timeline"};
};

TEST_F(TimelineE2eTest, TimelineExportsNextToStats) {
  setenv("PAPYRUSKV_OBS", (tmp_.path() + ",5").c_str(), 1);
  const std::string repo = tmp_.path() + "/repo";

  net::RunRanks(2, [&](net::RankContext& ctx) {
    ASSERT_EQ(papyruskv_init(nullptr, nullptr, repo.c_str()),
              PAPYRUSKV_SUCCESS);
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("tdb", PAPYRUSKV_CREATE | PAPYRUSKV_RDWR,
                             nullptr, &db),
              PAPYRUSKV_SUCCESS);
    const std::string value(32, 'v');
    for (int i = 0; i < 100; ++i) {
      const std::string key = "r" + std::to_string(ctx.rank) + "k" +
                              std::to_string(i);
      ASSERT_EQ(papyruskv_put(db, key.data(), key.size(), value.data(),
                              value.size()),
                PAPYRUSKV_SUCCESS);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(12));
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
    ASSERT_EQ(papyruskv_finalize(), PAPYRUSKV_SUCCESS);
  });

  // timeline.rank<k>.json lands in the obs dir next to the stats dumps,
  // one per rank.
  const std::string base = tmp_.path() + "/timeline.json";
  for (int r = 0; r < 2; ++r) {
    const std::string path = obs::StatsPathForRank(base, r);
    EXPECT_TRUE(sim::Storage::FileExists(
        obs::StatsPathForRank(tmp_.path() + "/stats.json", r)));
    std::string text;
    ASSERT_TRUE(sim::Storage::ReadFileToString(path, &text).ok()) << path;
    obs::TimelineDoc doc;
    ASSERT_TRUE(obs::ParseTimelineJson(text, &doc)) << path;
    EXPECT_EQ(doc.rank, r);
    EXPECT_EQ(doc.nranks, 2);
    EXPECT_EQ(doc.interval_us, 5000u);
    EXPECT_EQ(doc.schema.counters, obs::TimelineSchema::Default().counters);
    ASSERT_FALSE(doc.samples.empty());
    // The run's puts all land somewhere in this rank's kv.put_us lane.
    const int put = obs::SeriesIndex(doc.schema.histograms, "kv.put_us");
    ASSERT_GE(put, 0);
    uint64_t puts = 0;
    for (const obs::TimelineSample& s : doc.samples) {
      puts += s.hists[put].count;
    }
    EXPECT_EQ(puts, 100u);
  }
}

TEST_F(TimelineE2eTest, HealthSnapshotLive) {
  setenv("PAPYRUSKV_OBS", (tmp_.path() + "/obs,5").c_str(), 1);
  const std::string repo = tmp_.path() + "/repo";

  net::RunRanks(2, [&](net::RankContext& ctx) {
    ASSERT_EQ(papyruskv_init(nullptr, nullptr, repo.c_str()),
              PAPYRUSKV_SUCCESS);
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("hdb", PAPYRUSKV_CREATE | PAPYRUSKV_RDWR,
                             nullptr, &db),
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
    // Sampler on: rates come from the latest window (its measured length,
    // not the configured interval — the first tick fires early).
    EXPECT_GT(h.window_us, 0u);
    // Rank 0 owns the whole "k..." keyspace half the time at most; both
    // ranks issued puts, so the store-wide put percentiles are live.
    EXPECT_GE(h.put_rate, 0.0);
    EXPECT_GE(h.put_p99_us, 0.0);
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
    ASSERT_EQ(papyruskv_finalize(), PAPYRUSKV_SUCCESS);
  });

  // Outside any runtime the health call reports the store closed.
  papyruskv_health_t h;
  EXPECT_EQ(papyruskv_health(&h), PAPYRUSKV_CLOSED);
}

}  // namespace
}  // namespace papyrus
