// Round-trip tests for the export formats: the stats-v1 JSON dump (also
// the form the cross-rank roll-up ships) and the Chrome trace_event output.
#include <gtest/gtest.h>

#include "../util/temp_dir.h"
#include "core/runtime.h"
#include "net/runtime.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "sim/storage.h"

namespace papyrus::obs {
namespace {

// Fills `h` as if `values` had been recorded into a Histogram.
void Record(HistogramData* h, std::initializer_list<uint64_t> values) {
  for (uint64_t v : values) {
    h->min = h->count == 0 ? v : std::min(h->min, v);
    h->max = std::max(h->max, v);
    h->buckets[HistogramBucketOf(v)] += 1;
    h->count += 1;
    h->sum += v;
  }
}

Snapshot MakeSample() {
  Snapshot s;
  s.counters["kv.puts_local"] = 123;
  s.counters["sim.net.bytes"] = 0;
  s.gauges["net.flush_queue_depth"] = -2;
  Record(&s.histograms["kv.put_us"], {0, 1, 3, 100, 100, 5000});
  return s;
}

// The cross-rank roll-up ships each rank's stats-v1 dump and merges the
// parsed copies; the aggregate must equal Snapshot::Merge of the live
// snapshots exactly, including values a double cannot hold.
TEST(StatsRollUpTest, JsonMergeMatchesSnapshotMerge) {
  constexpr uint64_t kTop = (uint64_t{1} << 63) + 12345;  // top bucket
  std::vector<Snapshot> parts(3);
  parts[0].counters["kv.puts_local"] = 7;
  parts[0].counters["sim.net.bytes"] = (uint64_t{1} << 60) + 3;
  parts[0].gauges["net.flush_queue_depth"] = -2;
  Record(&parts[0].histograms["kv.put_us"], {0, 3, 100, kTop});
  parts[0].histograms["kv.get_us"];  // empty on every rank
  parts[1].counters["kv.puts_local"] = 5;
  parts[1].gauges["net.flush_queue_depth"] = -9;
  parts[1].gauges["repl.lag_ops"] = 4;
  Record(&parts[1].histograms["kv.put_us"], {1, 5000});
  parts[1].histograms["kv.get_us"];
  Record(&parts[2].histograms["store.flush_us"], {42});

  Snapshot want;
  for (const Snapshot& p : parts) want.Merge(p);

  net::RunRanks(3, [&](net::RankContext& ctx) {
    StatsMeta meta;
    meta.rank = ctx.rank;
    meta.nranks = 3;
    const std::string agg =
        core::RollUpStats(ctx.comm, SnapshotToJson(parts[ctx.rank], meta));
    if (ctx.rank != 0) {
      EXPECT_EQ(agg, "");
      return;
    }
    Snapshot got;
    ASSERT_TRUE(ParseStatsJson(agg, &got, &meta));
    EXPECT_TRUE(meta.aggregated);
    EXPECT_EQ(meta.nranks, 3);
    EXPECT_EQ(got.counters, want.counters);
    EXPECT_EQ(got.gauges, want.gauges);
    EXPECT_EQ(got.gauges.at("net.flush_queue_depth"), -11);
    ASSERT_EQ(got.histograms.size(), want.histograms.size());
    for (const auto& [name, w] : want.histograms) {
      const HistogramData& g = got.histograms.at(name);
      EXPECT_EQ(g.count, w.count) << name;
      EXPECT_EQ(g.sum, w.sum) << name;
      EXPECT_EQ(g.min, w.min) << name;
      EXPECT_EQ(g.max, w.max) << name;
      EXPECT_EQ(g.buckets, w.buckets) << name;
    }
    EXPECT_EQ(got.histograms.at("kv.put_us").max, kTop);
    EXPECT_EQ(got.histograms.at("kv.put_us").buckets[kHistogramBuckets - 1],
              1u);
    EXPECT_EQ(got.histograms.at("kv.get_us").count, 0u);
  });
}

TEST(JsonDumpTest, StatsRoundTrip) {
  const Snapshot in = MakeSample();
  StatsMeta meta_in;
  meta_in.rank = 3;
  meta_in.nranks = 8;
  const std::string json = SnapshotToJson(in, meta_in);

  Snapshot out;
  StatsMeta meta_out;
  ASSERT_TRUE(ParseStatsJson(json, &out, &meta_out));
  EXPECT_EQ(meta_out.rank, 3);
  EXPECT_EQ(meta_out.nranks, 8);
  EXPECT_FALSE(meta_out.aggregated);
  EXPECT_EQ(out.counters, in.counters);
  EXPECT_EQ(out.gauges, in.gauges);
  const HistogramData& a = in.histograms.at("kv.put_us");
  const HistogramData& b = out.histograms.at("kv.put_us");
  EXPECT_EQ(b.count, a.count);
  EXPECT_EQ(b.sum, a.sum);
  EXPECT_EQ(b.min, a.min);
  EXPECT_EQ(b.max, a.max);
  // The dump carries only non-empty buckets but reconstructs them exactly,
  // so percentiles computed offline match the live ones.
  EXPECT_EQ(b.buckets, a.buckets);
  EXPECT_DOUBLE_EQ(b.Percentile(50), a.Percentile(50));
}

TEST(JsonDumpTest, AggregatedFlagRoundTrips) {
  StatsMeta meta;
  meta.nranks = 4;
  meta.aggregated = true;
  Snapshot out;
  StatsMeta meta_out;
  ASSERT_TRUE(
      ParseStatsJson(SnapshotToJson(Snapshot{}, meta), &out, &meta_out));
  EXPECT_TRUE(meta_out.aggregated);
  EXPECT_EQ(meta_out.nranks, 4);
}

TEST(JsonDumpTest, ParserRejectsNonStatsJson) {
  Snapshot out;
  StatsMeta meta;
  EXPECT_FALSE(ParseStatsJson("{}", &out, &meta));
  EXPECT_FALSE(ParseStatsJson("[1,2,3]", &out, &meta));
  EXPECT_FALSE(ParseStatsJson("{\"papyruskv\": \"other\"}", &out, &meta));
}

TEST(JsonParserTest, HandlesNestingAndEscapes) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(
      R"({"a": [1, 2.5, -3], "b": {"s": "x\"y\\z"}, "t": true, "n": null})",
      &v));
  ASSERT_EQ(v.type, JsonValue::Type::kObject);
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_DOUBLE_EQ(a->array[2].number, -3);
  EXPECT_EQ(v.Find("b")->Find("s")->str, "x\"y\\z");
  EXPECT_TRUE(v.Find("t")->boolean);
  EXPECT_EQ(v.Find("n")->type, JsonValue::Type::kNull);
  EXPECT_FALSE(ParseJson("{\"unterminated\": ", &v));
}

TEST(PathTest, StatsPathForRank) {
  EXPECT_EQ(StatsPathForRank("/tmp/stats.json", 3), "/tmp/stats.rank3.json");
  EXPECT_EQ(StatsPathForRank("stats.json", 0), "stats.rank0.json");
  EXPECT_EQ(StatsPathForRank("/tmp/dump", 2), "/tmp/dump.rank2");
}

TEST(WriteTextFileTest, WritesAndFails) {
  testutil::TempDir tmp("obs_export");
  const std::string path = tmp.path() + "/out.txt";
  ASSERT_TRUE(WriteTextFile(path, "hello").ok());
  std::string back;
  ASSERT_TRUE(sim::Storage::ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, "hello");
  EXPECT_FALSE(WriteTextFile(tmp.path() + "/no/such/dir/x", "y").ok());
}

// ---------------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------------

TEST(TraceBufferTest, DisabledRecordsNothing) {
  TraceBuffer buf(4);
  buf.Add("flush", "store", 10, 5);
  EXPECT_EQ(buf.size(), 0u);
  { TraceSpan span(&buf, "store", "flush"); }
  EXPECT_EQ(buf.size(), 0u);
}

TEST(TraceBufferTest, RingOverwritesOldest) {
  static const char* const kNames[] = {"ev0", "ev1", "ev2", "ev3", "ev4"};
  TraceBuffer buf(3);
  buf.set_enabled(true);
  for (int i = 0; i < 5; ++i) buf.Add(kNames[i], "t", 100 + i, 1);
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.dropped(), 2u);
  const auto events = buf.Events();
  ASSERT_EQ(events.size(), 3u);
  // Oldest-first, with the two earliest overwritten.
  EXPECT_STREQ(events[0].name, "ev2");
  EXPECT_STREQ(events[2].name, "ev4");
}

TEST(TraceBufferTest, SpanRecordsWhenEnabled) {
  TraceBuffer buf(8);
  buf.set_enabled(true);
  { TraceSpan span(&buf, "kv", "checkpoint"); }
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_STREQ(buf.Events()[0].name, "checkpoint");
  EXPECT_STREQ(buf.Events()[0].cat, "kv");
}

TEST(TraceBufferTest, KvRootsAreSampledButChildrenAndNetRootsAreNot) {
  TraceBuffer buf(64);
  buf.set_enabled(true);
  buf.SetKvSampleEvery(4);
  SetCurrentTrace(&buf);

  // 8 bare kv roots at 1-in-4: exactly 2 recorded.
  for (int i = 0; i < 8; ++i) {
    OpSpan op("kv", "put");
  }
  EXPECT_EQ(buf.size(), 2u);

  // net roots never sample out (every RPC is always traced)...
  for (int i = 0; i < 8; ++i) {
    OpSpan rpc("net", "get_req.rpc");
  }
  EXPECT_EQ(buf.size(), 10u);

  // ...and neither do children of a recorded span, kv or otherwise.
  {
    OpSpan parent("net", "handle.get_req");
    for (int i = 0; i < 8; ++i) {
      OpSpan child("kv", "get");
      EXPECT_TRUE(child.active());
    }
  }
  EXPECT_EQ(buf.size(), 19u);

  // Sample rate 1 = record everything.
  buf.SetKvSampleEvery(1);
  for (int i = 0; i < 4; ++i) {
    OpSpan op("kv", "put");
  }
  EXPECT_EQ(buf.size(), 23u);
  SetCurrentTrace(nullptr);
}

TEST(TraceBufferTest, CurrentTraceIsThreadLocal) {
  EXPECT_EQ(CurrentTrace(), nullptr);
  TraceBuffer buf(8);
  SetCurrentTrace(&buf);
  EXPECT_EQ(CurrentTrace(), &buf);
  std::thread([] { EXPECT_EQ(CurrentTrace(), nullptr); }).join();
  SetCurrentTrace(nullptr);
}

TEST(TraceBufferTest, ChromeTraceOutputParses) {
  testutil::TempDir tmp("obs_trace");
  TraceBuffer buf(8);
  buf.set_enabled(true);
  buf.Add("flush", "store", 1000, 50);
  buf.Add("compaction", "store", 1100, 200);
  const std::string path = tmp.path() + "/trace.json";
  ASSERT_TRUE(buf.WriteChromeTrace(path, 2).ok());

  std::string text;
  ASSERT_TRUE(sim::Storage::ReadFileToString(path, &text).ok());
  JsonValue v;
  ASSERT_TRUE(ParseJson(text, &v));
  const JsonValue* events = v.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Alongside the two spans: process_name metadata and the dropped counter
  // (no threads registered names, so no thread_name rows).
  std::vector<const JsonValue*> spans;
  int meta = 0, counters = 0;
  for (const JsonValue& ev : events->array) {
    const std::string& ph = ev.Find("ph")->str;
    if (ph == "X") spans.push_back(&ev);
    if (ph == "M") ++meta;
    if (ph == "C") ++counters;
  }
  EXPECT_GE(meta, 1);      // process_name for the rank
  EXPECT_EQ(counters, 1);  // trace.dropped
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0]->Find("name")->str, "flush");
  EXPECT_DOUBLE_EQ(spans[0]->Find("pid")->number, 2);
  // Timestamps are absolute (one shared steady clock lets per-rank files
  // merge without rebasing).
  EXPECT_DOUBLE_EQ(spans[0]->Find("ts")->number, 1000);
  EXPECT_DOUBLE_EQ(spans[1]->Find("ts")->number, 1100);
}

}  // namespace
}  // namespace papyrus::obs
