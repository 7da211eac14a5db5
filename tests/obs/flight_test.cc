// Flight recorder: ring semantics, flight-v1 JSON dumps, and the
// end-to-end promise that a request timeout or a simulated rank crash
// leaves a post-mortem file naming the failing op and peer — under a
// canned fault profile, with no cooperation from the failing code path.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "../fault/fault_test_util.h"
#include "core/db_shard.h"
#include "core/runtime.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "sim/storage.h"

namespace papyrus::testutil {
namespace {

using obs::FlightKind;
using obs::FlightRecorder;

TEST(FlightRecorderTest, RecordsInOrder) {
  FlightRecorder flight(16);
  flight.Record(FlightKind::kOpBegin, "get_req", /*a=*/1, /*b=*/4);
  flight.Record(FlightKind::kRetry, "get_req", 1, 2);
  flight.Record(FlightKind::kOpEnd, "get_req", 1);
  const auto events = flight.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[0].kind, FlightKind::kOpBegin);
  EXPECT_STREQ(events[0].what, "get_req");
  EXPECT_EQ(events[0].a, 1);
  EXPECT_EQ(events[0].b, 4);
  EXPECT_EQ(events[1].kind, FlightKind::kRetry);
  EXPECT_EQ(events[2].seq, 3u);
  EXPECT_EQ(flight.recorded(), 3u);
}

TEST(FlightRecorderTest, WrapKeepsTheNewestWindow) {
  FlightRecorder flight(8);
  for (int i = 0; i < 20; ++i) {
    flight.Record(FlightKind::kFlush, "flush_immutable", i);
  }
  const auto events = flight.Snapshot();
  ASSERT_LE(events.size(), 8u);
  ASSERT_FALSE(events.empty());
  // Oldest-first, ending with the most recent record.
  EXPECT_EQ(events.back().seq, 20u);
  EXPECT_EQ(events.back().a, 19);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
  }
}

TEST(FlightRecorderTest, KindNamesAreStable) {
  EXPECT_STREQ(FlightKindName(FlightKind::kOpBegin), "op_begin");
  EXPECT_STREQ(FlightKindName(FlightKind::kTimeout), "timeout");
  EXPECT_STREQ(FlightKindName(FlightKind::kSuspect), "suspect");
  EXPECT_STREQ(FlightKindName(FlightKind::kFailpoint), "failpoint");
  EXPECT_STREQ(FlightKindName(FlightKind::kQuarantine), "quarantine");
}

TEST(FlightRecorderTest, TriggerDumpWritesFlightV1Json) {
  TempDir tmp("flight_unit");
  const std::string path = tmp.path() + "/flight.json";
  FlightRecorder flight(32);
  flight.ConfigureDump(path, /*rank=*/3);
  flight.Record(FlightKind::kOpBegin, "put_sync", 1, 4, 0xabcdull);
  flight.Record(FlightKind::kTimeout, "put_sync", 1, 4);
  ASSERT_TRUE(flight.TriggerDump("unit test").ok());

  std::string text;
  ASSERT_TRUE(sim::Storage::ReadFileToString(path, &text).ok());
  obs::JsonValue v;
  ASSERT_TRUE(obs::ParseJson(text, &v)) << text;
  ASSERT_NE(v.Find("papyruskv"), nullptr);
  EXPECT_EQ(v.Find("papyruskv")->str, "flight-v1");
  EXPECT_DOUBLE_EQ(v.Find("rank")->number, 3);
  EXPECT_EQ(v.Find("reason")->str, "unit test");
  const obs::JsonValue* events = v.Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);
  EXPECT_EQ(events->array[0].Find("kind")->str, "op_begin");
  EXPECT_EQ(events->array[0].Find("what")->str, "put_sync");
  EXPECT_EQ(events->array[0].Find("trace")->str, "0xabcd");
  EXPECT_EQ(events->array[1].Find("kind")->str, "timeout");
  EXPECT_DOUBLE_EQ(events->array[1].Find("a")->number, 1);
}

TEST(FlightRecorderTest, DumpWithoutDestinationIsANoOp) {
  FlightRecorder flight(8);
  flight.Record(FlightKind::kCrash, "rank", 0);
  EXPECT_TRUE(flight.TriggerDump("nowhere").ok());
}

// ---------------------------------------------------------------------------
// End-to-end: fault paths auto-dump
// ---------------------------------------------------------------------------

class FlightE2eTest : public FaultTest {
 protected:
  void SetUp() override {
    FaultTest::SetUp();
    unsetenv("PAPYRUSKV_OBS");
  }
  void TearDown() override {
    unsetenv("PAPYRUSKV_OBS");
    FaultTest::TearDown();
  }

  // Parses the flight dump for `rank`, asserting it exists.
  void ReadDump(const std::string& base, int rank, obs::JsonValue* v) {
    const std::string path = obs::StatsPathForRank(base, rank);
    ASSERT_TRUE(sim::Storage::FileExists(path)) << path;
    std::string text;
    ASSERT_TRUE(sim::Storage::ReadFileToString(path, &text).ok());
    ASSERT_TRUE(obs::ParseJson(text, v)) << path;
  }

  // True if any event matches kind (and, when non-null, what).
  static bool HasEvent(const obs::JsonValue& v, const std::string& kind,
                       const char* what, double* a_out = nullptr) {
    const obs::JsonValue* events = v.Find("events");
    if (!events) return false;
    for (const auto& ev : events->array) {
      if (ev.Find("kind")->str != kind) continue;
      if (what && ev.Find("what")->str != what) continue;
      if (a_out) *a_out = ev.Find("a")->number;
      return true;
    }
    return false;
  }
};

// Keys owned by `owner` under the db's hash (local twin of the helper in
// tests/fault/net_fault_test.cc).
std::vector<std::string> KeysOwnedBy(const core::DbShardPtr& shard, int owner,
                                     int want) {
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < static_cast<size_t>(want); ++i) {
    std::string k = "fk" + std::to_string(i);
    if (shard->OwnerOf(k) == owner) keys.push_back(std::move(k));
  }
  return keys;
}

TEST_F(FlightE2eTest, RequestTimeoutDumpsFailingOpAndPeer) {
  const std::string base = tmp_.path() + "/flight.json";
  setenv("PAPYRUSKV_OBS", tmp_.path().c_str(), 1);
  setenv("PAPYRUSKV_TIMEOUT_MS", "50", 1);
  setenv("PAPYRUSKV_RETRY_MAX", "2", 1);
  const std::string repo = tmp_.path() + "/repo";
  RunKv(2, repo, [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("flightdb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    ctx.comm.Barrier();
    if (ctx.rank == 0) {
      Arm("net.msg.drop=rank0:1.0");
      const auto keys = KeysOwnedBy(shard, 1, 1);
      EXPECT_EQ(PutStr(db, keys[0], "lost"), PAPYRUSKV_ERR_TIMEOUT);
      fault::Registry::Instance().DisableAll();

      // The timeout path dumped synchronously — the file is already there,
      // ending in the begin/retry/timeout story of the failed batched put
      // (sequential puts ride the async pipeline as put_batch frames).
      obs::JsonValue v;
      ReadDump(base, 0, &v);
      EXPECT_EQ(v.Find("reason")->str, "request timeout");
      double peer = -1;
      EXPECT_TRUE(HasEvent(v, "op_begin", "put_batch"));
      EXPECT_TRUE(HasEvent(v, "retry", "put_batch"));
      ASSERT_TRUE(HasEvent(v, "timeout", "put_batch", &peer));
      EXPECT_EQ(peer, 1);  // the peer that never answered
      EXPECT_TRUE(HasEvent(v, "suspect", "peer", &peer));
      EXPECT_EQ(peer, 1);
      // The dropped sends fired the net.msg.drop failpoint on this rank.
      EXPECT_TRUE(HasEvent(v, "failpoint", "net.msg.drop"));
    }
    ctx.comm.Barrier();
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(FlightE2eTest, SimulatedCrashDumpsBeforeTheRankGoesDark) {
  const std::string base = tmp_.path() + "/flight.json";
  setenv("PAPYRUSKV_OBS", tmp_.path().c_str(), 1);
  // A crashed rank is fail-stop silent, so rank 0's puts to it run the
  // timeout ladder; keep it short or this test takes real minutes.
  setenv("PAPYRUSKV_TIMEOUT_MS", "50", 1);
  setenv("PAPYRUSKV_RETRY_MAX", "2", 1);
  const std::string repo = tmp_.path() + "/repo";
  RunKv(2, repo, [&](net::RankContext& ctx) {
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("crashdb", PAPYRUSKV_CREATE, nullptr, &db),
              PAPYRUSKV_SUCCESS);
    ctx.comm.Barrier();
    if (ctx.rank == 0) Arm("rank.crash=rank1@op3");
    ctx.comm.Barrier();
    int errors = 0;
    for (int i = 0; i < 10; ++i) {
      const std::string k = "c" + std::to_string(ctx.rank) + "." +
                            std::to_string(i);
      if (PutStr(db, k, "v") != PAPYRUSKV_SUCCESS) ++errors;
    }
    if (ctx.rank == 1) {
      EXPECT_GT(errors, 0) << "rank 1 never hit its injected crash";
      obs::JsonValue v;
      ReadDump(base, 1, &v);
      EXPECT_EQ(v.Find("reason")->str, "simulated crash");
      double rank = -1;
      ASSERT_TRUE(HasEvent(v, "crash", "rank", &rank));
      EXPECT_EQ(rank, 1);
      EXPECT_TRUE(HasEvent(v, "failpoint", "rank.crash"));
    }
    ctx.comm.Barrier();
    // Rank 0's staged pairs owned by the crashed rank 1 never reach it, so
    // the close's fence reports the migration's timeout; the crashed rank's
    // own close reports OK (crash semantics).
    ASSERT_EQ(papyruskv_close(db),
              ctx.rank == 0 ? PAPYRUSKV_ERR_TIMEOUT : PAPYRUSKV_SUCCESS);
  });
}

}  // namespace
}  // namespace papyrus::testutil
