// Network fault injection: timed receives, bounded retry on drops, dup
// and delay tolerance, and timeout surfacing with suspect-peer marking.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/timer.h"
#include "core/db_shard.h"
#include "core/runtime.h"
#include "fault_test_util.h"

namespace papyrus::testutil {
namespace {

class NetFaultTest : public FaultTest {
 protected:
  void RunDroppedMessages(int consistency);
};

TEST_F(NetFaultTest, RecvForTimesOutWithNoSender) {
  sim::Topology topo;
  topo.nranks = 2;
  topo.ranks_per_node = 2;
  net::RunRanks(topo, [&](net::RankContext& ctx) {
    if (ctx.rank == 0) {
      net::Message m;
      const uint64_t t0 = NowMicros();
      EXPECT_FALSE(ctx.comm.RecvFor(1, 7, 50'000, &m));
      EXPECT_GE(NowMicros() - t0, 50'000u);
    }
    ctx.comm.Barrier();
  });
}

TEST_F(NetFaultTest, RecvForDeliversBeforeDeadline) {
  sim::Topology topo;
  topo.nranks = 2;
  topo.ranks_per_node = 2;
  net::RunRanks(topo, [&](net::RankContext& ctx) {
    if (ctx.rank == 1) {
      ctx.comm.Send(0, 7, "ping");
    } else {
      net::Message m;
      ASSERT_TRUE(ctx.comm.RecvFor(1, 7, 5'000'000, &m));
      EXPECT_EQ(m.payload, "ping");
      EXPECT_EQ(m.src, 1);
    }
    ctx.comm.Barrier();
  });
}

TEST_F(NetFaultTest, BarrierForTimesOutWhenPeerNeverArrives) {
  sim::Topology topo;
  topo.nranks = 2;
  topo.ranks_per_node = 2;
  net::RunRanks(topo, [&](net::RankContext& ctx) {
    if (ctx.rank == 0) {
      EXPECT_FALSE(ctx.comm.BarrierFor(100'000));
    }
    // Rank 1 deliberately never joins.
  });
}

// Keys owned by `owner` under the db's hash, enough for a small workload.
std::vector<std::string> KeysOwnedBy(const core::DbShardPtr& shard, int owner,
                                     int want) {
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < static_cast<size_t>(want); ++i) {
    std::string k = "nk" + std::to_string(i);
    if (shard->OwnerOf(k) == owner) keys.push_back(std::move(k));
  }
  return keys;
}

// 10% drop on every runtime request/reply; the bounded-retry ladder must
// absorb it completely.  (8 attempts at p=0.1 each way: the chance any
// single op exhausts its retries is ~1e-6 per the armed seed — and the
// fixed seed makes the run reproducible regardless.)  Sequential mode
// drives put_batch/get_multi frames through the pipeline; relaxed mode
// drives migration chunks through the dispatcher, one fence per put so
// every chunk is its own round trip.
void NetFaultTest::RunDroppedMessages(int consistency) {
  setenv("PAPYRUSKV_TIMEOUT_MS", "100", 1);
  setenv("PAPYRUSKV_RETRY_MAX", "8", 1);
  const bool relaxed = consistency == PAPYRUSKV_RELAXED;
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = consistency;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("dropdb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    const int peer = 1 - ctx.rank;
    const auto keys = KeysOwnedBy(shard, peer, 20);

    ctx.comm.Barrier();
    if (ctx.rank == 0) Arm("net.msg.drop=0.1");
    ctx.comm.Barrier();
    for (const auto& k : keys) {
      ASSERT_EQ(PutStr(db, k, "v:" + k + ":" + std::to_string(ctx.rank)),
                PAPYRUSKV_SUCCESS)
          << k;
      if (relaxed) {
        ASSERT_EQ(papyruskv_fence(db), PAPYRUSKV_SUCCESS) << k;
      }
    }
    if (!relaxed) {
      for (const auto& k : keys) {
        std::string out;
        ASSERT_EQ(GetStr(db, k, &out), PAPYRUSKV_SUCCESS) << k;
        EXPECT_EQ(out, "v:" + k + ":" + std::to_string(ctx.rank));
      }
    }
    ctx.comm.Barrier();
    fault::Registry::Instance().DisableAll();
    if (relaxed) {
      // Every migrated record landed at its owner despite the drops.
      for (const auto& k : KeysOwnedBy(shard, ctx.rank, 20)) {
        std::string out;
        ASSERT_EQ(GetStr(db, k, &out), PAPYRUSKV_SUCCESS) << k;
        EXPECT_EQ(out, "v:" + k + ":" + std::to_string(peer));
      }
    }

    EXPECT_GT(
        fault::Registry::Instance().GetPoint("net.msg.drop").injected(), 0u);
    ctx.comm.Barrier();
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(NetFaultTest, DroppedMessagesAreRetriedToSuccess) {
  RunDroppedMessages(PAPYRUSKV_SEQUENTIAL);
}

TEST_F(NetFaultTest, DroppedMigrationChunksAreRetriedToSuccess) {
  RunDroppedMessages(PAPYRUSKV_RELAXED);
}

TEST_F(NetFaultTest, PersistentDropSurfacesTimeoutAndMarksSuspect) {
  // Rank 0 drops every runtime message it sends: its remote operations
  // must fail with PAPYRUSKV_ERR_TIMEOUT after bounded retries — not hang
  // — and the unreachable peer must be marked suspect.
  setenv("PAPYRUSKV_TIMEOUT_MS", "50", 1);
  setenv("PAPYRUSKV_RETRY_MAX", "2", 1);
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("deaddb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    ctx.comm.Barrier();

    if (ctx.rank == 0) {
      Arm("net.msg.drop=rank0:1.0");
      const auto keys = KeysOwnedBy(shard, 1, 1);
      const uint64_t t0 = NowMicros();
      EXPECT_EQ(PutStr(db, keys[0], "lost"), PAPYRUSKV_ERR_TIMEOUT);
      // Bounded: 2 attempts x 50ms plus backoff, nowhere near a hang.
      EXPECT_LT(NowMicros() - t0, 10'000'000u);
      EXPECT_TRUE(papyrus::core::KvRuntime::Current()->IsSuspect(1));
      fault::Registry::Instance().DisableAll();
    }
    ctx.comm.Barrier();
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(NetFaultTest, DuplicatedMessagesAreHarmless) {
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("dupdb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    const auto keys = KeysOwnedBy(shard, 1 - ctx.rank, 20);

    ctx.comm.Barrier();
    if (ctx.rank == 0) Arm("net.msg.dup=0.5");
    ctx.comm.Barrier();
    for (const auto& k : keys) {
      ASSERT_EQ(PutStr(db, k, "dup:" + std::to_string(ctx.rank)),
                PAPYRUSKV_SUCCESS);
    }
    for (const auto& k : keys) {
      std::string out;
      ASSERT_EQ(GetStr(db, k, &out), PAPYRUSKV_SUCCESS) << k;
      EXPECT_EQ(out, "dup:" + std::to_string(ctx.rank));
    }
    ctx.comm.Barrier();
    fault::Registry::Instance().DisableAll();
    EXPECT_GT(
        fault::Registry::Instance().GetPoint("net.msg.dup").injected(), 0u);
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(NetFaultTest, DelayedMessagesStillCorrect) {
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("delaydb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    const auto keys = KeysOwnedBy(shard, 1 - ctx.rank, 10);

    // Every message +1ms (the PAPYRUSKV_FAULT_DELAY_US default): ops get
    // slower, never wrong — and well inside the 10s reply deadline.
    ctx.comm.Barrier();
    if (ctx.rank == 0) Arm("net.msg.delay=1.0");
    ctx.comm.Barrier();
    for (const auto& k : keys) {
      ASSERT_EQ(PutStr(db, k, "slow"), PAPYRUSKV_SUCCESS);
    }
    for (const auto& k : keys) {
      std::string out;
      ASSERT_EQ(GetStr(db, k, &out), PAPYRUSKV_SUCCESS) << k;
      EXPECT_EQ(out, "slow");
    }
    ctx.comm.Barrier();
    fault::Registry::Instance().DisableAll();
    EXPECT_GT(
        fault::Registry::Instance().GetPoint("net.msg.delay").injected(),
        0u);
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

}  // namespace
}  // namespace papyrus::testutil
