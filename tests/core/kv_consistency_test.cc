// Consistency features (§3): relaxed vs sequential modes, fence, barrier
// levels, signals, protection attributes and their cache effects.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/db_shard.h"
#include "kv_test_util.h"
#include "../fault/fault_test_util.h"

namespace papyrus::testutil {
namespace {

using Kv = KvTest;
using KvMigration = FaultTest;

// Finds a key owned by `owner` under the built-in hash for `nranks`.
std::string KeyOwnedBy(int owner, int nranks, const std::string& prefix) {
  for (int i = 0;; ++i) {
    const std::string k = prefix + std::to_string(i);
    if (static_cast<int>(papyrus::BuiltinKeyHash(k.data(), k.size()) %
                         static_cast<uint64_t>(nranks)) == owner) {
      return k;
    }
  }
}

TEST_F(Kv, SequentialModeIsImmediatelyVisible) {
  // §3.1: in sequential mode every remote put is a synchronization point —
  // once rank A's put returns, rank B (the owner) must see the value with
  // no fence in between.  Signals order the two ranks.
  RunKv(2, tmp_.path(), [](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("seq", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);

    const std::string key = KeyOwnedBy(1, 2, "seqkey");
    int peer0[] = {0};
    int peer1[] = {1};
    if (ctx.rank == 0) {
      ASSERT_EQ(PutStr(db, key, "from_rank0"), PAPYRUSKV_SUCCESS);
      ASSERT_EQ(papyruskv_signal_notify(7, peer1, 1), PAPYRUSKV_SUCCESS);
    } else {
      ASSERT_EQ(papyruskv_signal_wait(7, peer0, 1), PAPYRUSKV_SUCCESS);
      std::string out;
      ASSERT_EQ(GetStr(db, key, &out), PAPYRUSKV_SUCCESS);
      EXPECT_EQ(out, "from_rank0");
    }
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(Kv, RelaxedModeStagesUntilFence) {
  // §3.1: in relaxed mode a remote put stays in the writer's remote
  // MemTable; the owner sees it only after the writer's fence.
  RunKv(2, tmp_.path(), [](net::RankContext& ctx) {
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("rel", PAPYRUSKV_CREATE, nullptr, &db),
              PAPYRUSKV_SUCCESS);

    const std::string key = KeyOwnedBy(1, 2, "relkey");
    int peer0[] = {0};
    int peer1[] = {1};
    if (ctx.rank == 0) {
      ASSERT_EQ(PutStr(db, key, "staged"), PAPYRUSKV_SUCCESS);
      // Writer still sees its own staged value (read-your-writes via the
      // remote MemTable).
      std::string own;
      ASSERT_EQ(GetStr(db, key, &own), PAPYRUSKV_SUCCESS);
      EXPECT_EQ(own, "staged");
      ASSERT_EQ(papyruskv_signal_notify(1, peer1, 1), PAPYRUSKV_SUCCESS);
      // Phase 2: owner checked; now fence and signal again.
      ASSERT_EQ(papyruskv_signal_wait(2, peer1, 1), PAPYRUSKV_SUCCESS);
      ASSERT_EQ(papyruskv_fence(db), PAPYRUSKV_SUCCESS);
      ASSERT_EQ(papyruskv_signal_notify(3, peer1, 1), PAPYRUSKV_SUCCESS);
    } else {
      ASSERT_EQ(papyruskv_signal_wait(1, peer0, 1), PAPYRUSKV_SUCCESS);
      // Not fenced yet: the owner must not see the staged pair.
      std::string out;
      EXPECT_EQ(GetStr(db, key, &out), PAPYRUSKV_NOT_FOUND)
          << "staged put leaked before fence";
      ASSERT_EQ(papyruskv_signal_notify(2, peer0, 1), PAPYRUSKV_SUCCESS);
      ASSERT_EQ(papyruskv_signal_wait(3, peer0, 1), PAPYRUSKV_SUCCESS);
      ASSERT_EQ(GetStr(db, key, &out), PAPYRUSKV_SUCCESS);
      EXPECT_EQ(out, "staged");
    }
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(Kv, BarrierMakesAllWritesVisibleEverywhere) {
  constexpr int kRanks = 4;
  RunKv(kRanks, tmp_.path(), [](net::RankContext& ctx) {
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("bar", PAPYRUSKV_CREATE, nullptr, &db),
              PAPYRUSKV_SUCCESS);
    for (int i = 0; i < 25; ++i) {
      ASSERT_EQ(PutStr(db, "w" + std::to_string(ctx.rank * 100 + i), "v"),
                PAPYRUSKV_SUCCESS);
    }
    ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_MEMTABLE), PAPYRUSKV_SUCCESS);
    for (int r = 0; r < kRanks; ++r) {
      for (int i = 0; i < 25; ++i) {
        std::string out;
        ASSERT_EQ(GetStr(db, "w" + std::to_string(r * 100 + i), &out),
                  PAPYRUSKV_SUCCESS);
      }
    }
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(Kv, BarrierSstableLevelFlushesEverything) {
  RunKv(3, tmp_.path(), [](net::RankContext&) {
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("barsst", PAPYRUSKV_CREATE, nullptr, &db),
              PAPYRUSKV_SUCCESS);
    for (int i = 0; i < 30; ++i) {
      ASSERT_EQ(PutStr(db, "sk" + std::to_string(i), "sv"),
                PAPYRUSKV_SUCCESS);
    }
    ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_SSTABLE), PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    ASSERT_NE(shard, nullptr);
    // §3.1: with PAPYRUSKV_SSTABLE, the whole db is flushed to SSTables —
    // nothing may remain in the mutable MemTables.
    EXPECT_EQ(shard->MemTableBytes(), 0u);
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(Kv, DynamicConsistencySwitch) {
  RunKv(2, tmp_.path(), [](net::RankContext&) {
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("dyn", PAPYRUSKV_CREATE, nullptr, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    EXPECT_EQ(shard->consistency(), PAPYRUSKV_RELAXED);
    ASSERT_EQ(PutStr(db, "pre", "1"), PAPYRUSKV_SUCCESS);
    ASSERT_EQ(papyruskv_consistency(db, PAPYRUSKV_SEQUENTIAL),
              PAPYRUSKV_SUCCESS);
    EXPECT_EQ(shard->consistency(), PAPYRUSKV_SEQUENTIAL);
    ASSERT_EQ(PutStr(db, "post", "2"), PAPYRUSKV_SUCCESS);
    std::string out;
    // The switch fences: the pre-switch staged put must be visible.
    ASSERT_EQ(GetStr(db, "pre", &out), PAPYRUSKV_SUCCESS);
    ASSERT_EQ(GetStr(db, "post", &out), PAPYRUSKV_SUCCESS);
    EXPECT_EQ(papyruskv_consistency(db, 99), PAPYRUSKV_INVALID_ARG);
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(Kv, ProtectionRejectsMismatchedOps) {
  RunKv(2, tmp_.path(), [](net::RankContext&) {
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("prot", PAPYRUSKV_CREATE, nullptr, &db),
              PAPYRUSKV_SUCCESS);
    ASSERT_EQ(PutStr(db, "k", "v"), PAPYRUSKV_SUCCESS);
    ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_MEMTABLE), PAPYRUSKV_SUCCESS);

    ASSERT_EQ(papyruskv_protect(db, PAPYRUSKV_RDONLY), PAPYRUSKV_SUCCESS);
    EXPECT_EQ(PutStr(db, "k2", "v"), PAPYRUSKV_PROTECTED);
    EXPECT_EQ(papyruskv_delete(db, "k", 1), PAPYRUSKV_PROTECTED);
    std::string out;
    EXPECT_EQ(GetStr(db, "k", &out), PAPYRUSKV_SUCCESS);

    ASSERT_EQ(papyruskv_protect(db, PAPYRUSKV_WRONLY), PAPYRUSKV_SUCCESS);
    EXPECT_EQ(GetStr(db, "k", &out), PAPYRUSKV_PROTECTED);
    EXPECT_EQ(PutStr(db, "k2", "v"), PAPYRUSKV_SUCCESS);

    ASSERT_EQ(papyruskv_protect(db, PAPYRUSKV_RDWR), PAPYRUSKV_SUCCESS);
    EXPECT_EQ(GetStr(db, "k2", &out), PAPYRUSKV_SUCCESS);
    EXPECT_EQ(papyruskv_protect(db, 1234), PAPYRUSKV_INVALID_ARG);
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(Kv, RemoteCacheOnlyUnderReadOnly) {
  // §3.2: RDONLY enables the remote cache; repeated remote gets hit it.
  RunKv(2, tmp_.path(), [](net::RankContext& ctx) {
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("rcache", PAPYRUSKV_CREATE, nullptr, &db),
              PAPYRUSKV_SUCCESS);
    const std::string key = KeyOwnedBy(0, 2, "rckey");
    if (ctx.rank == 0) {
      ASSERT_EQ(PutStr(db, key, "owned_by_0"), PAPYRUSKV_SUCCESS);
    }
    ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_SSTABLE), PAPYRUSKV_SUCCESS);
    ASSERT_EQ(papyruskv_protect(db, PAPYRUSKV_RDONLY), PAPYRUSKV_SUCCESS);

    if (ctx.rank == 1) {
      std::string out;
      for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(GetStr(db, key, &out), PAPYRUSKV_SUCCESS);
        EXPECT_EQ(out, "owned_by_0");
      }
      EXPECT_GE(DbCounter(db, "cache_remote.hits"), 4u)
          << "remote cache not serving repeated gets";
    }
    ASSERT_EQ(papyruskv_protect(db, PAPYRUSKV_RDWR), PAPYRUSKV_SUCCESS);
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(Kv, SignalsPairwiseOrdering) {
  RunKv(3, tmp_.path(), [](net::RankContext& ctx) {
    // Ring: rank r notifies r+1, waits for r-1 (rank 0 starts).
    const int next = (ctx.rank + 1) % 3;
    const int prev = (ctx.rank + 2) % 3;
    int next_arr[] = {next};
    int prev_arr[] = {prev};
    if (ctx.rank == 0) {
      ASSERT_EQ(papyruskv_signal_notify(5, next_arr, 1), PAPYRUSKV_SUCCESS);
      ASSERT_EQ(papyruskv_signal_wait(5, prev_arr, 1), PAPYRUSKV_SUCCESS);
    } else {
      ASSERT_EQ(papyruskv_signal_wait(5, prev_arr, 1), PAPYRUSKV_SUCCESS);
      ASSERT_EQ(papyruskv_signal_notify(5, next_arr, 1), PAPYRUSKV_SUCCESS);
    }
    // Bad arguments.
    int bad[] = {99};
    EXPECT_EQ(papyruskv_signal_notify(5, bad, 1), PAPYRUSKV_INVALID_ARG);
    EXPECT_EQ(papyruskv_signal_wait(-1, next_arr, 1), PAPYRUSKV_INVALID_ARG);
  });
}

TEST_F(Kv, EnvConsistencyOverride) {
  setenv("PAPYRUSKV_CONSISTENCY", "1", 1);  // artifact: 1 = sequential
  RunKv(2, tmp_.path(), [](net::RankContext&) {
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("envc", PAPYRUSKV_CREATE, nullptr, &db),
              PAPYRUSKV_SUCCESS);
    EXPECT_EQ(papyrus::core::DbHandle(db)->consistency(),
              PAPYRUSKV_SEQUENTIAL);
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
  unsetenv("PAPYRUSKV_CONSISTENCY");
}

TEST_F(Kv, DeleteOfRemoteKeyPropagates) {
  RunKv(2, tmp_.path(), [](net::RankContext& ctx) {
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("rdel", PAPYRUSKV_CREATE, nullptr, &db),
              PAPYRUSKV_SUCCESS);
    const std::string key = KeyOwnedBy(1, 2, "delkey");
    if (ctx.rank == 0) {
      ASSERT_EQ(PutStr(db, key, "doomed"), PAPYRUSKV_SUCCESS);
    }
    ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_MEMTABLE), PAPYRUSKV_SUCCESS);
    if (ctx.rank == 0) {
      ASSERT_EQ(papyruskv_delete(db, key.data(), key.size()),
                PAPYRUSKV_SUCCESS);
    }
    ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_MEMTABLE), PAPYRUSKV_SUCCESS);
    std::string out;
    EXPECT_EQ(GetStr(db, key, &out), PAPYRUSKV_NOT_FOUND) << "rank "
                                                          << ctx.rank;
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(KvMigration, QueueStaysBoundedAndOwnersApplyInSealOrder) {
  // §2.4 with the pipeline's ops lane as the message dispatcher: 2 KB
  // remote MemTables seal every few puts and the owner's acks are slowed,
  // so sealed tables pile up.  The lane must still hold at most
  // kDefaultQueueDepth unsent migrations and send them oldest first, so a
  // key written into two successive sealed tables ends at the newer value.
  setenv("PAPYRUSKV_FAULT_DELAY_US", "5000", 1);
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_RELAXED;
    opt.memtable_size = 2048;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("migq", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    std::vector<std::string> keys;
    for (int i = 0; keys.size() < 16; ++i) {
      std::string k = KeyOwnedBy(1, 2, "mq" + std::to_string(i) + ".");
      if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
        keys.push_back(std::move(k));
      }
    }
    const std::string twice = KeyOwnedBy(1, 2, "twice");
    const std::string filler(2048, 'f');  // seals the table it lands in
    constexpr int kRounds = 20;
    // 16 such values fill a table: about one seal per round.
    auto value = [](int round) {
      return "v" + std::to_string(round) + std::string(120, '.');
    };
    ctx.comm.Barrier();
    if (ctx.rank == 0) Arm("net.msg.delay=rank1:1.0");
    ctx.comm.Barrier();

    if (ctx.rank == 0) {
      long long max_depth = 0;
      auto put = [&](const std::string& k, const std::string& v) {
        ASSERT_EQ(PutStr(db, k, v), PAPYRUSKV_SUCCESS);
        papyruskv_health_t h;
        ASSERT_EQ(papyruskv_health(&h), PAPYRUSKV_SUCCESS);
        ASSERT_LE(h.migration_queue_depth,
                  static_cast<long long>(core::kDefaultQueueDepth));
        max_depth = std::max(max_depth, h.migration_queue_depth);
      };
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& k : keys) put(k, value(round));
        if (round == 5) {
          put(twice, "old");
          put(KeyOwnedBy(1, 2, "fill_old"), filler);
        } else if (round == 6) {
          put(twice, "new");
          put(KeyOwnedBy(1, 2, "fill_new"), filler);
        }
      }
      ASSERT_EQ(papyruskv_fence(db), PAPYRUSKV_SUCCESS);
      // The ~22 tables outpace the slowed owner: the bound is reached.
      EXPECT_EQ(max_depth, static_cast<long long>(core::kDefaultQueueDepth));
    }
    ctx.comm.Barrier();
    if (ctx.rank == 1) {
      std::string out;
      ASSERT_EQ(GetStr(db, twice, &out), PAPYRUSKV_SUCCESS);
      EXPECT_EQ(out, "new") << "an older sealed table overtook a newer one";
      for (const auto& k : keys) {
        ASSERT_EQ(GetStr(db, k, &out), PAPYRUSKV_SUCCESS) << k;
        EXPECT_EQ(out, value(kRounds - 1)) << k;
      }
    }
    ctx.comm.Barrier();
    fault::Registry::Instance().DisableAll();
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

}  // namespace
}  // namespace papyrus::testutil
