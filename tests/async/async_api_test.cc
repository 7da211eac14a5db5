// The asynchronous submission/completion pipeline end to end (DESIGN.md §9):
// papyruskv_put_async / get_async / delete_async + papyruskv_wait, fence as
// a completion fence for fire-and-forget submissions, same-destination
// coalescing observable through the async.* metrics, and per-op error
// surfacing out of a partially failed batch (batch.op.fail failpoint).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/db_shard.h"
#include "core/runtime.h"
#include "obs/metrics.h"
#include "../fault/fault_test_util.h"

namespace papyrus::testutil {
namespace {

class AsyncApiTest : public FaultTest {
 protected:
  void FenceReportsFailures(int consistency);
};

// Keys owned by `owner` under the db's hash.
std::vector<std::string> KeysOwnedBy(const core::DbShardPtr& shard, int owner,
                                     int want) {
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < static_cast<size_t>(want); ++i) {
    std::string k = "ak" + std::to_string(i);
    if (shard->OwnerOf(k) == owner) keys.push_back(std::move(k));
  }
  return keys;
}

int PutAsyncStr(papyruskv_db_t db, const std::string& k, const std::string& v,
                papyruskv_event_t* ev) {
  return papyruskv_put_async(db, k.data(), k.size(), v.data(), v.size(), ev);
}

TEST_F(AsyncApiTest, PutGetDeleteRoundTripThroughEvents) {
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("asyncdb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    ctx.comm.Barrier();

    if (ctx.rank == 0) {
      // Remote and local keys take the same API path; only the remote one
      // actually rides the wire.
      const auto remote = KeysOwnedBy(shard, 1, 2);
      const auto local = KeysOwnedBy(shard, 0, 1);

      papyruskv_event_t ev = 0;
      ASSERT_EQ(PutAsyncStr(db, remote[0], "r0", &ev), PAPYRUSKV_SUCCESS);
      EXPECT_GE(ev, 1);  // async ops and runtime events share one table
      EXPECT_EQ(papyruskv_wait(db, ev), PAPYRUSKV_SUCCESS);
      // An event is consumed by its wait.
      EXPECT_EQ(papyruskv_wait(db, ev), PAPYRUSKV_INVALID_EVENT);

      ASSERT_EQ(PutAsyncStr(db, local[0], "l0", &ev), PAPYRUSKV_SUCCESS);
      EXPECT_EQ(papyruskv_wait(db, ev), PAPYRUSKV_SUCCESS);

      // get_async defers value delivery to the wait.
      char* value = nullptr;
      size_t vallen = 0;
      ASSERT_EQ(papyruskv_get_async(db, remote[0].data(), remote[0].size(),
                                    &value, &vallen, &ev),
                PAPYRUSKV_SUCCESS);
      ASSERT_EQ(papyruskv_wait(db, ev), PAPYRUSKV_SUCCESS);
      EXPECT_EQ(std::string(value, vallen), "r0");
      EXPECT_EQ(papyruskv_free(db, value), PAPYRUSKV_SUCCESS);

      // Missing key surfaces through the event, not the submission.
      value = nullptr;
      vallen = 0;
      ASSERT_EQ(papyruskv_get_async(db, remote[1].data(), remote[1].size(),
                                    &value, &vallen, &ev),
                PAPYRUSKV_SUCCESS);
      EXPECT_EQ(papyruskv_wait(db, ev), PAPYRUSKV_NOT_FOUND);

      // delete_async with an event, then the key is gone.
      ASSERT_EQ(papyruskv_delete_async(db, remote[0].data(), remote[0].size(),
                                       &ev),
                PAPYRUSKV_SUCCESS);
      EXPECT_EQ(papyruskv_wait(db, ev), PAPYRUSKV_SUCCESS);
      std::string out;
      EXPECT_EQ(GetStr(db, remote[0], &out), PAPYRUSKV_NOT_FOUND);
    }
    ctx.comm.Barrier();
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(AsyncApiTest, FenceIsACompletionFenceForFireAndForgetPuts) {
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("fencedb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    ctx.comm.Barrier();

    const int peer = 1 - ctx.rank;
    const auto keys = KeysOwnedBy(shard, peer, 16);
    for (const auto& k : keys) {
      const std::string v = "fv:" + k + ":" + std::to_string(ctx.rank);
      // No event: completion is observed only through the fence.
      ASSERT_EQ(papyruskv_put_async(db, k.data(), k.size(), v.data(),
                                    v.size(), nullptr),
                PAPYRUSKV_SUCCESS);
    }
    ASSERT_EQ(papyruskv_fence(db), PAPYRUSKV_SUCCESS);
    ctx.comm.Barrier();

    // After fence + barrier every rank reads its own (now local) keys.
    const auto mine = KeysOwnedBy(shard, ctx.rank, 16);
    for (const auto& k : mine) {
      std::string out;
      ASSERT_EQ(GetStr(db, k, &out), PAPYRUSKV_SUCCESS) << k;
      EXPECT_EQ(out, "fv:" + k + ":" + std::to_string(peer));
    }
    ctx.comm.Barrier();
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

// A NULL-event put has no handle to carry its status, so the fence must:
// the owner fails the first op it applies, and the sender's next fence
// reports that failure exactly once.  In sequential mode the put rides a
// pipeline frame; in relaxed mode it is staged and the fence's migration
// chunk carries it.
void AsyncApiTest::FenceReportsFailures(int consistency) {
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = consistency;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("ffaildb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    ctx.comm.Barrier();
    if (ctx.rank == 0) Arm("batch.op.fail=rank1@op1");
    ctx.comm.Barrier();

    if (ctx.rank == 0) {
      for (const auto& k : KeysOwnedBy(shard, 1, 4)) {
        ASSERT_EQ(PutAsyncStr(db, k, "ff", nullptr), PAPYRUSKV_SUCCESS);
      }
      EXPECT_NE(papyruskv_fence(db), PAPYRUSKV_SUCCESS);
      EXPECT_EQ(papyruskv_fence(db), PAPYRUSKV_SUCCESS);
      fault::Registry::Instance().DisableAll();
    }
    ctx.comm.Barrier();
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(AsyncApiTest, FenceReportsFireAndForgetFailures) {
  FenceReportsFailures(PAPYRUSKV_SEQUENTIAL);
}

TEST_F(AsyncApiTest, RelaxedFenceReportsMigratedRecordFailures) {
  FenceReportsFailures(PAPYRUSKV_RELAXED);
}

TEST_F(AsyncApiTest, RetryCannotReorderSameDestinationFrames) {
  // The SDCB-under-retry hazard: three frames to one destination in one
  // cycle (put k=v1 / get k / put k=v2 — a kind change breaks the frame)
  // with the first frame's message dropped by the fabric.  Frame N+1 must
  // not reach the wire before frame N is acked, so the retry of frame 1
  // cannot re-apply v1 after frame 3 committed v2 — and the get, sitting
  // between the puts, must observe exactly v1.
  setenv("PAPYRUSKV_BATCH_WINDOW_US", "50000", 1);
  setenv("PAPYRUSKV_TIMEOUT_MS", "100", 1);
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("orderdb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    ctx.comm.Barrier();

    if (ctx.rank == 0) {
      const std::string k = KeysOwnedBy(shard, 1, 1)[0];
      // Drop exactly the next fabric message rank 0 sends: the head frame
      // of the pipeline cycle, carrying put(k, v1).
      Arm("net.msg.drop=rank0@op1");
      papyruskv_event_t e1 = 0, e2 = 0, e3 = 0;
      char* value = nullptr;
      size_t vallen = 0;
      ASSERT_EQ(PutAsyncStr(db, k, "v1", &e1), PAPYRUSKV_SUCCESS);
      ASSERT_EQ(papyruskv_get_async(db, k.data(), k.size(), &value, &vallen,
                                    &e2),
                PAPYRUSKV_SUCCESS);
      ASSERT_EQ(PutAsyncStr(db, k, "v2", &e3), PAPYRUSKV_SUCCESS);

      ASSERT_EQ(papyruskv_wait(db, e1), PAPYRUSKV_SUCCESS);
      ASSERT_EQ(papyruskv_wait(db, e2), PAPYRUSKV_SUCCESS);
      EXPECT_EQ(std::string(value, vallen), "v1");
      EXPECT_EQ(papyruskv_free(db, value), PAPYRUSKV_SUCCESS);
      ASSERT_EQ(papyruskv_wait(db, e3), PAPYRUSKV_SUCCESS);
      fault::Registry::Instance().DisableAll();

      // The drop really forced a retry of frame 1...
      EXPECT_GT(
          fault::Registry::Instance().GetPoint("net.msg.drop").injected(),
          0u);
      // ...and the retried v1 did not clobber the later committed v2.
      std::string out;
      ASSERT_EQ(GetStr(db, k, &out), PAPYRUSKV_SUCCESS);
      EXPECT_EQ(out, "v2");
    }
    ctx.comm.Barrier();
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
  unsetenv("PAPYRUSKV_BATCH_WINDOW_US");
  unsetenv("PAPYRUSKV_TIMEOUT_MS");
}

TEST_F(AsyncApiTest, SyncGetNeverOvertakesQueuedAsyncPut) {
  // A sync op runs on the caller's thread only while its destination has
  // nothing queued.  Here a fire-and-forget put sits in the batching
  // window, so the sync get must queue behind it and observe its value.
  setenv("PAPYRUSKV_BATCH_WINDOW_US", "20000", 1);
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("overtakedb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    ctx.comm.Barrier();

    if (ctx.rank == 0) {
      const std::string k = KeysOwnedBy(shard, 1, 1)[0];
      ASSERT_EQ(PutStr(db, k, "v1"), PAPYRUSKV_SUCCESS);  // owner idle
      ASSERT_EQ(PutAsyncStr(db, k, "v2", nullptr), PAPYRUSKV_SUCCESS);
      std::string out;
      ASSERT_EQ(GetStr(db, k, &out), PAPYRUSKV_SUCCESS);
      EXPECT_EQ(out, "v2");
      EXPECT_EQ(papyruskv_fence(db), PAPYRUSKV_SUCCESS);
    }
    ctx.comm.Barrier();
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
  unsetenv("PAPYRUSKV_BATCH_WINDOW_US");
}

TEST_F(AsyncApiTest, SyncCallersAndPipelineShareDestinations) {
  // Two sync read-your-writes loops and a put_async + fence loop on rank 0
  // all target rank 1 at once, so caller-thread claims, their fallbacks
  // and pipeline cycles interleave on one destination.
  const int kRounds = 1000;
  const size_t kKeysPerThread = 8;
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("sharedb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    ctx.comm.Barrier();

    if (ctx.rank == 0) {
      core::KvRuntime* rt = core::KvRuntime::Current();
      const auto keys = KeysOwnedBy(shard, 1, 3 * kKeysPerThread);
      std::atomic<int> stale{0};
      std::atomic<int> errors{0};
      auto sync_loop = [&](size_t first) {
        rt->AdoptObservability();
        for (int r = 0; r < kRounds; ++r) {
          const std::string& k = keys[first + r % kKeysPerThread];
          const std::string v = "s" + std::to_string(first) + ":" +
                                std::to_string(r);
          if (!shard->Put(k, v).ok()) ++errors;
          std::string out;
          if (!shard->Get(k, &out).ok()) {
            ++errors;
          } else if (out != v) {
            ++stale;
          }
        }
      };
      const int windows = kRounds / 10;
      auto async_loop = [&] {
        rt->AdoptObservability();
        for (int w = 0; w < windows; ++w) {
          for (size_t i = 2 * kKeysPerThread; i < keys.size(); ++i) {
            const async::OpHandle h = shard->PutAsync(
                keys[i], "a" + std::to_string(w), /*tombstone=*/false,
                /*tracked=*/false);
            EXPECT_EQ(h, nullptr);
          }
          if (!shard->Fence().ok()) ++errors;
        }
      };
      std::thread a(sync_loop, 0);
      std::thread b(sync_loop, kKeysPerThread);
      std::thread c(async_loop);
      a.join();
      b.join();
      c.join();
      EXPECT_EQ(errors.load(), 0);
      EXPECT_EQ(stale.load(), 0);
      for (size_t i = 2 * kKeysPerThread; i < keys.size(); ++i) {
        std::string out;
        ASSERT_EQ(GetStr(db, keys[i], &out), PAPYRUSKV_SUCCESS);
        EXPECT_EQ(out, "a" + std::to_string(windows - 1));
      }
    }
    ctx.comm.Barrier();
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(AsyncApiTest, FenceRetiresCompletedPutEventsButNotGets) {
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("reapdb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    ctx.comm.Barrier();

    if (ctx.rank == 0) {
      // Evented puts completed in bulk by the fence (the quickstart
      // pattern): their events are consumed as if each had been waited,
      // so a long-running app leaks nothing.
      const auto keys = KeysOwnedBy(shard, 1, 4);
      std::vector<papyruskv_event_t> evs(keys.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(PutAsyncStr(db, keys[i], "rv" + std::to_string(i),
                              &evs[i]),
                  PAPYRUSKV_SUCCESS);
      }
      // A get event must survive the fence — its value arrives at wait.
      char* value = nullptr;
      size_t vallen = 0;
      papyruskv_event_t gev = 0;
      ASSERT_EQ(papyruskv_get_async(db, keys[0].data(), keys[0].size(),
                                    &value, &vallen, &gev),
                PAPYRUSKV_SUCCESS);

      ASSERT_EQ(papyruskv_fence(db), PAPYRUSKV_SUCCESS);
      for (papyruskv_event_t ev : evs) {
        EXPECT_EQ(papyruskv_wait(db, ev), PAPYRUSKV_INVALID_EVENT);
      }
      ASSERT_EQ(papyruskv_wait(db, gev), PAPYRUSKV_SUCCESS);
      EXPECT_EQ(std::string(value, vallen), "rv0");
      EXPECT_EQ(papyruskv_free(db, value), PAPYRUSKV_SUCCESS);
    }
    ctx.comm.Barrier();
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(AsyncApiTest, SameDestinationSubmissionsCoalesceIntoOneFrame) {
  // A batching window holds the pipeline open long enough for the app
  // thread's burst to land in one cycle; consecutive same-destination puts
  // must then share frames instead of paying one round trip each.
  setenv("PAPYRUSKV_BATCH_WINDOW_US", "20000", 1);
  const int kOps = 48;
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("batchdb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    ctx.comm.Barrier();

    if (ctx.rank == 0) {
      auto& reg = papyrus::core::KvRuntime::Current()->metrics();
      const uint64_t frames_before = reg.GetCounter("async.frames").Value();

      const auto keys = KeysOwnedBy(shard, 1, kOps);
      std::vector<papyruskv_event_t> evs(keys.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(PutAsyncStr(db, keys[i], "b" + std::to_string(i), &evs[i]),
                  PAPYRUSKV_SUCCESS);
      }
      for (papyruskv_event_t ev : evs) {
        ASSERT_EQ(papyruskv_wait(db, ev), PAPYRUSKV_SUCCESS);
      }

      const uint64_t frames = reg.GetCounter("async.frames").Value();
      // 48 ops submitted inside one 20ms window: massively fewer frames
      // than ops (exact count depends on when the first cycle opened).
      EXPECT_LT(frames - frames_before, static_cast<uint64_t>(kOps) / 4);
      // The batch-size histogram saw at least one genuinely merged frame.
      const obs::HistogramData h =
          reg.GetHistogram("async.batch_size").Snapshot();
      EXPECT_GE(h.max, 2u);
      EXPECT_EQ(h.sum, static_cast<uint64_t>(kOps));
    }
    ctx.comm.Barrier();
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
  unsetenv("PAPYRUSKV_BATCH_WINDOW_US");
}

TEST_F(AsyncApiTest, PartialBatchFailureSurfacesPerOpStatuses) {
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("faildb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    ctx.comm.Barrier();
    // The handler side (rank 1) fails exactly its first batched op; the
    // batch as a whole is still acked with one status per op.
    if (ctx.rank == 0) Arm("batch.op.fail=rank1@op1");
    ctx.comm.Barrier();

    if (ctx.rank == 0) {
      const auto keys = KeysOwnedBy(shard, 1, 4);
      std::vector<papyruskv_event_t> evs(keys.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(PutAsyncStr(db, keys[i], "pf" + std::to_string(i), &evs[i]),
                  PAPYRUSKV_SUCCESS);
      }
      int failures = 0;
      for (size_t i = 0; i < evs.size(); ++i) {
        const int rc = papyruskv_wait(db, evs[i]);
        if (rc != PAPYRUSKV_SUCCESS) {
          EXPECT_EQ(rc, PAPYRUSKV_ERR);
          ++failures;
        }
      }
      // Exactly one op failed; its siblings in the same batch committed.
      EXPECT_EQ(failures, 1);
      fault::Registry::Instance().DisableAll();
      EXPECT_GT(papyrus::core::KvRuntime::Current()
                    ->metrics()
                    .GetCounter("async.op_errors")
                    .Value(),
                0u);
    }
    ctx.comm.Barrier();
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(AsyncApiTest, GetMultiMixesHitsMissesAndBothBufferModes) {
  // papyruskv_get_multi submits every key before finishing any, so the
  // remote lookups share get_multi frames; per-key results follow the
  // papyruskv_get buffer contract, and NOT_FOUND is a per-key status, not
  // a call failure.
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("multidb", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    ctx.comm.Barrier();

    if (ctx.rank == 0) {
      const auto remote = KeysOwnedBy(shard, 1, 2);
      const auto local = KeysOwnedBy(shard, 0, 1);
      ASSERT_EQ(papyruskv_put(db, remote[0].data(), remote[0].size(),
                              "far", 3),
                PAPYRUSKV_SUCCESS);
      ASSERT_EQ(papyruskv_put(db, local[0].data(), local[0].size(),
                              "near", 4),
                PAPYRUSKV_SUCCESS);

      // remote hit (pool buffer), local hit (caller buffer), remote miss.
      const std::string missing = "never-written";
      const char* keys[3] = {remote[0].data(), local[0].data(),
                             missing.data()};
      const size_t keylens[3] = {remote[0].size(), local[0].size(),
                                 missing.size()};
      char stack[16];
      char* values[3] = {nullptr, stack, nullptr};
      size_t vallens[3] = {0, sizeof(stack), 0};
      int statuses[3] = {-1, -1, -1};
      ASSERT_EQ(papyruskv_get_multi(db, 3, keys, keylens, values, vallens,
                                    statuses),
                PAPYRUSKV_SUCCESS);
      EXPECT_EQ(statuses[0], PAPYRUSKV_SUCCESS);
      ASSERT_NE(values[0], nullptr);
      EXPECT_EQ(std::string(values[0], vallens[0]), "far");
      ASSERT_EQ(papyruskv_free(db, values[0]), PAPYRUSKV_SUCCESS);
      EXPECT_EQ(statuses[1], PAPYRUSKV_SUCCESS);
      EXPECT_EQ(std::string(stack, vallens[1]), "near");
      EXPECT_EQ(statuses[2], PAPYRUSKV_NOT_FOUND);

      // A too-small caller buffer fails that key alone — and its code
      // becomes the call's return (first non-SUCCESS/NOT_FOUND status).
      char tiny[2];
      char* small_values[2] = {tiny, nullptr};
      size_t small_vallens[2] = {sizeof(tiny), 0};
      int small_statuses[2] = {-1, -1};
      const char* small_keys[2] = {remote[0].data(), local[0].data()};
      const size_t small_keylens[2] = {remote[0].size(), local[0].size()};
      EXPECT_EQ(papyruskv_get_multi(db, 2, small_keys, small_keylens,
                                    small_values, small_vallens,
                                    small_statuses),
                PAPYRUSKV_INVALID_ARG);
      EXPECT_EQ(small_statuses[0], PAPYRUSKV_INVALID_ARG);
      EXPECT_EQ(small_statuses[1], PAPYRUSKV_SUCCESS);
      ASSERT_NE(small_values[1], nullptr);
      EXPECT_EQ(std::string(small_values[1], small_vallens[1]), "near");
      ASSERT_EQ(papyruskv_free(db, small_values[1]), PAPYRUSKV_SUCCESS);

      EXPECT_EQ(papyruskv_get_multi(db, 1, nullptr, keylens, values,
                                    vallens, statuses),
                PAPYRUSKV_INVALID_ARG);
    }
    ctx.comm.Barrier();
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

TEST_F(AsyncApiTest, WaitRejectsUnknownAndNullArguments) {
  RunKv(1, tmp_.path(), [&](net::RankContext&) {
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("argdb", PAPYRUSKV_CREATE, nullptr, &db),
              PAPYRUSKV_SUCCESS);
    // A never-issued id (the table starts empty).
    EXPECT_EQ(papyruskv_wait(db, 999), PAPYRUSKV_INVALID_EVENT);
    papyruskv_event_t ev = 0;
    EXPECT_EQ(papyruskv_put_async(db, nullptr, 0, "v", 1, &ev),
              PAPYRUSKV_INVALID_ARG);
    char* value = nullptr;
    size_t vallen = 0;
    // get_async requires an event — the value arrives at wait time.
    EXPECT_EQ(papyruskv_get_async(db, "k", 1, &value, &vallen, nullptr),
              PAPYRUSKV_INVALID_ARG);
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

// Checkpoint events live in the same table as put_async events, but a fence
// retires only completed put/delete events: a checkpoint event that
// completed before the fence must survive it for its own papyruskv_wait.
TEST_F(AsyncApiTest, FenceNeverReapsCheckpointEvents) {
  TempDir snap{"async_ckpt"};
  RunKv(2, tmp_.path(), [&](net::RankContext& ctx) {
    papyruskv_option_t opt;
    ASSERT_EQ(papyruskv_option_init(&opt), PAPYRUSKV_SUCCESS);
    opt.consistency = PAPYRUSKV_SEQUENTIAL;
    papyruskv_db_t db;
    ASSERT_EQ(papyruskv_open("ckptev", PAPYRUSKV_CREATE, &opt, &db),
              PAPYRUSKV_SUCCESS);
    auto shard = papyrus::core::DbHandle(db);
    const auto local = KeysOwnedBy(shard, ctx.rank, 2);
    const auto remote = KeysOwnedBy(shard, 1 - ctx.rank, 1);
    ASSERT_EQ(PutStr(db, local[0], "before"), PAPYRUSKV_SUCCESS);

    papyruskv_event_t ckpt = 0;
    ASSERT_EQ(papyruskv_checkpoint(db, snap.path().c_str(), &ckpt),
              PAPYRUSKV_SUCCESS);
    // The SSTABLE barrier queues a flush behind the checkpoint's transfer on
    // the one compaction thread and waits for it, so the checkpoint event
    // is complete (reapable, were it a put) before the fence below.
    ASSERT_EQ(PutStr(db, local[1], "after"), PAPYRUSKV_SUCCESS);
    ASSERT_EQ(papyruskv_barrier(db, PAPYRUSKV_SSTABLE), PAPYRUSKV_SUCCESS);

    papyruskv_event_t put = 0;
    ASSERT_EQ(PutAsyncStr(db, remote[0], "v", &put), PAPYRUSKV_SUCCESS);
    ASSERT_EQ(papyruskv_fence(db), PAPYRUSKV_SUCCESS);
    // The fence consumed the put event, not the checkpoint event.
    EXPECT_EQ(papyruskv_wait(db, put), PAPYRUSKV_INVALID_EVENT);
    EXPECT_EQ(papyruskv_wait(db, ckpt), PAPYRUSKV_SUCCESS);
    // A waited runtime event is consumed like any other.
    EXPECT_EQ(papyruskv_wait(db, ckpt), PAPYRUSKV_INVALID_EVENT);
    ctx.comm.Barrier();
    ASSERT_EQ(papyruskv_close(db), PAPYRUSKV_SUCCESS);
  });
}

}  // namespace
}  // namespace papyrus::testutil
