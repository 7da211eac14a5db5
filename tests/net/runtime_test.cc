#include "net/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "common/mutex.h"

namespace papyrus::net {
namespace {

TEST(RuntimeTest, EveryRankRunsOnceWithDistinctIds) {
  Mutex mu("runtime_test_mu");
  std::set<int> seen;
  RunRanks(6, [&](RankContext& ctx) {
    MutexLock lock(&mu);
    EXPECT_TRUE(seen.insert(ctx.rank).second) << "duplicate rank";
    EXPECT_EQ(ctx.size(), 6);
  });
  EXPECT_EQ(seen.size(), 6u);
}

TEST(RuntimeTest, TopologyOverloadAssignsNodes) {
  sim::Topology topo{.nranks = 6, .ranks_per_node = 2};
  RunRanks(topo, [](RankContext& ctx) {
    EXPECT_EQ(ctx.node(), ctx.rank / 2);
  });
}

TEST(RuntimeTest, CurrentRankContextIsThreadLocal) {
  RunRanks(3, [](RankContext& ctx) {
    RankContext* cur = CurrentRankContext();
    ASSERT_NE(cur, nullptr);
    EXPECT_EQ(cur->rank, ctx.rank);
    // A thread spawned inside a rank has no ambient context until adopted.
    std::thread child([&] {
      EXPECT_EQ(CurrentRankContext(), nullptr);
      SetCurrentRankContext(&ctx);
      EXPECT_EQ(CurrentRankContext()->rank, ctx.rank);
      SetCurrentRankContext(nullptr);
    });
    child.join();
  });
}

TEST(RuntimeTest, RankExceptionPropagates) {
  EXPECT_THROW(
      RunRanks(4,
               [](RankContext& ctx) {
                 if (ctx.rank == 2) throw std::runtime_error("rank 2 died");
               }),
      std::runtime_error);
}

TEST(RuntimeTest, SequentialJobsAreIndependent) {
  // Two jobs back to back: worlds must not leak state between runs.
  for (int job = 0; job < 2; ++job) {
    RunRanks(2, [&](RankContext& ctx) {
      if (ctx.rank == 0) {
        ctx.comm.Send(1, 1, Slice("j" + std::to_string(job)));
      } else {
        EXPECT_EQ(ctx.comm.Recv(0, 1).payload, "j" + std::to_string(job));
        // No stale messages from the previous job.
        Message stale;
        EXPECT_FALSE(ctx.comm.RecvFor(kAnySource, kAnyTag, 0, &stale));
      }
    });
  }
}

}  // namespace
}  // namespace papyrus::net
