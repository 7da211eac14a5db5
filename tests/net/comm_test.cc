#include "net/comm.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/timer.h"
#include "net/runtime.h"
#include "sim/device_model.h"

namespace papyrus::net {
namespace {

// Most communicator behavior is exercised through RunRanks with small rank
// counts — the same way the KVS runtime uses it.

TEST(CommTest, PointToPointDelivery) {
  RunRanks(2, [](RankContext& ctx) {
    if (ctx.rank == 0) {
      ctx.comm.Send(1, 7, Slice("payload"));
    } else {
      Message m = ctx.comm.Recv(0, 7);
      EXPECT_EQ(m.src, 0);
      EXPECT_EQ(m.tag, 7);
      EXPECT_EQ(m.payload, "payload");
    }
  });
}

TEST(CommTest, AnySourceAnyTagMatching) {
  RunRanks(3, [](RankContext& ctx) {
    if (ctx.rank != 0) {
      ctx.comm.Send(0, 10 + ctx.rank, Slice(std::to_string(ctx.rank)));
    } else {
      int seen = 0;
      for (int i = 0; i < 2; ++i) {
        Message m = ctx.comm.Recv(kAnySource, kAnyTag);
        EXPECT_EQ(m.tag, 10 + m.src);
        EXPECT_EQ(m.payload, std::to_string(m.src));
        seen |= 1 << m.src;
      }
      EXPECT_EQ(seen, 0b110);
    }
  });
}

TEST(CommTest, NonOvertakingPerSourceAndTag) {
  RunRanks(2, [](RankContext& ctx) {
    constexpr int kN = 200;
    if (ctx.rank == 0) {
      for (int i = 0; i < kN; ++i) {
        ctx.comm.Send(1, 5, Slice(std::to_string(i)));
      }
    } else {
      for (int i = 0; i < kN; ++i) {
        Message m = ctx.comm.Recv(0, 5);
        EXPECT_EQ(m.payload, std::to_string(i)) << "reordered at " << i;
      }
    }
  });
}

TEST(CommTest, TagSelectiveReceive) {
  RunRanks(2, [](RankContext& ctx) {
    if (ctx.rank == 0) {
      ctx.comm.Send(1, 1, Slice("first"));
      ctx.comm.Send(1, 2, Slice("second"));
    } else {
      // Receive out of send order by selecting the tag.
      Message m2 = ctx.comm.Recv(0, 2);
      EXPECT_EQ(m2.payload, "second");
      Message m1 = ctx.comm.Recv(0, 1);
      EXPECT_EQ(m1.payload, "first");
    }
  });
}

// A zero-timeout RecvFor is the non-blocking probe+receive.
TEST(CommTest, TryRecvNonBlocking) {
  RunRanks(2, [](RankContext& ctx) {
    if (ctx.rank == 0) {
      Message out;
      EXPECT_FALSE(ctx.comm.RecvFor(1, 99, 0, &out));  // nothing yet
      ctx.comm.Send(1, 3, Slice("go"));
      Message m = ctx.comm.Recv(1, 4);
      EXPECT_EQ(m.payload, "done");
    } else {
      Message m = ctx.comm.Recv(0, 3);
      EXPECT_EQ(m.payload, "go");
      ctx.comm.Send(0, 4, Slice("done"));
    }
  });
}

TEST(CommTest, DupIsolatesTraffic) {
  RunRanks(2, [](RankContext& ctx) {
    Communicator dup = ctx.comm.Dup();
    if (ctx.rank == 0) {
      ctx.comm.Send(1, 5, Slice("world"));
      dup.Send(1, 5, Slice("dup"));
    } else {
      // Same (src, tag) on both communicators: each message arrives only
      // on its own communicator.
      Message onDup = dup.Recv(0, 5);
      EXPECT_EQ(onDup.payload, "dup");
      Message onWorld = ctx.comm.Recv(0, 5);
      EXPECT_EQ(onWorld.payload, "world");
    }
  });
}

TEST(CommTest, DupSequenceConsistentAcrossRanks) {
  // Two Dups in the same collective order must pair up rank-to-rank.
  RunRanks(4, [](RankContext& ctx) {
    Communicator a = ctx.comm.Dup();
    Communicator b = ctx.comm.Dup();
    if (ctx.rank == 0) {
      for (int r = 1; r < 4; ++r) a.Send(r, 1, Slice("A"));
      for (int r = 1; r < 4; ++r) b.Send(r, 1, Slice("B"));
    } else {
      EXPECT_EQ(a.Recv(0, 1).payload, "A");
      EXPECT_EQ(b.Recv(0, 1).payload, "B");
    }
  });
}

TEST(CommTest, BarrierSynchronizes) {
  std::atomic<int> counter{0};
  RunRanks(4, [&](RankContext& ctx) {
    counter.fetch_add(1);
    ctx.comm.Barrier();
    // After the barrier every rank must observe all arrivals.
    EXPECT_EQ(counter.load(), 4);
    ctx.comm.Barrier();
  });
}

TEST(CommTest, RepeatedBarriersDontCross) {
  RunRanks(3, [](RankContext& ctx) {
    for (int i = 0; i < 50; ++i) ctx.comm.Barrier();
  });
}

TEST(CommTest, AllgatherCollectsInRankOrder) {
  RunRanks(4, [](RankContext& ctx) {
    std::vector<std::string> all;
    ctx.comm.Allgather(Slice("r" + std::to_string(ctx.rank)), &all);
    ASSERT_EQ(all.size(), 4u);
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(all[static_cast<size_t>(r)], "r" + std::to_string(r));
    }
  });
}

TEST(CommTest, SingleRankCollectivesAreNoops) {
  RunRanks(1, [](RankContext& ctx) {
    ctx.comm.Barrier();
    std::vector<std::string> all;
    ctx.comm.Allgather(Slice("x"), &all);
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0], "x");
    EXPECT_TRUE(ctx.comm.BarrierFor(0));
  });
}

TEST(CommTest, ConcurrentSendersToOneReceiver) {
  // MPI_THREAD_MULTIPLE-style usage: many ranks hammer rank 0.
  RunRanks(8, [](RankContext& ctx) {
    constexpr int kPer = 100;
    if (ctx.rank == 0) {
      uint64_t sum = 0;
      for (int i = 0; i < 7 * kPer; ++i) {
        Message m = ctx.comm.Recv(kAnySource, 9);
        sum += std::stoull(m.payload);
      }
      // Each rank r sends kPer copies of r.
      uint64_t expect = 0;
      for (int r = 1; r < 8; ++r) expect += static_cast<uint64_t>(r) * kPer;
      EXPECT_EQ(sum, expect);
    } else {
      for (int i = 0; i < kPer; ++i) {
        ctx.comm.Send(0, 9, Slice(std::to_string(ctx.rank)));
      }
    }
  });
}


TEST(CommTest, PropagationDelaysDeliveryNotSender) {
  // With the time scale up, a send returns quickly (injection only) but
  // the message is not receivable until the propagation latency elapses.
  sim::SetTimeScale(20000.0);  // one-way latency = 30ms
  sim::Topology topo{.nranks = 2, .ranks_per_node = 1};
  RunRanks(topo, [](RankContext& ctx) {
    if (ctx.rank == 0) {
      const uint64_t t0 = papyrus::NowMicros();
      ctx.comm.Send(1, 8, Slice(std::to_string(t0)));
      EXPECT_LT(papyrus::NowMicros() - t0, 25000u)
          << "sender paid propagation latency";
    } else {
      // The payload carries the send timestamp (threads share the same
      // steady clock): delivery must land a full propagation later, no
      // matter when this receiver thread got scheduled.
      Message m = ctx.comm.Recv(0, 8);
      const uint64_t sent_at = std::stoull(m.payload);
      EXPECT_GE(papyrus::NowMicros() - sent_at, 25000u)
          << "delivery was not delayed by propagation";
    }
  });
  sim::SetTimeScale(0.0);
}

// A zero-timeout RecvFor never takes a message that is still in flight.
TEST(CommTest, TryRecvSkipsInFlightMessages) {
  Mailbox box;
  Message in;
  in.src = 0;
  in.tag = 9;
  in.payload = "x";
  in.visible_at_us = papyrus::NowMicros() + 60'000'000;  // a minute out
  box.Deliver(in);
  Message out;
  EXPECT_FALSE(box.RecvFor(0, 9, 0, &out));
  EXPECT_FALSE(box.RecvFor(kAnySource, kAnyTag, 1000, &out));
  // A visible message behind it from another source is still taken.
  in.src = 1;
  in.payload = "y";
  in.visible_at_us = 0;
  box.Deliver(in);
  ASSERT_TRUE(box.RecvFor(kAnySource, 9, 0, &out));
  EXPECT_EQ(out.payload, "y");
}

// A receive without a deadline returns an in-flight message once it turns
// visible (not before, and without parking past it).
TEST(CommTest, RecvWithoutDeadlineTakesInFlightMessageOnceVisible) {
  Mailbox box;
  Message in;
  in.src = 0;
  in.tag = 9;
  in.payload = "late";
  const uint64_t t0 = papyrus::NowMicros();
  in.visible_at_us = t0 + 30'000;
  box.Deliver(in);
  Message out = box.Recv(0, 9);
  EXPECT_EQ(out.payload, "late");
  EXPECT_GE(papyrus::NowMicros(), t0 + 30'000);
}

}  // namespace
}  // namespace papyrus::net
