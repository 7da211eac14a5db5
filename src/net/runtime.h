// The emulated SPMD job launcher.
//
// RunRanks(topo, fn) plays the role of mpirun: it creates one World (the
// job), spawns one thread per rank, runs fn in every rank with that rank's
// context, and joins.  An exception in any rank aborts the job and is
// rethrown to the caller (first one wins), so test failures inside ranks
// surface in gtest.
//
// A thread_local current-context pointer makes the rank context reachable
// from the flat C API (core/papyruskv.h) exactly as MPI rank state is
// implicitly ambient in a real MPI process.
#pragma once

#include <functional>
#include <string>

#include "net/comm.h"
#include "sim/interconnect.h"

namespace papyrus::net {

struct RankContext {
  int rank = 0;
  sim::Topology topo;
  World* world = nullptr;
  Communicator comm;  // MPI_COMM_WORLD analogue

  int size() const { return topo.nranks; }
  int node() const { return topo.NodeOf(rank); }
};

// The calling thread's rank context; null outside RunRanks.  Background
// threads spawned inside a rank (compaction, handler, pipeline) can adopt
// the parent's context via SetCurrentRankContext.
RankContext* CurrentRankContext();
void SetCurrentRankContext(RankContext* ctx);

// Runs fn on nranks emulated ranks (threads).  Blocks until all ranks
// return.  Rethrows the first rank exception, if any.
void RunRanks(const sim::Topology& topo,
              const std::function<void(RankContext&)>& fn);

// Convenience overload: flat rank count, all ranks on one node.
void RunRanks(int nranks, const std::function<void(RankContext&)>& fn);

}  // namespace papyrus::net
