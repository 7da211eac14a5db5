// In-process multi-rank message passing — the substitution for MPI.
//
// The paper's runtime is "a user-level library using MPI" needing
// MPI_THREAD_MULTIPLE and *independent communicators* for its internal
// dispatcher/handler traffic (§2.4: "the runtime creates new independent MPI
// communicators and uses them in the message dispatcher and message
// handler").  This module reproduces exactly the slice of MPI semantics that
// PapyrusKV requires:
//
//   * N ranks = N threads (launched by net/runtime.h), each with a mailbox
//     per communicator;
//   * tagged point-to-point Send/Recv with MPI matching rules: receive by
//     (source | ANY_SOURCE, tag | ANY_TAG), non-overtaking per (src, tag);
//   * Dup() to derive independent communicators — messages on one can never
//     match receives on another (the interoperability guarantee that lets
//     the KVS runtime share the network with the application);
//   * the collectives the KVS needs: Barrier and Allgather.
//
// Every Send is charged against the simulated interconnect (sim/), so
// message timing reflects the modelled fabric.  All operations are
// thread-safe: a rank's main thread, dispatcher, and handler may use their
// communicators concurrently (MPI_THREAD_MULTIPLE).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/slice.h"
#include "sim/interconnect.h"

namespace papyrus::net {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;
// A receive deadline (NowMicros() time) that never passes.
inline constexpr uint64_t kNoDeadline = UINT64_MAX;

struct Message {
  int src = -1;
  int tag = 0;
  std::string payload;
  // Simulated propagation: the message may be matched by receives only
  // once NowMicros() >= visible_at_us (0 = immediately).  The sender's own
  // cost (injection + NIC occupancy) was already paid in Send.
  uint64_t visible_at_us = 0;
  // When the message landed in the destination mailbox (stamped by
  // Deliver).  Receivers use max(delivered_at_us, visible_at_us) as the
  // moment the message became serviceable, e.g. to trace handler queue
  // wait.
  uint64_t delivered_at_us = 0;
};

// One rank's receive queue on one communicator.  FIFO per (src, tag);
// receives take the earliest matching *visible* message.  Every receive —
// blocking, deadline-bounded, collective — runs the one match loop in
// Receive.
class Mailbox {
 public:
  void Deliver(Message msg);
  // Blocks until a message matching (src, tag) is available and visible.
  Message Recv(int src, int tag);
  // Deadline variant: waits at most timeout_us for a visible match; false on
  // timeout (timeout_us = 0 only takes an already-visible match).  The
  // recovery primitive for lost messages — see DESIGN.md §8.
  bool RecvFor(int src, int tag, uint64_t timeout_us, Message* out);
  // The match loop: takes the earliest visible match into *out, or waits
  // until deadline_us (NowMicros() time; kNoDeadline = forever) and returns
  // false.  Parks on the condvar while nothing matches and no deadline
  // bounds the wait; sleeps until the earliest in-flight match turns
  // visible otherwise.
  bool Receive(int src, int tag, uint64_t deadline_us, Message* out);

 private:
  bool Matches(const Message& m, int src, int tag) const {
    return (src == kAnySource || m.src == src) &&
           (tag == kAnyTag || m.tag == tag);
  }
  // Leaf lock: guards one mailbox's queue; Deliver/Recv never take another
  // lock while holding it.
  Mutex mu_{"mailbox_mu"};
  CondVar cv_;
  std::deque<Message> queue_ GUARDED_BY(mu_);
};

class World;

// A per-rank handle onto one communicator.  Cheap to copy; safe to use from
// any thread belonging to the owning rank.
class Communicator {
 public:
  Communicator() = default;

  int rank() const { return rank_; }
  int size() const;

  // Sends payload to dst with tag (tag must be >= 0; negative tags are
  // reserved for collectives).  Charges the interconnect model, then
  // delivers — the emulated eager protocol, like MPI_Send of a buffered
  // message.
  void Send(int dst, int tag, const Slice& payload) const;

  // Blocking receive with MPI matching rules.  Prefer RecvFor on any path
  // where the expected message can be lost (the analyzer rejects new naked
  // Recv call sites outside this module).
  Message Recv(int src = kAnySource, int tag = kAnyTag) const;
  // Deadline receive; false on timeout.  timeout_us = 0 is the
  // non-blocking probe+receive.
  bool RecvFor(int src, int tag, uint64_t timeout_us, Message* out) const;

  // Collective: returns a new communicator with the same group but a
  // disjoint message-matching space.  Must be called by all ranks in the
  // same order (standard MPI collective contract).
  Communicator Dup() const;

  // Collectives (all ranks must call; implemented over internal tags so
  // they never interfere with user point-to-point traffic).  Barrier is
  // BarrierFor without a deadline.
  void Barrier() const;
  // Barrier with a deadline covering the whole collective; false on timeout
  // (a peer failed to arrive — e.g. it crashed or wedged).  All ranks must
  // still call it; a timeout on one rank implies the barrier cannot
  // complete anywhere.
  bool BarrierFor(uint64_t timeout_us) const;
  // Gathers each rank's contribution into out (indexed by rank) on all
  // ranks.
  void Allgather(const Slice& mine, std::vector<std::string>* out) const;

  World* world() const { return world_; }
  bool valid() const { return world_ != nullptr; }

 private:
  friend class World;
  Communicator(World* world, uint64_t comm_id, int rank)
      : world_(world), comm_id_(comm_id), rank_(rank) {}

  void SendInternal(int dst, int tag, const Slice& payload) const;
  // Collective-channel receive on the match loop (deadline as in Receive).
  bool RecvInternal(int src, int tag, uint64_t deadline_us,
                    Message* out) const;
  bool BarrierUntil(uint64_t deadline_us) const;

  World* world_ = nullptr;
  uint64_t comm_id_ = 0;
  int rank_ = 0;
  // Per-rank count of Dup() calls on this communicator: SPMD programs call
  // collectives in the same order everywhere, so this sequence number is
  // identical across ranks and names the derived communicator uniquely.
  mutable std::shared_ptr<uint64_t> dup_seq_ = std::make_shared<uint64_t>(0);
};

// The shared state of one emulated job: topology, interconnect model, and
// mailboxes for every (communicator, rank).
class World {
 public:
  explicit World(const sim::Topology& topo);

  const sim::Topology& topology() const { return topo_; }
  sim::Interconnect& interconnect() { return net_; }
  int size() const { return topo_.nranks; }

  // The primordial communicator (MPI_COMM_WORLD analogue) for `rank`.
  Communicator world_comm(int rank);

 private:
  friend class Communicator;

  // Mailbox for (comm, rank), channel 0 = user, 1 = collectives.
  Mailbox& mailbox(uint64_t comm_id, int rank, int channel);
  // Registers/looks up the communicator derived from (parent, seq).
  uint64_t DerivedComm(uint64_t parent, uint64_t seq);

  sim::Topology topo_;
  sim::Interconnect net_;

  // Guards the registries below; the Mailbox objects themselves are stable
  // once created (unique_ptr), so a returned reference outlives the lock.
  Mutex mu_{"world_mu"};
  // comm_id -> per-rank mailboxes (two channels each).
  std::map<uint64_t, std::vector<std::unique_ptr<Mailbox>>> mailboxes_
      GUARDED_BY(mu_);
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> derived_ GUARDED_BY(mu_);
  uint64_t next_comm_id_ GUARDED_BY(mu_) = 1;
};

}  // namespace papyrus::net
