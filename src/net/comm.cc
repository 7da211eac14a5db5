#include "net/comm.h"

#include <algorithm>
#include <cassert>

#include "common/coding.h"
#include "common/timer.h"
#include "fault/failpoint.h"

namespace papyrus::net {

namespace {
// Internal collective tags (channel 1 only, so they can never collide with
// user traffic even though values overlap).
constexpr int kBarrierInTag = 1;
constexpr int kBarrierOutTag = 2;
constexpr int kGatherTag = 3;
constexpr int kBcastTag = 4;

// The NowMicros() deadline timeout_us from now, saturating at kNoDeadline.
uint64_t DeadlineAfter(uint64_t timeout_us) {
  const uint64_t now = NowMicros();
  return timeout_us >= kNoDeadline - now ? kNoDeadline : now + timeout_us;
}
}  // namespace

void Mailbox::Deliver(Message msg) {
  msg.delivered_at_us = NowMicros();
  {
    MutexLock lock(&mu_);
    queue_.push_back(std::move(msg));
  }
  cv_.NotifyAll();
}

Message Mailbox::Recv(int src, int tag) {
  Message out;
  Receive(src, tag, kNoDeadline, &out);
  return out;
}

bool Mailbox::RecvFor(int src, int tag, uint64_t timeout_us, Message* out) {
  return Receive(src, tag, DeadlineAfter(timeout_us), out);
}

bool Mailbox::Receive(int src, int tag, uint64_t deadline_us, Message* out) {
  MutexLock lock(&mu_);
  for (;;) {
    const uint64_t now = NowMicros();
    uint64_t next_visible = kNoDeadline;
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (!Matches(*it, src, tag)) continue;
      if (it->visible_at_us > now) {
        // In flight (simulated propagation): wait for it below unless a
        // later, already-visible match exists — non-overtaking per
        // (src, tag) means no later match from the same source can be
        // visible earlier, so stopping at the first match is correct.
        next_visible = std::min(next_visible, it->visible_at_us);
        continue;
      }
      *out = std::move(*it);
      queue_.erase(it);
      return true;
    }
    if (now >= deadline_us) return false;
    // Wake at whichever comes first: an in-flight match turning visible or
    // the deadline.  A Deliver also notifies.  With neither, park: a
    // WaitForMicros on kNoDeadline would overflow the clock arithmetic.
    const uint64_t wake = std::min(next_visible, deadline_us);
    if (wake == kNoDeadline) {
      cv_.Wait(&mu_);
    } else {
      cv_.WaitForMicros(&mu_, wake - now);
    }
  }
}

World::World(const sim::Topology& topo) : topo_(topo), net_(topo) {}

Communicator World::world_comm(int rank) {
  return Communicator(this, /*comm_id=*/0, rank);
}

Mailbox& World::mailbox(uint64_t comm_id, int rank, int channel) {
  MutexLock lock(&mu_);
  auto& boxes = mailboxes_[comm_id];
  if (boxes.empty()) {
    boxes.resize(static_cast<size_t>(topo_.nranks) * 2);
    for (auto& b : boxes) b = std::make_unique<Mailbox>();
  }
  return *boxes[static_cast<size_t>(rank) * 2 + static_cast<size_t>(channel)];
}

uint64_t World::DerivedComm(uint64_t parent, uint64_t seq) {
  MutexLock lock(&mu_);
  auto key = std::make_pair(parent, seq);
  auto it = derived_.find(key);
  if (it != derived_.end()) return it->second;
  uint64_t id = next_comm_id_++;
  derived_.emplace(key, id);
  return id;
}

int Communicator::size() const { return world_->size(); }

void Communicator::Send(int dst, int tag, const Slice& payload) const {
  assert(tag >= 0 && "negative tags are reserved");
  assert(dst >= 0 && dst < world_->size());
  const uint64_t delay =
      world_->interconnect().Charge(rank_, dst, payload.size());
  Message msg{rank_, tag, payload.ToString(), delay ? NowMicros() + delay : 0};
  // Drop/dup faults model the fabric, so they apply only to user
  // point-to-point traffic that actually crosses it: loopback sends never
  // leave the rank, and collective traffic (SendInternal, channel 1) is
  // exempt so a dropped token cannot wedge a barrier — the recovery story
  // for collectives is the deadline in BarrierFor, not retransmission.
  if (fault::Enabled() && dst != rank_) {
    static fault::Point& drop =
        fault::Registry::Instance().GetPoint("net.msg.drop");
    static fault::Point& dup =
        fault::Registry::Instance().GetPoint("net.msg.dup");
    if (drop.Fire()) return;  // charged to the interconnect, never delivered
    if (dup.Fire()) world_->mailbox(comm_id_, dst, /*channel=*/0).Deliver(msg);
  }
  world_->mailbox(comm_id_, dst, /*channel=*/0).Deliver(std::move(msg));
}

Message Communicator::Recv(int src, int tag) const {
  return world_->mailbox(comm_id_, rank_, 0).Recv(src, tag);
}

bool Communicator::RecvFor(int src, int tag, uint64_t timeout_us,
                           Message* out) const {
  return world_->mailbox(comm_id_, rank_, 0).RecvFor(src, tag, timeout_us,
                                                     out);
}

void Communicator::SendInternal(int dst, int tag, const Slice& payload) const {
  const uint64_t delay =
      world_->interconnect().Charge(rank_, dst, payload.size());
  world_->mailbox(comm_id_, dst, /*channel=*/1)
      .Deliver(Message{rank_, tag, payload.ToString(),
                       delay ? NowMicros() + delay : 0});
}

bool Communicator::RecvInternal(int src, int tag, uint64_t deadline_us,
                                Message* out) const {
  return world_->mailbox(comm_id_, rank_, 1).Receive(src, tag, deadline_us,
                                                     out);
}

Communicator Communicator::Dup() const {
  const uint64_t seq = (*dup_seq_)++;
  const uint64_t id = world_->DerivedComm(comm_id_, seq);
  return Communicator(world_, id, rank_);
}

void Communicator::Barrier() const { BarrierUntil(kNoDeadline); }

bool Communicator::BarrierFor(uint64_t timeout_us) const {
  return BarrierUntil(DeadlineAfter(timeout_us));
}

bool Communicator::BarrierUntil(uint64_t deadline_us) const {
  const int n = size();
  if (n == 1) return true;
  Message m;
  if (rank_ == 0) {
    for (int r = 1; r < n; ++r) {
      if (!RecvInternal(kAnySource, kBarrierInTag, deadline_us, &m)) {
        return false;
      }
    }
    for (int r = 1; r < n; ++r) SendInternal(r, kBarrierOutTag, Slice());
    return true;
  }
  SendInternal(0, kBarrierInTag, Slice());
  return RecvInternal(0, kBarrierOutTag, deadline_us, &m);
}

void Communicator::Allgather(const Slice& mine,
                             std::vector<std::string>* out) const {
  const int n = size();
  out->assign(static_cast<size_t>(n), {});
  if (n == 1) {
    (*out)[0] = mine.ToString();
    return;
  }
  if (rank_ == 0) {
    (*out)[0] = mine.ToString();
    Message m;
    for (int i = 1; i < n; ++i) {
      RecvInternal(kAnySource, kGatherTag, kNoDeadline, &m);
      (*out)[static_cast<size_t>(m.src)] = std::move(m.payload);
    }
    // Serialize all contributions and broadcast.
    std::string packed;
    for (const auto& s : *out) PutLengthPrefixed(&packed, s);
    for (int r = 1; r < n; ++r) SendInternal(r, kBcastTag, packed);
  } else {
    SendInternal(0, kGatherTag, mine);
    Message m;
    RecvInternal(0, kBcastTag, kNoDeadline, &m);
    Slice in(m.payload);
    for (int i = 0; i < n; ++i) {
      Slice part;
      bool ok = GetLengthPrefixed(&in, &part);
      assert(ok);
      (void)ok;  // root encoded exactly n parts into the bcast payload
      (*out)[static_cast<size_t>(i)] = part.ToString();
    }
  }
}

}  // namespace papyrus::net
