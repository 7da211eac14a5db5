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
  MutexLock lock(&mu_);
  for (;;) {
    const uint64_t now = NowMicros();
    uint64_t next_visible = UINT64_MAX;
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
      Message out = std::move(*it);
      queue_.erase(it);
      return out;
    }
    if (next_visible != UINT64_MAX) {
      cv_.WaitForMicros(&mu_, next_visible - now);
    } else {
      cv_.Wait(&mu_);
    }
  }
}

bool Mailbox::RecvFor(int src, int tag, uint64_t timeout_us, Message* out) {
  const uint64_t deadline = NowMicros() + timeout_us;
  MutexLock lock(&mu_);
  for (;;) {
    const uint64_t now = NowMicros();
    uint64_t next_visible = UINT64_MAX;
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (!Matches(*it, src, tag)) continue;
      if (it->visible_at_us > now) {
        next_visible = std::min(next_visible, it->visible_at_us);
        continue;
      }
      *out = std::move(*it);
      queue_.erase(it);
      return true;
    }
    if (now >= deadline) return false;
    // Wake at whichever comes first: an in-flight match turning visible or
    // the deadline.  A Deliver also notifies.
    cv_.WaitForMicros(&mu_, std::min(next_visible, deadline) - now);
  }
}

bool Mailbox::TryRecv(int src, int tag, Message* out) {
  MutexLock lock(&mu_);
  const uint64_t now = NowMicros();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (Matches(*it, src, tag) && it->visible_at_us <= now) {
      *out = std::move(*it);
      queue_.erase(it);
      return true;
    }
  }
  return false;
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

bool Communicator::TryRecv(int src, int tag, Message* out) const {
  return world_->mailbox(comm_id_, rank_, 0).TryRecv(src, tag, out);
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

Message Communicator::RecvInternal(int src, int tag) const {
  return world_->mailbox(comm_id_, rank_, 1).Recv(src, tag);
}

bool Communicator::RecvInternalFor(int src, int tag, uint64_t timeout_us,
                                   Message* out) const {
  return world_->mailbox(comm_id_, rank_, 1).RecvFor(src, tag, timeout_us,
                                                     out);
}

Communicator Communicator::Dup() const {
  const uint64_t seq = (*dup_seq_)++;
  const uint64_t id = world_->DerivedComm(comm_id_, seq);
  return Communicator(world_, id, rank_);
}

void Communicator::Barrier() const {
  const int n = size();
  if (n == 1) return;
  if (rank_ == 0) {
    for (int r = 1; r < n; ++r) RecvInternal(kAnySource, kBarrierInTag);
    for (int r = 1; r < n; ++r) SendInternal(r, kBarrierOutTag, Slice());
  } else {
    SendInternal(0, kBarrierInTag, Slice());
    RecvInternal(0, kBarrierOutTag);
  }
}

bool Communicator::BarrierFor(uint64_t timeout_us) const {
  const int n = size();
  if (n == 1) return true;
  const uint64_t deadline = NowMicros() + timeout_us;
  auto remaining = [deadline]() -> uint64_t {
    const uint64_t now = NowMicros();
    return deadline > now ? deadline - now : 0;
  };
  Message m;
  if (rank_ == 0) {
    for (int r = 1; r < n; ++r) {
      if (!RecvInternalFor(kAnySource, kBarrierInTag, remaining(), &m)) {
        return false;
      }
    }
    for (int r = 1; r < n; ++r) SendInternal(r, kBarrierOutTag, Slice());
  } else {
    SendInternal(0, kBarrierInTag, Slice());
    if (!RecvInternalFor(0, kBarrierOutTag, remaining(), &m)) return false;
  }
  return true;
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
    for (int i = 1; i < n; ++i) {
      Message m = RecvInternal(kAnySource, kGatherTag);
      (*out)[static_cast<size_t>(m.src)] = std::move(m.payload);
    }
    // Serialize all contributions and broadcast.
    std::string packed;
    for (const auto& s : *out) PutLengthPrefixed(&packed, s);
    for (int r = 1; r < n; ++r) SendInternal(r, kBcastTag, packed);
  } else {
    SendInternal(0, kGatherTag, mine);
    Message m = RecvInternal(0, kBcastTag);
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

void Communicator::Bcast(std::string* data, int root) const {
  const int n = size();
  if (n == 1) return;
  if (rank_ == root) {
    for (int r = 0; r < n; ++r) {
      if (r != root) SendInternal(r, kBcastTag, *data);
    }
  } else {
    Message m = RecvInternal(root, kBcastTag);
    *data = std::move(m.payload);
  }
}

uint64_t Communicator::AllreduceSum(uint64_t v) const {
  char buf[8];
  EncodeFixed64(buf, v);
  std::vector<std::string> all;
  Allgather(Slice(buf, 8), &all);
  uint64_t sum = 0;
  for (const auto& s : all) sum += DecodeFixed64(s.data());
  return sum;
}

uint64_t Communicator::AllreduceMax(uint64_t v) const {
  char buf[8];
  EncodeFixed64(buf, v);
  std::vector<std::string> all;
  Allgather(Slice(buf, 8), &all);
  uint64_t mx = 0;
  for (const auto& s : all) {
    uint64_t x = DecodeFixed64(s.data());
    if (x > mx) mx = x;
  }
  return mx;
}

}  // namespace papyrus::net
