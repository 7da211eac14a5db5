#include "repl/replicator.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "async/pipeline.h"
#include "common/logging.h"
#include "core/runtime.h"
#include "obs/flight.h"
#include "obs/metrics.h"

namespace papyrus::repl {

namespace {
// The shadow MemTable is never sealed or rotated: it mirrors the primary's
// stream since the last reset and is bounded by the primary's partition
// size, so capacity-based sealing must never trip.
constexpr size_t kShadowCapacity = std::numeric_limits<size_t>::max() / 2;
}  // namespace

std::vector<int> FollowersOf(int rank, int nranks, int group_size,
                             int replicas) {
  std::vector<int> out;
  if (group_size <= 0 || replicas <= 1) return out;
  const int gstart = (rank / group_size) * group_size;
  const int gend = std::min(gstart + group_size, nranks);
  const int span = gend - gstart;
  const int k = std::min(replicas, span);
  out.reserve(static_cast<size_t>(k > 0 ? k - 1 : 0));
  for (int i = 1; i < k; ++i) {
    out.push_back(gstart + (rank - gstart + i) % span);
  }
  return out;
}

Replicator::Replicator(core::KvRuntime* rt, uint32_t dbid,
                       std::vector<int> followers)
    : rt_(rt), dbid_(dbid), follower_ranks_(std::move(followers)) {
  // Set-once before any other thread can see this object; the counters
  // themselves are thread-safe, so the pointers need no lock.
  obs::Registry& reg = rt_->metrics();
  c_appends_ = &reg.GetCounter("repl.appends");
  c_resyncs_ = &reg.GetCounter("repl.resyncs");
  c_degraded_ = &reg.GetCounter("repl.degraded");
  c_shadow_applies_ = &reg.GetCounter("repl.shadow_applies");
  g_lag_ = &reg.GetGauge("repl.lag_ops");
  g_degraded_now_ = &reg.GetGauge("repl.degraded_now");

  MutexLock lock(&mu_);
  followers_.reserve(follower_ranks_.size());
  for (int r : follower_ranks_) {
    FollowerState f;
    f.rank = r;
    followers_.push_back(f);
  }
}

Replicator::~Replicator() {
  // Safety net: by teardown every append has been acked or failed (the
  // pipeline drains before it stops), so matured waiters have fired; any
  // stragglers fire here so no writer can hang on a lost ack.
  std::vector<Waiter> leftovers;
  {
    MutexLock lock(&mu_);
    leftovers.swap(waiters_);
  }
  Fire(&leftovers);
}

void Replicator::Fire(std::vector<Waiter>* waiters) {
  for (Waiter& w : *waiters) {
    if (w.fn) w.fn();
  }
  waiters->clear();
}

void Replicator::PumpLocked(FollowerState& f) {
  if (log_.empty()) return;
  if (f.need_reset) f.next_seq = log_.front().seq;
  if (f.next_seq > last_seq_) return;
  // Entries are contiguous in the retained log: index of seq S is
  // S - front.seq.
  const uint64_t front_seq = log_.front().seq;
  bool reset = f.need_reset;
  for (uint64_t seq = std::max(f.next_seq, front_seq); seq <= last_seq_;
       ++seq) {
    const LogEntry& e = log_[static_cast<size_t>(seq - front_seq)];
    rt_->pipeline().SubmitReplAppend(f.rank, dbid_,
                                     static_cast<uint32_t>(rt_->rank()),
                                     f.epoch, seq, reset, flushed_through_,
                                     e.rec.key, e.rec.value, e.rec.tombstone);
    reset = false;
  }
  f.need_reset = false;
  f.next_seq = last_seq_ + 1;
}

void Replicator::Append(const Slice& key, const Slice& value,
                        bool tombstone) {
  MutexLock lock(&mu_);
  ++last_seq_;
  LogEntry e;
  e.seq = last_seq_;
  e.rec.key = key.ToString();
  e.rec.value = value.ToString();
  e.rec.tombstone = tombstone;
  log_.push_back(std::move(e));
  c_appends_->Inc();
  for (FollowerState& f : followers_) {
    if (f.down) continue;
    if (rt_->IsSuspect(f.rank)) {
      // Some other traffic already gave up on this peer; don't queue more
      // frames at a dead letter box — the quorum accounting drops it now
      // and OnAppendFailed-style degradation applies immediately.
      f.down = true;
      continue;
    }
    PumpLocked(f);
  }
  UpdateLagLocked();
}

void Replicator::NoteSeal(const void* mem) {
  MutexLock lock(&mu_);
  SealMark m;
  m.mem = mem;
  m.seq = last_seq_;
  seals_.push_back(m);
}

void Replicator::NoteFlushed(const void* mem) {
  MutexLock lock(&mu_);
  for (SealMark& m : seals_) {
    if (m.mem == mem) {
      m.flushed = true;
      break;
    }
  }
  // Flushes can complete out of order; the watermark only advances over the
  // contiguous flushed prefix of the seal order, because an entry is safe to
  // trim only when *every* MemTable holding it or an earlier entry is on NVM.
  while (!seals_.empty() && seals_.front().flushed) {
    flushed_through_ = std::max(flushed_through_, seals_.front().seq);
    seals_.pop_front();
  }
  while (!log_.empty() && log_.front().seq <= flushed_through_) {
    log_.pop_front();
  }
}

uint64_t Replicator::last_seq() const {
  MutexLock lock(&mu_);
  return last_seq_;
}

uint64_t Replicator::QuorumSeqLocked() {
  const size_t need = static_cast<size_t>(k()) / 2 + 1;
  std::vector<uint64_t> acked;
  acked.reserve(followers_.size() + 1);
  acked.push_back(last_seq_);  // the primary holds everything it assigned
  for (const FollowerState& f : followers_) {
    if (!f.down) acked.push_back(f.acked_seq);
  }
  if (acked.size() < need) {
    if (!degraded_) {
      degraded_ = true;
      c_degraded_->Inc();
      g_degraded_now_->Set(1);
      if (obs::FlightRecorder* fl = obs::CurrentFlight()) {
        fl->Record(obs::FlightKind::kDegraded, "repl_quorum",
                   static_cast<int64_t>(dbid_),
                   static_cast<int64_t>(acked.size()));
      }
      PLOG_WARN << "replication degraded: " << acked.size() << " of "
                << k() << " replicas live; acks proceed on survivors";
    }
    return last_seq_;
  }
  std::sort(acked.begin(), acked.end(), std::greater<uint64_t>());
  return acked[need - 1];
}

void Replicator::CollectMaturedLocked(std::vector<Waiter>* out) {
  if (waiters_.empty()) return;
  const uint64_t q = QuorumSeqLocked();
  auto it = waiters_.begin();
  while (it != waiters_.end()) {
    if (it->seq <= q) {
      out->push_back(std::move(*it));
      it = waiters_.erase(it);
    } else {
      ++it;
    }
  }
}

void Replicator::UpdateLagLocked() {
  uint64_t min_acked = last_seq_;
  for (const FollowerState& f : followers_) {
    if (!f.down) min_acked = std::min(min_acked, f.acked_seq);
  }
  g_lag_->Set(static_cast<int64_t>(last_seq_ - min_acked));
}

void Replicator::AckWhenDurable(uint64_t seq, std::function<void()> fn) {
  {
    MutexLock lock(&mu_);
    if (seq > QuorumSeqLocked()) {
      Waiter w;
      w.seq = seq;
      w.fn = std::move(fn);
      waiters_.push_back(std::move(w));
      return;
    }
  }
  fn();
}

void Replicator::WaitLocalDurable() {
  auto durable = std::make_shared<async::OpState>();
  AckWhenDurable(last_seq(), [durable] { durable->Complete(Status::OK()); });
  durable->Wait().IgnoreError();  // completes with OK only
}

void Replicator::OnAppendAck(int follower, uint64_t epoch,
                             uint64_t acked_seq, bool ok) {
  std::vector<Waiter> fire;
  {
    MutexLock lock(&mu_);
    FollowerState* f = nullptr;
    for (FollowerState& c : followers_) {
      if (c.rank == follower) f = &c;
    }
    if (f == nullptr) return;
    if (ok) {
      if (epoch == f->epoch && acked_seq > f->acked_seq) {
        f->acked_seq = acked_seq;
      }
    } else if (epoch == f->epoch && !f->down) {
      // A NACK about the *current* stream: the follower gapped (lost frame,
      // fresh restart).  Bump the epoch — stale in-flight frames keep
      // echoing the old one and are ignored here — and replay the whole
      // retained log under a reset frame.
      ++f->epoch;
      f->need_reset = true;
      f->acked_seq = 0;
      c_resyncs_->Inc();
      if (obs::FlightRecorder* fl = obs::CurrentFlight()) {
        fl->Record(obs::FlightKind::kReplResync, "follower", follower,
                   static_cast<int64_t>(f->epoch));
      }
      PumpLocked(*f);
    }
    CollectMaturedLocked(&fire);
    UpdateLagLocked();
  }
  Fire(&fire);
}

void Replicator::OnAppendFailed(int follower) {
  std::vector<Waiter> fire;
  {
    MutexLock lock(&mu_);
    for (FollowerState& f : followers_) {
      if (f.rank == follower) f.down = true;
    }
    CollectMaturedLocked(&fire);
    UpdateLagLocked();
  }
  Fire(&fire);
}

bool Replicator::Degraded() const {
  MutexLock lock(&mu_);
  return degraded_;
}

Replicator::ApplyResult Replicator::ApplyReplAppend(
    const core::ReplAppendMeta& meta,
    const std::vector<core::KvRecord>& records) {
  MutexLock lock(&shadow_mu_);
  ShadowState& s = shadows_[static_cast<int>(meta.primary)];
  if (meta.reset) {
    s = ShadowState();
    s.epoch = meta.epoch;
    s.next_seq = meta.first_seq;
    s.flushed_through = meta.flushed_through;
    s.in_sync = true;
    s.shadow = std::make_shared<store::MemTable>(
        store::MemTable::Kind::kLocal, kShadowCapacity);
  }
  ApplyResult r;
  r.epoch = meta.epoch;  // echo: lets the primary match NACKs to streams
  if (!s.in_sync || meta.epoch != s.epoch || meta.first_seq > s.next_seq) {
    if (meta.epoch == s.epoch && meta.first_seq > s.next_seq) {
      // A gap on the live stream: stop acking until the primary resets.
      s.in_sync = false;
    }
    r.ok = false;
    r.acked_seq = s.next_seq - 1;
    return r;
  }
  uint64_t seq = meta.first_seq;
  for (const core::KvRecord& rec : records) {
    if (seq >= s.next_seq) {  // else: duplicate prefix from a frame retry
      s.shadow->Put(rec.key, rec.value, rec.tombstone,
                    static_cast<int>(meta.primary));
      s.log.emplace_back(seq, rec);
      s.next_seq = seq + 1;
      c_shadow_applies_->Inc();
    }
    ++seq;
  }
  if (meta.flushed_through > s.flushed_through) {
    s.flushed_through = meta.flushed_through;
    while (!s.log.empty() && s.log.front().first <= s.flushed_through) {
      s.log.pop_front();
    }
  }
  r.ok = true;
  r.acked_seq = s.next_seq - 1;
  return r;
}

void Replicator::QueryShadow(int primary, uint64_t* epoch,
                             uint64_t* last_seq, bool* in_sync) {
  MutexLock lock(&shadow_mu_);
  auto it = shadows_.find(primary);
  if (it == shadows_.end()) {
    *epoch = 0;
    *last_seq = 0;
    *in_sync = false;
    return;
  }
  *epoch = it->second.epoch;
  *last_seq = it->second.next_seq - 1;
  *in_sync = it->second.in_sync;
}

bool Replicator::ShadowGet(int primary, const Slice& key, std::string* value,
                           bool* tombstone) {
  MutexLock lock(&shadow_mu_);
  auto it = shadows_.find(primary);
  if (it == shadows_.end() || !it->second.in_sync || !it->second.shadow) {
    return false;
  }
  return it->second.shadow->Get(key, value, tombstone);
}

std::vector<core::KvRecord> Replicator::TakeShadowLog(int primary,
                                                      uint64_t* last_seq) {
  MutexLock lock(&shadow_mu_);
  std::vector<core::KvRecord> out;
  auto it = shadows_.find(primary);
  if (it == shadows_.end()) {
    *last_seq = 0;
    return out;
  }
  out.reserve(it->second.log.size());
  for (auto& [seq, rec] : it->second.log) out.push_back(std::move(rec));
  *last_seq = it->second.next_seq - 1;
  // The primary is gone and this follower is being promoted: the shadow has
  // served its purpose, and the replay below re-replicates through the
  // promoted rank's own stream.
  shadows_.erase(it);
  return out;
}

void Replicator::Reset() {
  {
    MutexLock lock(&mu_);
    log_.clear();
    seals_.clear();
    waiters_.clear();  // fail-stop: a crashed rank acks nothing
    last_seq_ = 0;
    flushed_through_ = 0;
    degraded_ = false;
    g_degraded_now_->Set(0);
    for (FollowerState& f : followers_) {
      ++f.epoch;
      f.next_seq = 1;
      f.acked_seq = 0;
      f.need_reset = true;
      f.down = false;
    }
  }
  MutexLock lock(&shadow_mu_);
  shadows_.clear();
}

}  // namespace papyrus::repl
