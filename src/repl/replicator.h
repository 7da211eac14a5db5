// Intra-group k-way replication (DESIGN.md §12).
//
// Each rank's partition is replicated onto the next k−1 ranks of its
// storage group (paper §2.7): co-located ranks already share NVM, so only
// the *volatile* tail of the partition — MemTable ops not yet flushed to an
// SSTable — has to move.  The primary assigns every committed local op a
// monotonically increasing sequence number, retains the unflushed suffix of
// that sequence in a replication log, and streams it to each follower
// through the async pipeline as versioned kOpReplAppend frames.  Followers
// apply the stream into a shadow MemTable keyed by (db, primary) and ack by
// (epoch, seq).
//
// Commit rule: an op is durable once ⌊k/2⌋+1 replicas (primary included)
// hold it.  The put_batch/migrate handlers defer their acks through
// AckWhenDurable(), so a remote writer's event completes only after quorum;
// the primary's own fence drains the pipeline, which processes every
// outstanding append ack.  When fewer than ⌊k/2⌋+1 replicas are live the
// group degrades explicitly: acks proceed on the survivors, a kDegraded
// flight event fires and repl.degraded counts the transition — durability
// is then only as good as the survivor set, never silently worse.
//
// Epoch/sequence rules: sequence numbers are per-primary and never reused;
// epochs are per-(primary, follower) stream incarnations.  A follower acks
// only contiguous extensions of its stream.  On a gap or epoch mismatch it
// NACKs (echoing the frame's epoch), and the primary resynchronizes: bump
// the follower's epoch and replay the whole retained log under a reset
// frame, which tells the follower to discard its shadow state and adopt
// the new epoch.  Stale in-flight frames from the previous epoch keep
// NACKing but echo the old epoch, so the primary ignores them.  The
// replication log is trimmed to the flush watermark (entries at or below
// it are on shared NVM); the watermark rides every append frame so
// followers bound their shadow logs the same way.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/slice.h"
#include "core/wire.h"
#include "store/memtable.h"

namespace papyrus::core {
class KvRuntime;
}  // namespace papyrus::core

namespace papyrus::obs {
class Counter;
class Gauge;
}  // namespace papyrus::obs

namespace papyrus::repl {

// The replica set for `rank`'s partition: the next replicas−1 ranks of its
// storage group (wrapping inside the group, clamped to the group span).
// Empty when replication is off or the group has a single member.
std::vector<int> FollowersOf(int rank, int nranks, int group_size,
                             int replicas);

// Per-shard replication engine: primary-side stream state for this rank's
// own partition plus follower-side shadow state for the primaries it backs.
// Owned by DbShard; null when the effective replica count is 1.
class Replicator {
 public:
  Replicator(core::KvRuntime* rt, uint32_t dbid, std::vector<int> followers);
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  // Replicas counting the primary.
  int k() const { return static_cast<int>(followers_.size()) + 1; }

  // ---- primary side -------------------------------------------------------
  // Called under DbShard::local_mu_, immediately after the local MemTable
  // apply: assigns the op its sequence number and enqueues one pipeline
  // submission per live follower.
  void Append(const Slice& key, const Slice& value, bool tombstone);

  // RotateLocalLocked: the active MemTable sealed at the current sequence.
  void NoteSeal(const void* mem);
  // FlushImmutable success: `mem` is on NVM; advance the flush watermark
  // over the contiguous flushed prefix and trim the log to entries above it.
  void NoteFlushed(const void* mem);

  // Highest assigned sequence number.
  uint64_t last_seq() const;

  // Runs `fn` once every op up to `seq` is durable at quorum (possibly
  // inline, on this thread).  Used by the runtime's apply handlers to defer
  // their acks; `fn` must be safe to call from the pipeline thread.
  void AckWhenDurable(uint64_t seq, std::function<void()> fn);

  // Blocks the calling (rank) thread until every op assigned so far is
  // durable at quorum.  Fence's replication gate for the primary's own
  // local puts; bounded because unresponsive followers eventually fail via
  // OnAppendFailed and drop out of the quorum calculation.
  void WaitLocalDurable();

  // Pipeline-thread callbacks, one per acked/failed kOpReplAppend frame.
  // `epoch` is the frame's epoch as echoed by the follower.
  void OnAppendAck(int follower, uint64_t epoch, uint64_t acked_seq, bool ok);
  void OnAppendFailed(int follower);

  // True when fewer than ⌊k/2⌋+1 replicas are live (fence-time check; the
  // transition itself was already recorded when it happened).
  bool Degraded() const;

  // ---- follower side ------------------------------------------------------
  struct ApplyResult {
    bool ok = false;          // false = NACK (epoch mismatch / gap)
    uint64_t epoch = 0;       // echoed frame epoch
    uint64_t acked_seq = 0;   // applied high-water mark
  };
  ApplyResult ApplyReplAppend(const core::ReplAppendMeta& meta,
                              const std::vector<core::KvRecord>& records);

  // Election probe: shadow progress for `primary`'s stream.
  void QueryShadow(int primary, uint64_t* epoch, uint64_t* last_seq,
                   bool* in_sync);

  // Read-from-replica: true when the shadow authoritatively serves `key`
  // (including a tombstone hit); false = not served here, caller falls
  // back to the owner.
  bool ShadowGet(int primary, const Slice& key, std::string* value,
                 bool* tombstone);

  // Promotion: removes and returns the shadow log tail for `primary` in
  // sequence order (entries above the primary's flush watermark; everything
  // below it is on shared NVM).  `last_seq` reports the stream's applied
  // high-water mark.
  std::vector<core::KvRecord> TakeShadowLog(int primary, uint64_t* last_seq);

  // DropVolatile / crash: forget everything — primary log, follower
  // shadows, pending waiters (writers observe timeouts, per fail-stop).
  void Reset();

 private:
  struct FollowerState {
    int rank = -1;
    uint64_t epoch = 1;
    uint64_t next_seq = 1;   // next sequence number to enqueue
    uint64_t acked_seq = 0;
    bool need_reset = true;  // next pumped frame starts a (re)sync
    bool down = false;
  };

  struct LogEntry {
    uint64_t seq = 0;
    core::KvRecord rec;
  };

  struct ShadowState {
    uint64_t epoch = 0;
    uint64_t next_seq = 1;  // next expected sequence number
    uint64_t flushed_through = 0;
    bool in_sync = false;   // false until a reset adopts the stream
    std::shared_ptr<store::MemTable> shadow;
    std::deque<std::pair<uint64_t, core::KvRecord>> log;
  };

  struct Waiter {
    uint64_t seq = 0;
    std::function<void()> fn;
  };

  // Enqueues every retained log entry from f.next_seq on, with the reset
  // flag on the first frame of a (re)sync.
  void PumpLocked(FollowerState& f) REQUIRES(mu_);
  // Sequence durable at ⌊k/2⌋+1 replicas; last_seq_ when degraded.
  uint64_t QuorumSeqLocked() REQUIRES(mu_);
  void CollectMaturedLocked(std::vector<Waiter>* out) REQUIRES(mu_);
  void UpdateLagLocked() REQUIRES(mu_);
  static void Fire(std::vector<Waiter>* waiters);

  core::KvRuntime* const rt_;
  const uint32_t dbid_;
  const std::vector<int> follower_ranks_;

  mutable Mutex mu_{"repl_mu"};
  std::vector<FollowerState> followers_ GUARDED_BY(mu_);
  uint64_t last_seq_ GUARDED_BY(mu_) = 0;
  uint64_t flushed_through_ GUARDED_BY(mu_) = 0;
  std::deque<LogEntry> log_ GUARDED_BY(mu_);
  // Seal-order (MemTable, sequence-at-seal) marks; a flush completion may
  // finish out of order, so the watermark only advances over the contiguous
  // flushed prefix.
  struct SealMark {
    const void* mem = nullptr;
    uint64_t seq = 0;
    bool flushed = false;
  };
  std::deque<SealMark> seals_ GUARDED_BY(mu_);
  std::vector<Waiter> waiters_ GUARDED_BY(mu_);
  bool degraded_ GUARDED_BY(mu_) = false;

  // Leaf lock for the follower-side shadow map (handler thread vs
  // promotion/read paths); never held together with mu_.
  mutable Mutex shadow_mu_{"repl_shadow_mu"};
  std::map<int, ShadowState> shadows_ GUARDED_BY(shadow_mu_);

  obs::Counter* c_appends_ = nullptr;
  obs::Counter* c_resyncs_ = nullptr;
  obs::Counter* c_degraded_ = nullptr;
  obs::Counter* c_shadow_applies_ = nullptr;
  obs::Gauge* g_lag_ = nullptr;
  // 0/1 level mirror of degraded_, so stats dumps show whether the stream
  // is degraded right now (repl.degraded counts transitions).
  obs::Gauge* g_degraded_now_ = nullptr;
};

}  // namespace papyrus::repl
