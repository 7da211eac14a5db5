// Submission/completion pipeline with same-destination request batching
// (DESIGN.md §9).
//
// KVell-style shared-nothing queues layered between the public API and the
// wire: the application enqueues operations per destination rank; a
// pipeline worker drains the queues, coalescing consecutive same-kind
// operations for one destination into a single `put_batch` / `get_multi`
// frame, so N remote operations share one wire round trip instead of N.
// DbShard's synchronous remote put/get (SyncPut/SyncGet) skip the worker
// when their destination is idle: the calling thread claims the
// destination and sends and awaits a one-op frame itself — one round trip,
// no thread handoff — and falls back to submit+wait otherwise, so under
// load they still coalesce.  Replication-stream appends run on their own
// lane (second worker thread) — see the Lane comment below for why sharing
// the ops lane would deadlock under the quorum commit rule.
// While one cycle's frames are in flight, new submissions accumulate — the
// pipeline batches *naturally* under load, no timer required (an optional
// PAPYRUSKV_BATCH_WINDOW_US accumulation window exists for benchmarking).
//
// Ordering (SDCB): each destination's queue preserves submission order, and
// the frames it breaks into form an ordered *chain* — frame N+1 is not put
// on the wire until frame N's ack arrives.  Chains to distinct destinations
// overlap (every chain's head frame is sent up front), but within one
// destination the only frame that can ever be retried is the newest one on
// the wire, so a retry can never re-apply data that a later frame to the
// same destination already committed: per-key ordering within a
// destination queue is exactly submission order, even across retries.
// Frames never mix op kinds or databases; a kind/db change breaks the
// frame.  A destination has at most one sender at a time — the ops lane's
// current cycle or one caller thread — and a caller may claim it only
// while it has no queued submission and no frame in flight, so a sync op
// never overtakes an earlier put_async to the same owner.
//
// Failure semantics: retry/timeout is per *frame*, on the runtime's one
// retry ladder (KvRuntime::AwaitReply; re-sending the chain's in-flight
// frame is idempotent, like migration chunks); per-op errors
// travel back in the batched ack, so a partially failed batch surfaces
// exactly which ops failed.  A frame unacknowledged after
// retry().max_attempts completes all of its ops with
// PAPYRUSKV_ERR_TIMEOUT and marks the peer suspect; the unsent frames
// behind it in the same chain fail the same way *without* being sent —
// the stuck frame may still be sitting in the peer's mailbox, and sending
// past it would reorder committed data.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/slice.h"
#include "common/status.h"
#include "core/wire.h"
#include "obs/metrics.h"

namespace papyrus::core {
class KvRuntime;
}  // namespace papyrus::core

namespace papyrus::obs {
class OpSpan;
}  // namespace papyrus::obs

namespace papyrus::async {

// Completion handle for one submitted operation.  Created by the pipeline
// (or already-completed for inline-resolved ops); waited on by exactly one
// consumer.  Gets carry their result payload: either a resolved value
// (kValue — the op never touched the wire) or the owner's GetResp (kResp —
// the caller runs §2.7 post-processing via DbShard::FinishGet).
class OpState {
 public:
  enum class Result { kNone, kValue, kResp };

  void Complete(Status s);
  void CompleteValue(Status s, std::string value);
  void CompleteResp(Status s, core::GetResp resp);

  // Blocks until completion; returns the operation's status.
  Status Wait();
  bool done() const;

  // Valid only after Wait() returned.
  Result result() const;
  const std::string& value() const { return value_; }
  // Moves the response out (single-consumer; call at most once).
  core::GetResp TakeResp() { return std::move(resp_); }

 private:
  // Leaf lock: guards one op's completion state only.
  mutable Mutex mu_{"async_op_mu"};
  CondVar cv_;
  bool done_ GUARDED_BY(mu_) = false;
  Status status_ GUARDED_BY(mu_);
  Result result_ GUARDED_BY(mu_) = Result::kNone;
  // Written once before done_ flips; read only after Wait() — no lock
  // needed on the consumer side.
  core::GetResp resp_;
  std::string value_;
};

using OpHandle = std::shared_ptr<OpState>;

// Already-completed handles for ops resolved without the pipeline (local
// puts, staged relaxed puts, gets decided from local memory).
OpHandle CompletedOp(Status s);
OpHandle CompletedValueOp(Status s, std::string value);

class AsyncPipeline {
 public:
  explicit AsyncPipeline(core::KvRuntime& rt);

  // Reads PAPYRUSKV_BATCH_MAX / PAPYRUSKV_BATCH_WINDOW_US and launches the
  // pipeline thread.  Stop() drains remaining submissions, then joins.
  void Start();
  void Stop();

  // Enqueue one remote put/delete (sequential mode) for `dst`.  An
  // untracked put (fire-and-forget) returns nullptr; its failure is kept as
  // the db's first failure for TakeFailure.
  OpHandle SubmitPut(int dst, uint32_t dbid, const Slice& key,
                     const Slice& value, bool tombstone, bool tracked = true);
  // Enqueue one remote get for `dst`; full_search forces the owner to
  // search its SSTables even for a same-group caller (§2.7 fallback).
  OpHandle SubmitGet(int dst, uint32_t dbid, const Slice& key,
                     bool full_search);

  // Synchronous SubmitPut/SubmitGet + Wait.  When `dst` is idle the op runs
  // on the calling thread: one one-op frame, sent and awaited on the
  // runtime's retry ladder, completed into the caller's stack.  A get's
  // response lands in *resp (valid when the returned status is OK).
  Status SyncPut(int dst, uint32_t dbid, const Slice& key, const Slice& value,
                 bool tombstone);
  Status SyncGet(int dst, uint32_t dbid, const Slice& key, bool full_search,
                 core::GetResp* resp);

  // Enqueue one replication-stream append for follower `dst` (DESIGN.md
  // §12).  Fire-and-forget at the submission layer — there is no OpHandle;
  // the frame's ack (or give-up) is delivered to the shard's Replicator as
  // OnAppendAck/OnAppendFailed from the pipeline thread.  Consecutive
  // submissions with the same epoch and contiguous sequence numbers coalesce
  // into one kOpReplAppend frame; `reset` starts a frame (resync marker).
  void SubmitReplAppend(int dst, uint32_t dbid, uint32_t primary,
                        uint64_t epoch, uint64_t seq, bool reset,
                        uint64_t flushed_through, const Slice& key,
                        const Slice& value, bool tombstone);

  // Sends one relaxed-mode migration (§2.4) on the calling dispatcher
  // thread: one put_batch frame per owner in `chunks`, every frame on the
  // wire before the first ack is awaited, on the same frame machinery and
  // retry ladder as the pipeline's own put frames.  Returns once each
  // frame is acked or given up; failures are logged (the records stay
  // idempotent to re-apply, and a dead owner must not wedge the fence).
  void Migrate(uint32_t dbid,
               const std::map<int, std::vector<core::KvRecord>>& chunks);

  // Blocks until every submitted op has completed (fence semantics for
  // async operations; see DbShard::Fence).
  void Drain();
  // Returns and clears the first failure of an untracked put to `dbid`
  // since the last call (DbShard::Fence reports it).
  Status TakeFailure(uint32_t dbid);

 private:
  struct Submission {
    enum class Kind { kPut, kGet, kRepl };
    Kind kind;
    uint32_t dbid = 0;
    std::string key;
    std::string value;
    bool tombstone = false;
    bool full_search = false;
    // kRepl stream coordinates (see wire.h ReplAppendMeta).
    uint32_t repl_primary = 0;
    uint64_t repl_epoch = 0;
    uint64_t repl_seq = 0;
    uint64_t repl_flushed = 0;
    bool repl_reset = false;
    uint64_t submitted_at = 0;  // obs::TickClock ticks at Submit*
    OpHandle handle;  // null for kRepl and untracked puts (no waiter)
  };

  // One encoded wire frame: consecutive same-kind, same-db ops for one
  // destination, capped at batch_max_.
  struct Frame {
    int dst = 0;
    Submission::Kind kind = Submission::Kind::kPut;
    uint32_t dbid = 0;
    int op = 0;  // wire opcode
    const char* name = "";
    int tag = 0;
    std::string payload;
    // The ops of a pipeline frame, in submission order (their keys and
    // values are moved into the payload).  Empty for a caller-thread frame,
    // whose one op completes into the caller's stack.
    std::vector<Submission> ops;
    std::unique_ptr<obs::OpSpan> rpc;  // open until the frame is acked
  };

  // One worker lane: its own thread, per-destination queues and in-flight
  // accounting (all guarded by mu_; a nested struct cannot name the outer
  // mutex in an annotation).  The pipeline runs TWO lanes:
  //
  //   ops   put/get frames.  Their acks may be *deferred* by the remote
  //         handler until the applied data reaches replication quorum
  //         (DESIGN.md §12), i.e. until the remote's own repl_append frames
  //         are acked.
  //   repl  replication-stream frames.  Followers ack immediately after the
  //         shadow apply — never deferred.
  //
  // The split is what makes the quorum commit rule deadlock-free: if repl
  // frames shared the ops lane, rank A's lane could block awaiting a put
  // ack that rank B defers until B's repl frames — queued behind B's
  // equally blocked lane — reach rank C, closing a cross-rank wait cycle
  // that only timeouts would break.  The repl lane never waits on anything
  // that waits back on it.
  struct Lane {
    const char* name = "";  // AdoptObservability tag for the worker thread
    uint64_t window_us = 0;
    std::thread thread;
    CondVar cv;  // submissions / stop
    // Never holds an empty queue: a destination with nothing queued has no
    // entry (TryClaim relies on it).
    std::map<int, std::deque<Submission>> queues;
    // Destinations with a sender: the current cycle's, plus (ops lane only)
    // those claimed by a caller thread.  Loop swaps out only the queues of
    // destinations not in here.
    std::set<int> owned;
    size_t queued = 0;
    size_t inflight = 0;
  };

  void Loop(Lane* lane);
  bool HasUnownedWorkLocked(const Lane& lane) const REQUIRES(mu_);
  // Builds, sends, and collects acks for one swap of a lane's queues.
  void ProcessCycle(std::map<int, std::deque<Submission>> work);
  void Enqueue(int dst, Submission s);  // routes on s.kind

  // Claims ops-lane destination `dst` for the calling thread; fails if it
  // has a queued submission or a frame in flight, or the rank crashed (the
  // cycle then fails the op unsent).  Release notifies the lane of
  // submissions that queued behind the claim.
  bool TryClaim(int dst);
  void Release(int dst);
  // Sends a claimed destination's one-op frame f from the calling thread,
  // awaits its ack, releases the claim and completes the op through
  // done(0, status, resp).
  template <typename Done>
  void RunClaimed(Frame* f, Done&& done);

  // Sends every chain's head frame up front, then awaits the chains in
  // turn under the SDCB rule: frame N+1 of a chain goes on the wire only
  // once frame N is acked, and a frame that exhausted its retries fails the
  // unsent rest of its chain.  settle(f, status, ack) receives each frame's
  // outcome, in chain order.  Used by ProcessCycle and Migrate.
  template <typename Settle>
  void RunChains(std::map<int, std::vector<Frame>>* chains, Settle&& settle);

  // The frame machinery shared by RunChains and the caller path.
  // EncodeFrame allocates f's reply tag, opens its RPC span and encodes its
  // payload from `records` (kPut/kRepl) or `gets` (kGet); a kRepl frame
  // takes its stream coordinates from f->ops.
  void EncodeFrame(Frame* f, const std::vector<core::KvRecord>& records,
                   const std::vector<core::GetMultiOp>& gets);
  void SendFrame(const Frame& f);
  // Awaits f's ack on the runtime's retry ladder and closes its RPC span.
  Status AwaitFrame(Frame* f, std::string* ack);
  // Completes a put/get frame's n ops from its await status and ack: a
  // failed await or a malformed ack fails every op with one status,
  // otherwise each op gets its own status (and, for a get, its response).
  // done(i, status, resp) delivers op i; op errors are counted here.
  template <typename Done>
  void CompleteFrame(const Frame& f, size_t n, Status st,
                     const std::string& ack, Done&& done);

  // Records op latency since `start` ticks into async.put_op_us /
  // async.get_op_us; call immediately before completing the op.
  void RecordOpLatency(Submission::Kind kind, uint64_t start);
  // Completes a submission: its handle (a get's with `resp`), or for an
  // untracked put the db's first-failure slot.
  void Finish(Submission& s, Status st, core::GetResp resp = {});

  core::KvRuntime& rt_;
  size_t batch_max_ = 256;

  bool started_ = false;  // Start/Stop called from the owning rank thread

  Mutex mu_{"async_pipe_mu"};
  CondVar drain_cv_;  // every lane's queued + inflight reached zero
  bool stop_ GUARDED_BY(mu_) = false;
  std::map<uint32_t, Status> failures_ GUARDED_BY(mu_);  // by dbid
  // Queue/counter fields guarded by mu_; name/window/thread are set before
  // the worker starts and joined after it stops, so they need no lock.
  Lane ops_lane_;
  Lane repl_lane_;

  // Cached metrics (resolved once; see obs/metrics.h).
  obs::Gauge* g_depth_;            // async.queue_depth
  obs::Gauge* g_inflight_;         // async.inflight (dispatched, unacked)
  obs::Histogram* h_put_batch_;    // async.batch_size
  obs::Histogram* h_get_batch_;    // async.get_batch_size
  obs::Histogram* h_repl_batch_;   // async.repl_batch_size
  obs::Counter* c_op_errors_;      // async.op_errors
  obs::Counter* c_frames_;         // async.frames
  // True per-op latency of every remote put/get, entry → completion (the
  // ack landing), on the pipeline and the caller path alike.  The
  // kv.put_us/get_us histograms cover the whole synchronous call; the async
  // entry points record only kv.*_submit_us at enqueue.
  obs::Histogram* h_put_op_us_;    // async.put_op_us
  obs::Histogram* h_get_op_us_;    // async.get_op_us
};

}  // namespace papyrus::async
