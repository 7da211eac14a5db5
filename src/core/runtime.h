// KvRuntime: the per-rank PapyrusKV runtime.
//
// One instance lives in each rank between papyruskv_init and
// papyruskv_finalize.  It owns (paper §2.4):
//   * the *compaction thread* — drains the flushing queue (immutable local
//     MemTables → SSTables), runs merge compaction, and executes
//     checkpoint/restart file transfers (§4.2: "the compaction thread in
//     each rank starts to transfer the SSTables");
//   * the *message dispatcher* — drains the migration queue, sorting and
//     batching records per owner and sending them over the interconnect;
//   * the *message handler* — receives requests from other ranks and
//     applies/serves them;
//   * the flushing and migration queues themselves — lock-free, fixed
//     size, FIFO; producers block while full (back-pressure, §2.4);
//   * communicators dup'ed from the application's (§2.4: "the runtime
//     creates new independent MPI communicators"), so runtime traffic can
//     never interfere with application messages;
//   * the database registry, event registry, signal endpoint, and the
//     value memory pool backing papyruskv_get allocations.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>

#include "async/pipeline.h"
#include "common/mutex.h"
#include "common/ring_queue.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/db_shard.h"
#include "core/events.h"
#include "core/layout.h"
#include "core/options.h"
#include "core/wire.h"
#include "fault/failpoint.h"
#include "fault/retry.h"
#include "net/runtime.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace papyrus::core {

// Work item for the compaction thread: either an immutable local MemTable
// to flush, or a deferred task (checkpoint/restart transfer).
struct CompactionJob {
  DbShardPtr db;
  store::MemTablePtr mem;
  std::function<void()> task;
  bool shutdown = false;
};

// Work item for the message dispatcher: an immutable remote MemTable to
// migrate.
struct MigrationJob {
  DbShardPtr db;
  store::MemTablePtr mem;
  bool shutdown = false;
};

// Live per-rank health snapshot (papyruskv_health): read from the running
// store without stopping it — atomics, two leaf-mutex peeks, no
// collectives.  Rates/percentiles come from the timeline sampler's last
// window when the sampler is on (PAPYRUSKV_OBS), else from the whole-run
// cumulative histograms (window_us tells the caller which).
struct HealthSnapshot {
  int rank = 0;
  int nranks = 0;
  bool crashed = false;   // simulated fail-stop (rank.crash fired)
  bool degraded = false;  // any open db's replication below quorum
  int suspect_peers = 0;
  int64_t pipeline_queue_depth = 0;   // async.queue_depth
  int64_t flush_queue_depth = 0;      // net.flush_queue_depth
  int64_t migration_queue_depth = 0;  // net.migration_queue_depth
  int64_t repl_lag_ops = 0;           // repl.lag_ops
  uint64_t uptime_us = 0;
  uint64_t window_us = 0;         // the window the rates cover
  uint64_t timeline_samples = 0;  // 0 = sampler off
  double put_rate = 0;            // puts/s over window_us
  double get_rate = 0;
  double put_p99_us = 0;
  double get_p99_us = 0;
};

// The one telemetry switch, PAPYRUSKV_OBS=<dir>[,<interval_ms>]
// (DESIGN.md §6): parsed once by Init.  A non-empty dir arms stats, trace,
// timeline sampler and flight dumps, all written to fixed names in dir.
struct ObsConfig {
  std::string dir;            // empty = telemetry off
  uint64_t interval_ms = 50;  // timeline sampler window
  // <dir>/<family>.rank<k>.json
  std::string RankPath(const char* family, int rank) const;
};

// First handle value for papyruskv_*_async events.  Async-op handles and
// EventRegistry ids (checkpoint/restart/destroy) share the C API's
// papyruskv_event_t space; the registry allocates upward from 1 and can
// never reach this, so papyruskv_wait dispatches on the value alone.
inline constexpr int kAsyncEventBase = 1 << 30;

// One outstanding papyruskv_*_async operation.  Gets keep the caller's
// output pointers (which must stay valid until papyruskv_wait) plus the
// context for §2.7 post-processing at wait time.
struct AsyncOp {
  async::OpHandle handle;
  DbShardPtr db;         // gets only
  std::string key;       // gets only
  char** value = nullptr;
  size_t* vallen = nullptr;
  bool is_get = false;
};

class KvRuntime {
 public:
  // The calling rank-thread's runtime (null before Init/after Finalize).
  static KvRuntime* Current();

  // Collective: every rank calls Init with the same repository spec (empty
  // = $PAPYRUSKV_REPOSITORY).  Must run inside net::RunRanks.
  static Status Init(const std::string& repository);
  static Status Finalize();

  net::RankContext& ctx() { return ctx_; }
  int rank() const { return ctx_.rank; }
  int size() const { return ctx_.size(); }
  const StorageLayout& layout() const { return layout_; }
  EventRegistry& events() { return events_; }

  // ---- Observability (src/obs/) ----
  // This rank's metrics registry.  Installed as obs::Current() on the app
  // thread and every runtime thread, so all layers below report here.
  obs::Registry& metrics() { return metrics_; }
  obs::TraceBuffer& trace() { return trace_; }
  obs::FlightRecorder& flight() { return flight_; }
  // The continuous time-series sampler (DESIGN.md §13), enabled by
  // PAPYRUSKV_OBS; its thread starts/stops with the runtime's.
  obs::TimelineSampler& timeline() { return timeline_; }
  // Renders this rank's metrics as a stats-v1 JSON document
  // (papyruskv_stats).
  std::string StatsJson() const;
  // Renders this rank's timeline ring as a timeline-v1 JSON document; safe
  // while the sampler is running (benches gather it mid-run).
  std::string TimelineJson() const;
  // Fills a live health snapshot (papyruskv_health); works on a crashed
  // rank (health is exactly what you ask a sick rank for).
  HealthSnapshot Health();
  // Installs this runtime's registry/trace/flight recorder on the calling
  // thread (every thread that executes on behalf of this rank must call it
  // once); `thread_name` labels the thread's lane in exported traces.
  void AdoptObservability(const char* thread_name = "app");

  // ---- Database lifecycle (collective) ----
  Status Open(const std::string& name, int flags, const Options& opt,
              int* db_out);
  Status Close(int db);
  DbShardPtr Find(int db);

  // ---- Queues (called from DbShard; block while full) ----
  // The depth gauges count queued items; consumers decrement after Pop, so
  // the gauge reflects back-pressure the producers feel.
  void EnqueueFlush(CompactionJob job) {
    g_flush_q_->Add(1);
    flush_queue_.Push(std::move(job));
  }
  void EnqueueMigration(MigrationJob job) {
    g_mig_q_->Add(1);
    migration_queue_.Push(std::move(job));
  }
  // Runs `task` on the compaction thread after currently queued jobs
  // (checkpoint transfers: never enqueue flush work from inside).
  void EnqueueTask(std::function<void()> task) {
    CompactionJob job;
    job.task = std::move(task);
    EnqueueFlush(std::move(job));
  }
  // Runs `task` on a dedicated auxiliary thread (restart/redistribution:
  // these replay puts, which may themselves enqueue flush jobs — running
  // them on the compaction thread would deadlock against a full queue).
  void RunAsync(std::function<void()> task);

  // ---- Transport helpers ----
  void SendRequest(int dst, int op, const Slice& payload);
  void SendResponse(int dst, int tag, const Slice& payload);

  // ---- Async submission/completion pipeline (src/async/) ----
  async::AsyncPipeline& pipeline() { return pipeline_; }
  // Registers an outstanding papyruskv_*_async op; returns its event handle
  // (>= kAsyncEventBase).
  int RegisterAsyncOp(AsyncOp op);
  // papyruskv_wait for an async-op handle: waits for completion, runs get
  // post-processing, fills the caller's output buffer, releases the handle.
  Status WaitAsyncOp(int id);
  // Retires completed put/delete events that were never waited on — the
  // documented bulk-completion pattern (submit N evented ops, then fence)
  // must not leak one async_ops_ entry per op.  Called from DbShard::Fence
  // after the pipeline drain; a retired event is consumed exactly as if it
  // had been waited (a later papyruskv_wait returns PAPYRUSKV_INVALID_EVENT).
  // Get events stay registered: their value delivery happens at wait time.
  // Returns the first failed status among the reaped ops, so the fence
  // surfaces errors that would otherwise vanish with the handles.
  Status ReapAsyncOps();

  // Unique tag for a reply that may be retried (see wire.h: a retried
  // request must never match a previous attempt's late reply onto the next
  // request).
  int AllocRespTag() {
    return resp_tag_seq_.fetch_add(1, std::memory_order_relaxed);
  }

  // The one retry ladder (DESIGN.md §8) for a request (dst, op, payload)
  // whose first attempt the caller already sent: waits up to
  // retry().reply_timeout_us for the reply tagged resp_tag; on timeout
  // re-sends (runtime requests are idempotent) with exponential backoff.
  // After retry().max_attempts attempts, marks dst suspect, dumps the
  // flight ring and returns PAPYRUSKV_ERR_TIMEOUT.  Callers that overlap
  // several requests send them all first, then await each in turn.
  Status AwaitReply(int dst, int op, const Slice& payload, int resp_tag,
                    net::Message* reply);
  // One request on the ladder: SendRequest followed by AwaitReply.
  Status RequestReply(int dst, int op, const Slice& payload, int resp_tag,
                      net::Message* reply);

  const fault::RetryPolicy& retry() const { return retry_; }

  // ---- Simulated rank failure (rank.crash failpoint; DESIGN.md §8) ----
  // True once this rank has "crashed": volatile state is gone and public
  // API calls fail until checkpoint restart.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  // Fails once this rank has crashed; each call is also one firing
  // opportunity for the rank.crash failpoint (public KV ops call this, so
  // `rank.crash=rank2@op500` kills rank 2 on its 500th operation).
  Status CheckAlive();
  // Peer-health bookkeeping: a peer that exhausted its retries is suspect.
  void MarkSuspect(int rank);
  bool IsSuspect(int rank);
  // Restart (§4.2): the rank rejoins service — clear the simulated-crash
  // flag and forget suspects.  Called from the collective restart path, so
  // every rank's view resets together.
  void ClearFaultState();

  // Collective barrier for application-thread collectives (papyruskv
  // barrier/consistency/protect/open/close).  PAPYRUSKV_ERR_TIMEOUT when a
  // peer fails to arrive within retry().barrier_timeout_us.
  Status CollectiveBarrier();
  // Collective barrier usable from compaction-thread tasks (restart).
  Status RestartBarrier();
  net::Communicator& barrier_comm() { return barrier_comm_; }

  // ---- Signals (§3.1) ----
  Status SignalNotify(int signum, const int* ranks, int count);
  Status SignalWait(int signum, const int* ranks, int count);

  // ---- Persistence (§4; implemented in checkpoint.cc) ----
  Status Checkpoint(int db, const std::string& path, int* event_out);
  Status Restart(const std::string& path, const std::string& name, int flags,
                 const Options& opt, int* db_out, int* event_out);
  Status Destroy(int db, int* event_out);
  Status WaitEvent(int event);

  // ---- Value pool (papyruskv_get allocations / papyruskv_free) ----
  char* AllocValue(size_t n);
  Status FreeValue(char* p);

 private:
  KvRuntime(net::RankContext& ctx, const std::string& repository,
            ObsConfig obs);
  ~KvRuntime();

  void StartThreads();
  void StopThreads();

  void CompactionLoop();
  void DispatcherLoop();
  void HandlerLoop();

  void HandlePutBatch(const net::Message& m);
  void HandleGetMulti(const net::Message& m);
  void HandleReplAppend(const net::Message& m);
  void HandleReplQuery(const net::Message& m);
  void HandleReplRead(const net::Message& m);

  // Flips crashed_ (once) and discards all shards' volatile state — the
  // simulated power loss of §4.2's failure model.
  void TriggerCrash();

  // With PAPYRUSKV_OBS set, writes every rank's stats, trace, flight and
  // timeline files plus the rank-0 aggregate stats.json (allgather +
  // merge) into the obs dir.  Collective when set; reads no environment.
  void ExportObservability();

  net::RankContext& ctx_;
  StorageLayout layout_;
  EventRegistry events_;

  net::Communicator req_comm_;      // requests → handler threads
  net::Communicator resp_comm_;     // handler → requester threads
  net::Communicator barrier_comm_;  // app-thread collectives
  net::Communicator restart_comm_;  // compaction-thread collectives
  net::Communicator signal_comm_;   // papyruskv_signal_*

  BlockingRingQueue<CompactionJob> flush_queue_;
  BlockingRingQueue<MigrationJob> migration_queue_;

  std::thread compaction_thread_;
  std::thread dispatcher_thread_;
  std::thread handler_thread_;
  // Leaf locks: each guards exactly the fields named below and is never
  // held while acquiring another lock.
  Mutex aux_mu_{"rt_aux_mu"};
  std::vector<std::thread> aux_threads_ GUARDED_BY(aux_mu_);

  Mutex dbs_mu_{"rt_dbs_mu"};
  std::map<int, DbShardPtr> dbs_ GUARDED_BY(dbs_mu_);
  int next_db_id_ GUARDED_BY(dbs_mu_) = 1;

  Mutex pool_mu_{"rt_pool_mu"};
  std::unordered_set<char*> pool_allocs_ GUARDED_BY(pool_mu_);

  // Outstanding papyruskv_*_async ops, keyed by event handle.  Leaf lock:
  // released before blocking on any op.
  Mutex async_mu_{"rt_async_mu"};
  std::map<int, AsyncOp> async_ops_ GUARDED_BY(async_mu_);
  int next_async_id_ GUARDED_BY(async_mu_) = kAsyncEventBase;

  // Fault/recovery state (DESIGN.md §8).
  fault::RetryPolicy retry_;
  std::atomic<bool> crashed_{false};
  std::atomic<int> resp_tag_seq_{kDynamicRespTagBase};
  fault::Point* crash_point_;      // cached rank.crash failpoint
  fault::Point* repl_drop_point_;  // cached repl.append.drop failpoint
  const ObsConfig obs_;

  Mutex suspect_mu_{"rt_suspect_mu"};
  std::set<int> suspects_ GUARDED_BY(suspect_mu_);

  // Declared before the cached metric pointers below, which are resolved
  // from it in the constructor.
  obs::Registry metrics_;
  obs::TraceBuffer trace_;
  obs::FlightRecorder flight_;
  obs::Gauge* g_flush_q_;            // net.flush_queue_depth
  obs::Gauge* g_mig_q_;              // net.migration_queue_depth
  obs::Histogram* h_handler_us_;     // net.handler_service_us
  obs::Histogram* h_migration_us_;   // store.migration_us
  // Request traffic split by opcode (1..kOpMax) plus a slot 0 catch-all;
  // responses are a single bucket.
  obs::Counter* c_req_msgs_[kOpMax + 1];
  obs::Counter* c_req_bytes_[kOpMax + 1];
  obs::Counter* c_resp_msgs_;
  obs::Counter* c_resp_bytes_;
  obs::Counter* c_req_retries_;      // net.req.retries
  obs::Counter* c_req_timeouts_;     // net.req.timeouts
  obs::Counter* c_suspects_;         // net.peer.suspects
  // Resolved for Health(): the gauges/histograms other layers own.
  obs::Gauge* g_async_depth_;        // async.queue_depth
  obs::Gauge* g_repl_lag_;           // repl.lag_ops
  obs::Histogram* h_kv_put_us_;      // kv.put_us
  obs::Histogram* h_kv_get_us_;      // kv.get_us

  // Timeline sampler (DESIGN.md §13): configured from PAPYRUSKV_OBS
  // in the constructor, started/stopped with the runtime threads.  Declared
  // after metrics_ (it resolves tracked metrics from it).
  obs::TimelineSampler timeline_{&metrics_};
  const uint64_t start_us_ = NowMicros();

  // Declared last: its constructor resolves metrics from metrics_ above,
  // and Start/Stop bracket the other runtime threads (StartThreads/
  // StopThreads).
  async::AsyncPipeline pipeline_{*this};
};

}  // namespace papyrus::core
