#include "core/runtime.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/env.h"
#include "common/logging.h"
#include "common/timer.h"
#include "obs/export.h"
#include "repl/replicator.h"
#include "sim/storage.h"

namespace papyrus::core {

namespace {
thread_local KvRuntime* tls_runtime = nullptr;

// Metric name for request traffic of opcode `op` ("" suffix = messages).
const char* OpName(int op) {
  switch (op) {
    case kOpShutdown: return "shutdown";
    case kOpPutBatch: return "put_batch";
    case kOpGetMulti: return "get_multi";
    case kOpReplAppend: return "repl_append";
    case kOpReplQuery: return "repl_query";
    case kOpReplRead: return "repl_read";
  }
  return "other";
}

// Retroactively records how long `m` sat serviceable in the mailbox before
// the handler picked it up.  Called with the handler's OpSpan current, so
// the wait shows up as a child of the service span in the merged timeline.
void RecordQueueWait(const net::Message& m) {
  const uint64_t ready = std::max(m.delivered_at_us, m.visible_at_us);
  const uint64_t now = NowMicros();
  if (ready != 0 && now > ready) {
    obs::RecordSpan("net", "queue.wait", ready, now - ready);
  }
}

// Fire-and-log flight dump for fault paths (a failed dump must never turn a
// diagnosed timeout into a different error).
void DumpFlight(obs::FlightRecorder& flight, const char* reason) {
  Status s = flight.TriggerDump(reason);
  if (!s.ok()) {
    PLOG_WARN << "flight dump (" << reason << ") failed: " << s.ToString();
  }
}

// Local kv root spans recorded per thread: one in this many (E12b).
constexpr uint32_t kKvTraceSampleEvery = 64;

// Parses PAPYRUSKV_OBS=<dir>.  Outside input: a ',' is rejected rather
// than taken into the directory name, so a stale "<dir>,<ms>" (the retired
// sampler-interval suffix) fails init instead of creating "<dir>,<ms>/".
Status ParseObsConfig(const std::string& spec, ObsConfig* out) {
  if (spec.find(',') != std::string::npos) {
    return Status::InvalidArg("PAPYRUSKV_OBS wants a directory, got '" +
                              spec + "'");
  }
  out->dir = spec;
  return Status::OK();
}
}  // namespace

KvRuntime* KvRuntime::Current() { return tls_runtime; }

Status KvRuntime::Init(const std::string& repository) {
  if (tls_runtime) return Status(PAPYRUSKV_ERR, "already initialized");
  net::RankContext* ctx = net::CurrentRankContext();
  if (!ctx) {
    return Status(PAPYRUSKV_ERR,
                  "papyruskv_init must run inside an emulated rank "
                  "(net::RunRanks)");
  }
  std::string repo = repository;
  if (repo.empty()) {
    repo = EnvString("PAPYRUSKV_REPOSITORY").value_or("");
  }
  if (repo.empty()) return Status::InvalidArg("no repository configured");

  // Arm PAPYRUSKV_FAULTS (once per process) before any runtime traffic.
  Status fs = fault::InitFromEnvOnce();
  if (!fs.ok()) return fs;

  ObsConfig obs;
  Status os = ParseObsConfig(EnvString("PAPYRUSKV_OBS").value_or(""), &obs);
  if (os.ok() && !obs.dir.empty()) os = sim::Storage::CreateDirs(obs.dir);
  if (!os.ok()) return os;

  auto* rt = new KvRuntime(*ctx, repo, std::move(obs));
  Status s = rt->layout_.Prepare(ctx->size());
  if (!s.ok()) {
    delete rt;
    return s;
  }
  rt->StartThreads();
  tls_runtime = rt;
  rt->AdoptObservability();
  // Collective: nobody proceeds until every rank's runtime is up (its
  // handler must be able to serve incoming requests).
  ctx->comm.Barrier();
  return Status::OK();
}

Status KvRuntime::Finalize() {
  KvRuntime* rt = tls_runtime;
  if (!rt) return Status(PAPYRUSKV_CLOSED, "not initialized");
  // Close any databases left open (collective-consistent since every rank
  // holds the same descriptor set).
  std::vector<int> open_ids;
  {
    MutexLock lock(&rt->dbs_mu_);
    for (const auto& [id, db] : rt->dbs_) open_ids.push_back(id);
  }
  for (int id : open_ids) {
    Status cs = rt->Close(id);
    if (!cs.ok()) {
      PLOG_WARN << "finalize: closing db " << id << " failed: "
                << cs.ToString();
    }
  }
  rt->ctx_.comm.Barrier();
  rt->StopThreads();
  // After StopThreads every thread reporting into metrics_ is joined, so
  // the snapshot below is final.  Collective (allgather) when stats are on.
  rt->ExportObservability();
  rt->ctx_.comm.Barrier();
  delete rt;
  tls_runtime = nullptr;
  obs::SetCurrentRegistry(nullptr);
  obs::SetCurrentTrace(nullptr);
  obs::SetCurrentFlight(nullptr);
  return Status::OK();
}

KvRuntime::KvRuntime(net::RankContext& ctx, const std::string& repository,
                     ObsConfig obs)
    : ctx_(ctx),
      layout_(repository, ctx.topo, /*group_size=*/-1),
      req_comm_(ctx.comm.Dup()),
      resp_comm_(ctx.comm.Dup()),
      barrier_comm_(ctx.comm.Dup()),
      restart_comm_(ctx.comm.Dup()),
      signal_comm_(ctx.comm.Dup()),
      retry_(fault::RetryPolicy::FromEnv()),
      crash_point_(&fault::Registry::Instance().GetPoint("rank.crash")),
      repl_drop_point_(
          &fault::Registry::Instance().GetPoint("repl.append.drop")),
      obs_(std::move(obs)) {
  // Resolve the runtime's hot-path metrics once; updates are then lock-free.
  g_flush_q_ = &metrics_.GetGauge("net.flush_queue_depth");
  h_handler_us_ = &metrics_.GetHistogram("net.handler_service_us");
  for (int op = 0; op <= kOpMax; ++op) {
    const std::string base = std::string("net.req.") + OpName(op);
    c_req_msgs_[op] = &metrics_.GetCounter(base + ".msgs");
    c_req_bytes_[op] = &metrics_.GetCounter(base + ".bytes");
  }
  c_resp_msgs_ = &metrics_.GetCounter("net.resp.msgs");
  c_resp_bytes_ = &metrics_.GetCounter("net.resp.bytes");
  c_req_retries_ = &metrics_.GetCounter("net.req.retries");
  c_req_timeouts_ = &metrics_.GetCounter("net.req.timeouts");
  c_suspects_ = &metrics_.GetCounter("net.peer.suspects");
  g_async_depth_ = &metrics_.GetGauge("async.queue_depth");
  g_mig_q_ = &metrics_.GetGauge("net.migration_queue_depth");
  g_repl_lag_ = &metrics_.GetGauge("repl.lag_ops");
  h_kv_put_us_ = &metrics_.GetHistogram("kv.put_us");
  h_kv_get_us_ = &metrics_.GetHistogram("kv.get_us");
  trace_.SetRank(ctx.rank);
  // Local kv root spans are sampled 1 in 64 so always-on tracing stays
  // inside the E12 overhead budget; RPC/handler/store spans are never
  // sampled.
  trace_.SetKvSampleEvery(kKvTraceSampleEvery);
  // PAPYRUSKV_OBS arms stats, trace and flight dumps together.  Unset,
  // the flight recorder still records but never dumps.
  if (!obs_.dir.empty()) {
    trace_.set_enabled(true);
    flight_.ConfigureDump(obs_.RankPath("flight", ctx.rank), ctx.rank);
  }
}

KvRuntime::~KvRuntime() {
  MutexLock lock(&pool_mu_);
  for (char* p : pool_allocs_) free(p);
}

void KvRuntime::StartThreads() {
  compaction_thread_ = std::thread([this] { CompactionLoop(); });
  handler_thread_ = std::thread([this] { HandlerLoop(); });
  pipeline_.Start();
}

void KvRuntime::StopThreads() {
  // Auxiliary (restart) tasks may still need the pipeline/handler/
  // compaction threads; join them before tearing those down.
  std::vector<std::thread> aux;
  {
    MutexLock lock(&aux_mu_);
    aux.swap(aux_threads_);
  }
  for (auto& t : aux) t.join();

  // The pipeline stops first: it drains straggling work while every peer's
  // handler is still up (Finalize barriers before this).
  pipeline_.Stop();

  CompactionJob stop_flush;
  stop_flush.shutdown = true;
  flush_queue_.Push(std::move(stop_flush));
  // The handler exits on a self-addressed shutdown request.
  req_comm_.Send(ctx_.rank, kOpShutdown, Slice());  // analyze:allow-direct-send
  compaction_thread_.join();
  handler_thread_.join();
}

void KvRuntime::RunAsync(std::function<void()> task) {
  MutexLock lock(&aux_mu_);
  // The aux thread works on behalf of this rank: route its metrics here.
  aux_threads_.emplace_back([this, task = std::move(task)] {
    AdoptObservability("aux");
    task();
  });
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

void KvRuntime::AdoptObservability(const char* thread_name) {
  obs::SetCurrentRegistry(&metrics_);
  obs::SetCurrentTrace(&trace_);
  obs::SetCurrentFlight(&flight_);
  trace_.SetThreadName(thread_name);
  // Rank attribution for rank-scoped failpoint triggers on this thread.
  fault::SetThreadRank(ctx_.rank);
}

std::string ObsConfig::RankPath(const char* family, int rank) const {
  return obs::StatsPathForRank(dir + "/" + family + ".json", rank);
}

std::string RollUpStats(const net::Communicator& comm,
                        const std::string& mine_json) {
  std::vector<std::string> all;
  comm.Allgather(mine_json, &all);
  if (comm.rank() != 0) return "";
  obs::Snapshot agg;
  for (const std::string& json : all) {
    obs::Snapshot part;
    if (obs::ParseStatsJson(json, &part, nullptr)) agg.Merge(part);
  }
  obs::StatsMeta meta;
  meta.nranks = comm.size();
  meta.aggregated = true;
  return obs::SnapshotToJson(agg, meta);
}

std::string KvRuntime::StatsJson() const {
  obs::StatsMeta meta;
  meta.rank = ctx_.rank;
  meta.nranks = ctx_.size();
  return obs::SnapshotToJson(metrics_.TakeSnapshot(), meta);
}

HealthSnapshot KvRuntime::Health() {
  HealthSnapshot h;
  h.rank = ctx_.rank;
  h.nranks = ctx_.size();
  h.crashed = crashed();
  {
    MutexLock lock(&suspect_mu_);
    h.suspect_peers = static_cast<int>(suspects_.size());
  }
  {
    MutexLock lock(&dbs_mu_);
    for (const auto& [id, db] : dbs_) {
      repl::Replicator* r = db->replicator();
      if (r && r->Degraded()) h.degraded = true;
    }
  }
  h.pipeline_queue_depth = g_async_depth_->Value();
  h.flush_queue_depth = g_flush_q_->Value();
  h.migration_queue_depth = g_mig_q_->Value();
  h.repl_lag_ops = g_repl_lag_->Value();
  const uint64_t now = NowMicros();
  h.uptime_us = now >= start_us_ ? now - start_us_ : 0;
  // Whole-run rates and p99s from the cumulative histograms.
  const double secs =
      h.uptime_us ? static_cast<double>(h.uptime_us) / 1e6 : 1;
  const obs::HistogramData put = h_kv_put_us_->Snapshot();
  const obs::HistogramData get = h_kv_get_us_->Snapshot();
  h.put_rate = static_cast<double>(put.count) / secs;
  h.get_rate = static_cast<double>(get.count) / secs;
  h.put_p99_us = put.Percentile(99);
  h.get_p99_us = get.Percentile(99);
  return h;
}

void KvRuntime::ExportObservability() {
  if (obs_.dir.empty()) return;
  auto warn = [](const Status& s) {
    if (!s.ok()) PLOG_WARN << "observability dump failed: " << s.ToString();
  };
  const std::string mine = StatsJson();
  warn(obs::WriteTextFile(obs_.RankPath("stats", ctx_.rank), mine));

  // Rank-0 roll-up: every rank contributes its dump, rank 0 writes the
  // merged aggregate to <dir>/stats.json.
  const std::string agg = RollUpStats(barrier_comm_, mine);
  if (ctx_.rank == 0) warn(obs::WriteTextFile(obs_.dir + "/stats.json", agg));

  warn(trace_.WriteChromeTrace(obs_.RankPath("trace", ctx_.rank), ctx_.rank));
  // Fault paths dump earlier, on their own, the moment they fire; this is
  // the run's final window.
  DumpFlight(flight_, "finalize");
}

// ---------------------------------------------------------------------------
// Background threads
// ---------------------------------------------------------------------------

void KvRuntime::CompactionLoop() {
  AdoptObservability("compaction");
  for (;;) {
    CompactionJob job = flush_queue_.Pop();
    if (job.shutdown) return;
    g_flush_q_->Add(-1);
    if (job.task) {
      job.task();
      continue;
    }
    if (job.db && job.mem) {
      flight_.Record(obs::FlightKind::kFlush, "flush_immutable",
                     job.db->id());
      Status s = job.db->FlushImmutable(job.mem);
      if (!s.ok()) {
        PLOG_ERROR << "flush failed: " << s.ToString();
      }
    }
  }
}

void KvRuntime::HandlerLoop() {
  AdoptObservability("handler");
  for (;;) {
    // The handler parks on the request stream by design: shutdown arrives
    // as a self-addressed kOpShutdown message (never dropped — loopback is
    // exempt from fault injection), not as a deadline.
    // analyze:allow-proto-deadlock: shutdown is delivered as a loopback
    // kOpShutdown message that cannot be lost, so this wait always ends
    net::Message m = req_comm_.Recv();
    // Fail-stop (§4.2): a crashed rank must not answer requests — a reply
    // served from its emptied store would read as an authoritative miss and
    // mask the failover path.  Only the loopback shutdown is still honored;
    // peers see silence and drive their own retry/suspect/promotion logic.
    if (crashed() && m.tag != kOpShutdown) continue;
    // Service time only (the Recv wait above is idle time, not load).
    obs::ScopedLatency lat(h_handler_us_);
    switch (m.tag) {
      case kOpPutBatch:
        HandlePutBatch(m);
        break;
      case kOpGetMulti:
        HandleGetMulti(m);
        break;
      case kOpReplAppend:
        HandleReplAppend(m);
        break;
      case kOpReplQuery:
        HandleReplQuery(m);
        break;
      case kOpReplRead:
        HandleReplRead(m);
        break;
      case kOpShutdown:
        return;
      default:
        PLOG_WARN << "handler: unknown opcode " << m.tag;
        break;
    }
  }
}

void KvRuntime::HandlePutBatch(const net::Message& m) {
  uint32_t dbid = 0, resp_tag = 0;
  std::vector<KvRecord> records;
  obs::TraceContext ctx;
  if (!DecodePutBatch(m.payload, &dbid, &resp_tag, &records, &ctx)) {
    PLOG_ERROR << "handler: malformed put batch from rank " << m.src;
    return;
  }
  // Child of the sender's put_batch.rpc span (flow-linked across ranks):
  // the entire batch — pipeline frame or migration chunk — is serviced
  // under one handler wakeup.
  obs::OpSpan span("net", "handle.put_batch", ctx);
  RecordQueueWait(m);
  std::vector<int32_t> statuses;
  DbShardPtr db = Find(static_cast<int>(dbid));
  if (db) {
    statuses = db->ApplyBatch(records);
  } else {
    statuses.assign(records.size(), PAPYRUSKV_INVALID_DB);
    PLOG_WARN << "handler: put batch for unknown db " << dbid;
  }
  // One batched ack, sent after application (fences rely on this ordering),
  // carrying one status per op so partial failures surface per op.  Under
  // replication the ack is deferred until every op of the batch reached
  // quorum (DESIGN.md §12): the writer's fenced event completes only once
  // the data survives this rank's death.
  std::string ack = EncodePutBatchAck(statuses, span.context());
  if (db) {
    if (repl::Replicator* r = db->replicator()) {
      const int src = m.src;
      const int tag = static_cast<int>(resp_tag);
      r->AckWhenDurable(r->last_seq(),
                        [this, src, tag, ack = std::move(ack)] {
                          SendResponse(src, tag, ack);
                        });
      return;
    }
  }
  SendResponse(m.src, static_cast<int>(resp_tag), ack);
}

void KvRuntime::HandleGetMulti(const net::Message& m) {
  uint32_t dbid = 0, resp_tag = 0, caller_group = 0;
  std::vector<GetMultiOp> ops;
  obs::TraceContext ctx;
  if (!DecodeGetMulti(m.payload, &dbid, &resp_tag, &caller_group, &ops,
                      &ctx)) {
    PLOG_ERROR << "handler: malformed get multi from rank " << m.src;
    return;
  }
  obs::OpSpan span("net", "handle.get_multi", ctx);
  RecordQueueWait(m);
  std::vector<GetMultiResult> results(ops.size());
  DbShardPtr db = Find(static_cast<int>(dbid));
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!db) {
      results[i].status = PAPYRUSKV_INVALID_DB;
      continue;
    }
    // The full-search flag maps to caller_group=0xffffffff, which no
    // group matches (§2.7 fallback after a failed shared read).
    results[i].resp = db->HandleRemoteGet(
        ops[i].key, ops[i].full_search ? 0xffffffffu : caller_group);
  }
  SendResponse(m.src, static_cast<int>(resp_tag),
               EncodeGetMultiResp(results, span.context()));
}

void KvRuntime::HandleReplAppend(const net::Message& m) {
  uint32_t dbid = 0, resp_tag = 0;
  ReplAppendMeta meta;
  std::vector<KvRecord> records;
  obs::TraceContext ctx;
  if (!DecodeReplAppend(m.payload, &dbid, &resp_tag, &meta, &records, &ctx)) {
    PLOG_ERROR << "handler: malformed repl append from rank " << m.src;
    return;
  }
  obs::OpSpan span("net", "handle.repl_append", ctx);
  RecordQueueWait(m);
  if (fault::Enabled() && repl_drop_point_->Fire()) {
    // Injected stream loss: no ack, so the primary's frame retry redelivers
    // and the follower's sequence check deduplicates the replay.
    flight_.Record(obs::FlightKind::kFailpoint, "repl.append.drop", m.src);
    return;
  }
  repl::Replicator::ApplyResult r;
  DbShardPtr db = Find(static_cast<int>(dbid));
  if (db && db->replicator()) {
    r = db->replicator()->ApplyReplAppend(meta, records);
  } else {
    // Replication not configured on this rank (mixed options).  NACK with
    // epoch 0 — never a live stream epoch, so the primary ignores it rather
    // than entering a resync loop; this follower simply never acks.
    r.ok = false;
    r.epoch = 0;
    r.acked_seq = 0;
  }
  SendResponse(m.src, static_cast<int>(resp_tag),
               EncodeReplAppendAck(r.epoch, r.acked_seq, r.ok,
                                   span.context()));
}

void KvRuntime::HandleReplQuery(const net::Message& m) {
  uint32_t dbid = 0, resp_tag = 0, primary = 0;
  bool promote = false;
  obs::TraceContext ctx;
  if (!DecodeReplQuery(m.payload, &dbid, &resp_tag, &primary, &promote,
                       &ctx)) {
    PLOG_ERROR << "handler: malformed repl query from rank " << m.src;
    return;
  }
  obs::OpSpan span("net", "handle.repl_query", ctx);
  RecordQueueWait(m);
  uint64_t epoch = 0, last_seq = 0;
  bool in_sync = false;
  DbShardPtr db = Find(static_cast<int>(dbid));
  if (db && db->replicator()) {
    // Report the shadow's pre-promotion progress: promotion consumes the
    // shadow log, so the probe result must be captured first.
    db->replicator()->QueryShadow(static_cast<int>(primary), &epoch,
                                  &last_seq, &in_sync);
    if (db->HasPromoted(static_cast<int>(primary))) {
      // Already serving this partition (the takeover emptied the shadow the
      // probe just scored).  Report maximal progress so every later elector
      // converges here instead of promoting a second, diverging replica.
      epoch = UINT64_MAX;
      in_sync = true;
    }
    if (promote) {
      Status s = db->PromoteSelf(static_cast<int>(primary));
      if (!s.ok()) {
        PLOG_ERROR << "promotion for dead rank " << primary
                   << " failed: " << s.ToString();
        in_sync = false;  // the elector treats the reply as a refusal
      }
    }
  }
  SendResponse(m.src, static_cast<int>(resp_tag),
               EncodeReplQueryResp(epoch, last_seq, in_sync, span.context()));
}

void KvRuntime::HandleReplRead(const net::Message& m) {
  uint32_t dbid = 0, resp_tag = 0, primary = 0;
  std::string key;
  obs::TraceContext ctx;
  if (!DecodeReplRead(m.payload, &dbid, &resp_tag, &primary, &key, &ctx)) {
    PLOG_ERROR << "handler: malformed repl read from rank " << m.src;
    return;
  }
  obs::OpSpan span("net", "handle.repl_read", ctx);
  RecordQueueWait(m);
  // A shadow hit (including a tombstone) is authoritative for the volatile
  // tail; a miss is NOT a not-found — the shadow only covers the stream
  // since the last reset — so ok=0 sends the caller back to the owner.
  bool ok = false, tombstone = false;
  std::string value;
  DbShardPtr db = Find(static_cast<int>(dbid));
  if (db && db->replicator()) {
    ok = db->replicator()->ShadowGet(static_cast<int>(primary), key, &value,
                                     &tombstone);
  }
  SendResponse(m.src, static_cast<int>(resp_tag),
               EncodeReplReadResp(ok, /*found=*/ok, tombstone, value,
                                  span.context()));
}

// ---------------------------------------------------------------------------
// Transport helpers
// ---------------------------------------------------------------------------

void KvRuntime::SendRequest(int dst, int op, const Slice& payload) {
  const int slot = (op >= 1 && op <= kOpMax) ? op : 0;
  c_req_msgs_[slot]->Inc();
  c_req_bytes_[slot]->Inc(payload.size());
  req_comm_.Send(dst, op, payload);  // analyze:allow-direct-send
}

void KvRuntime::SendResponse(int dst, int tag, const Slice& payload) {
  c_resp_msgs_->Inc();
  c_resp_bytes_->Inc(payload.size());
  resp_comm_.Send(dst, tag, payload);  // analyze:allow-direct-send
}

Status KvRuntime::RequestReply(int dst, int op, const Slice& payload,
                               int resp_tag, net::Message* reply) {
  flight_.Record(obs::FlightKind::kOpBegin, OpName(op), dst,
                 retry_.max_attempts);
  SendRequest(dst, op, payload);
  return AwaitReply(dst, op, payload, resp_tag, reply);
}

Status KvRuntime::AwaitReply(int dst, int op, const Slice& payload,
                             int resp_tag, net::Message* reply) {
  for (int attempt = 1;; ++attempt) {
    if (resp_comm_.RecvFor(dst, resp_tag, retry_.reply_timeout_us, reply)) {
      flight_.Record(obs::FlightKind::kOpEnd, OpName(op), dst);
      return Status::OK();
    }
    if (attempt >= retry_.max_attempts) break;
    c_req_retries_->Inc();
    flight_.Record(obs::FlightKind::kRetry, OpName(op), dst, attempt + 1);
    PreciseSleepMicros(retry_.BackoffUs(attempt));
    SendRequest(dst, op, payload);
  }
  c_req_timeouts_->Inc();
  flight_.Record(obs::FlightKind::kTimeout, OpName(op), dst,
                 retry_.max_attempts);
  MarkSuspect(dst);
  // Post-mortem: the ring now ends with the begin/retry/timeout story of
  // the op that failed and the peer that failed it.
  DumpFlight(flight_, "request timeout");
  return Status::Timeout("no reply from rank " + std::to_string(dst) +
                         " for " + OpName(op) + " after " +
                         std::to_string(retry_.max_attempts) + " attempts");
}

Status KvRuntime::CollectiveBarrier() {
  if (barrier_comm_.BarrierFor(retry_.barrier_timeout_us)) return Status::OK();
  return Status::Timeout("collective barrier timed out");
}

Status KvRuntime::RestartBarrier() {
  if (restart_comm_.BarrierFor(retry_.barrier_timeout_us)) return Status::OK();
  return Status::Timeout("restart barrier timed out");
}

// ---------------------------------------------------------------------------
// Simulated rank failure
// ---------------------------------------------------------------------------

Status KvRuntime::CheckAlive() {
  if (crashed_.load(std::memory_order_acquire)) {
    return Status(PAPYRUSKV_ERR, "rank crashed (simulated)");
  }
  if (fault::Enabled() && crash_point_->Fire()) {
    TriggerCrash();
    return Status(PAPYRUSKV_ERR, "rank crashed (simulated)");
  }
  return Status::OK();
}

void KvRuntime::TriggerCrash() {
  bool expected = false;
  if (!crashed_.compare_exchange_strong(expected, true)) return;
  PLOG_WARN << "simulated crash: rank " << ctx_.rank
            << " dropping volatile state";
  metrics_.GetCounter("fault.rank_crash").Inc();
  flight_.Record(obs::FlightKind::kCrash, "rank", ctx_.rank);
  std::vector<DbShardPtr> dbs;
  {
    MutexLock lock(&dbs_mu_);
    for (const auto& [id, db] : dbs_) dbs.push_back(db);
  }
  // The NVM image (SSTables already flushed) survives, exactly like a real
  // power loss; everything in DRAM is gone.
  for (const auto& db : dbs) db->DropVolatile();
  // The last act of a dying rank: persist the window that explains it.
  DumpFlight(flight_, "simulated crash");
}

void KvRuntime::MarkSuspect(int rank) {
  {
    MutexLock lock(&suspect_mu_);
    if (!suspects_.insert(rank).second) return;  // already suspect
  }
  c_suspects_->Inc();
  flight_.Record(obs::FlightKind::kSuspect, "peer", rank);
}

bool KvRuntime::IsSuspect(int rank) {
  MutexLock lock(&suspect_mu_);
  return suspects_.count(rank) > 0;
}

void KvRuntime::ClearFaultState() {
  crashed_.store(false, std::memory_order_release);
  MutexLock lock(&suspect_mu_);
  suspects_.clear();
}

// ---------------------------------------------------------------------------
// Database lifecycle
// ---------------------------------------------------------------------------

Status KvRuntime::Open(const std::string& name, int flags, const Options& opt,
                       int* db_out) {
  if (name.empty() || !db_out) return Status::InvalidArg("open");
  (void)flags;  // creation is implicit; flags carry protection hints below

  Options effective = opt;
  // RDWR is WRONLY|RDONLY, so match the masked value exactly.
  switch (flags & PAPYRUSKV_RDWR) {
    case PAPYRUSKV_RDONLY:
      effective.protection = PAPYRUSKV_RDONLY;
      break;
    case PAPYRUSKV_WRONLY:
      effective.protection = PAPYRUSKV_WRONLY;
      break;
    case PAPYRUSKV_RDWR:
      effective.protection = PAPYRUSKV_RDWR;
      break;
    default:
      break;  // no protection bits: keep the option block's setting
  }

  int id;
  DbShardPtr db;
  {
    MutexLock lock(&dbs_mu_);
    id = next_db_id_++;
    db = std::make_shared<DbShard>(*this, static_cast<uint32_t>(id), name,
                                   effective);
    dbs_.emplace(id, db);
  }
  Status s = db->Open();
  if (!s.ok()) {
    MutexLock lock(&dbs_mu_);
    dbs_.erase(id);
    return s;
  }
  // Collective: every rank allocates ids in open order, so descriptors are
  // identical across ranks (§2.3), and nobody touches the database before
  // all ranks have it registered (remote requests would find no shard).
  s = CollectiveBarrier();
  if (!s.ok()) return s;
  *db_out = id;
  return Status::OK();
}

Status KvRuntime::Close(int id) {
  DbShardPtr db = Find(id);
  if (!db) return Status(PAPYRUSKV_INVALID_DB);
  // Collective.  Flush everything so the SSTables on NVM form a complete
  // image — this is what the zero-copy workflow (§4.1) reopens.
  Status s = db->FlushAll();
  {
    MutexLock lock(&dbs_mu_);
    dbs_.erase(id);
  }
  Status bs = CollectiveBarrier();
  return s.ok() ? bs : s;
}

DbShardPtr KvRuntime::Find(int id) {
  MutexLock lock(&dbs_mu_);
  auto it = dbs_.find(id);
  return it == dbs_.end() ? nullptr : it->second;
}

// ---------------------------------------------------------------------------
// Signals (§3.1)
// ---------------------------------------------------------------------------

Status KvRuntime::SignalNotify(int signum, const int* ranks, int count) {
  if (signum < 0 || (count > 0 && !ranks)) {
    return Status::InvalidArg("signal_notify");
  }
  for (int i = 0; i < count; ++i) {
    if (ranks[i] < 0 || ranks[i] >= size()) {
      return Status::InvalidArg("signal_notify: bad rank");
    }
    signal_comm_.Send(ranks[i], signum, Slice());  // analyze:allow-direct-send
  }
  return Status::OK();
}

Status KvRuntime::SignalWait(int signum, const int* ranks, int count) {
  if (signum < 0 || (count > 0 && !ranks)) {
    return Status::InvalidArg("signal_wait");
  }
  for (int i = 0; i < count; ++i) {
    if (ranks[i] < 0 || ranks[i] >= size()) {
      return Status::InvalidArg("signal_wait: bad rank");
    }
    net::Message m;
    if (!signal_comm_.RecvFor(ranks[i], signum, retry_.barrier_timeout_us,
                              &m)) {
      return Status::Timeout("signal wait exceeded its deadline");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Value pool
// ---------------------------------------------------------------------------

char* KvRuntime::AllocValue(size_t n) {
  char* p = static_cast<char*>(malloc(n ? n : 1));
  if (!p) return nullptr;
  MutexLock lock(&pool_mu_);
  pool_allocs_.insert(p);
  return p;
}

Status KvRuntime::FreeValue(char* p) {
  if (!p) return Status::OK();
  MutexLock lock(&pool_mu_);
  auto it = pool_allocs_.find(p);
  if (it == pool_allocs_.end()) {
    return Status::InvalidArg("papyruskv_free: pointer not from pool");
  }
  pool_allocs_.erase(it);
  free(p);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The event table (papyruskv_*_async, checkpoint/restart/destroy;
// papyruskv_wait)
// ---------------------------------------------------------------------------

int KvRuntime::RegisterAsyncOp(AsyncOp op) {
  MutexLock lock(&async_mu_);
  // The id sequence wraps within [1, INT_MAX) instead of overflowing
  // (signed UB); after a wrap, ids still outstanding are skipped.
  for (;;) {
    const int id = next_async_id_;
    next_async_id_ = id >= std::numeric_limits<int>::max() - 1 ? 1 : id + 1;
    // try_emplace: `op` is moved only when the id was actually free.
    if (async_ops_.try_emplace(id, std::move(op)).second) return id;
  }
}

Status KvRuntime::EventOrWait(async::OpHandle ev, int* event_out) {
  if (!event_out) return ev->Wait();
  AsyncOp op;
  op.handle = std::move(ev);
  op.kind = AsyncOp::Kind::kRuntime;
  *event_out = RegisterAsyncOp(std::move(op));
  return Status::OK();
}

Status KvRuntime::ReapAsyncOps() {
  std::vector<AsyncOp> reaped;
  {
    MutexLock lock(&async_mu_);
    for (auto it = async_ops_.begin(); it != async_ops_.end();) {
      if (it->second.kind == AsyncOp::Kind::kPut &&
          it->second.handle->done()) {
        reaped.push_back(std::move(it->second));
        it = async_ops_.erase(it);
      } else {
        ++it;
      }
    }
  }
  Status first = Status::OK();
  for (const AsyncOp& op : reaped) {
    Status s = op.handle->Wait();  // done: returns without blocking
    if (!s.ok() && first.ok()) first = std::move(s);
  }
  return first;
}

Status KvRuntime::WaitEvent(int id) {
  AsyncOp op;
  {
    MutexLock lock(&async_mu_);
    auto it = async_ops_.find(id);
    if (it == async_ops_.end()) return Status(PAPYRUSKV_INVALID_EVENT);
    op = std::move(it->second);
    async_ops_.erase(it);
  }
  if (op.kind != AsyncOp::Kind::kGet) return op.handle->Wait();
  // Get completion: §2.7 post-processing (cache fills, foreign-SSTable
  // search, fallback re-query) runs here on the waiting thread, then the
  // value lands under the same buffer contract as papyruskv_get.
  std::string out;
  Status s = op.db->FinishGet(op.key, op.handle, &out);
  if (!s.ok()) return s;
  if (*op.value == nullptr) {
    char* buf = AllocValue(out.size());
    if (!buf) return Status(PAPYRUSKV_OUT_OF_MEMORY);
    memcpy(buf, out.data(), out.size());
    *op.value = buf;
  } else {
    if (*op.vallen < out.size()) {
      *op.vallen = out.size();
      return Status::InvalidArg("value buffer too small");
    }
    memcpy(*op.value, out.data(), out.size());
  }
  *op.vallen = out.size();
  return Status::OK();
}

}  // namespace papyrus::core
