#include "async/pipeline.h"

#include <cassert>
#include <iterator>
#include <utility>

#include "common/env.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/runtime.h"
#include "obs/flight.h"
#include "obs/trace.h"
#include "repl/replicator.h"

namespace papyrus::async {

using core::GetMultiOp;
using core::GetMultiResult;
using core::KvRecord;

// ---------------------------------------------------------------------------
// OpState
// ---------------------------------------------------------------------------

void OpState::Complete(Status s) {
  {
    MutexLock lock(&mu_);
    status_ = std::move(s);
    done_ = true;
  }
  cv_.NotifyAll();
}

void OpState::CompleteValue(Status s, std::string value) {
  value_ = std::move(value);
  {
    MutexLock lock(&mu_);
    status_ = std::move(s);
    result_ = Result::kValue;
    done_ = true;
  }
  cv_.NotifyAll();
}

void OpState::CompleteResp(Status s, core::GetResp resp) {
  resp_ = std::move(resp);
  {
    MutexLock lock(&mu_);
    status_ = std::move(s);
    result_ = Result::kResp;
    done_ = true;
  }
  cv_.NotifyAll();
}

Status OpState::Wait() {
  MutexLock lock(&mu_);
  while (!done_) cv_.Wait(&mu_);
  return status_;
}

bool OpState::done() const {
  MutexLock lock(&mu_);
  return done_;
}

OpState::Result OpState::result() const {
  MutexLock lock(&mu_);
  return result_;
}

OpHandle CompletedOp(Status s) {
  auto h = std::make_shared<OpState>();
  h->Complete(std::move(s));
  return h;
}

OpHandle CompletedValueOp(Status s, std::string value) {
  auto h = std::make_shared<OpState>();
  h->CompleteValue(std::move(s), std::move(value));
  return h;
}

// ---------------------------------------------------------------------------
// AsyncPipeline
// ---------------------------------------------------------------------------

AsyncPipeline::AsyncPipeline(core::KvRuntime& rt) : rt_(rt) {
  obs::Registry& reg = rt_.metrics();
  g_depth_ = &reg.GetGauge("async.queue_depth");
  g_inflight_ = &reg.GetGauge("async.inflight");
  h_put_batch_ = &reg.GetHistogram("async.batch_size");
  h_get_batch_ = &reg.GetHistogram("async.get_batch_size");
  h_repl_batch_ = &reg.GetHistogram("async.repl_batch_size");
  c_op_errors_ = &reg.GetCounter("async.op_errors");
  c_frames_ = &reg.GetCounter("async.frames");
  h_put_op_us_ = &reg.GetHistogram("async.put_op_us");
  h_get_op_us_ = &reg.GetHistogram("async.get_op_us");
}

void AsyncPipeline::RecordOpLatency(Submission::Kind kind, uint64_t start) {
  if (kind == Submission::Kind::kRepl) return;  // no per-op waiter
  obs::Histogram* h =
      kind == Submission::Kind::kPut ? h_put_op_us_ : h_get_op_us_;
  // `start` may come from another core's counter; clamp a skewed read.
  const uint64_t now = obs::TickClock::Now();
  h->Record(now > start ? obs::TickClock::ToMicros(now - start) : 0);
}

void AsyncPipeline::Finish(Submission& s, Status st, core::GetResp resp) {
  RecordOpLatency(s.kind, s.submitted_at);
  if (s.handle) {
    if (s.kind == Submission::Kind::kGet) {
      s.handle->CompleteResp(std::move(st), std::move(resp));
    } else {
      s.handle->Complete(std::move(st));
    }
  } else if (!st.ok()) {
    MutexLock lock(&mu_);
    failures_.try_emplace(s.dbid, std::move(st));
  }
}

Status AsyncPipeline::TakeFailure(uint32_t dbid) {
  MutexLock lock(&mu_);
  auto it = failures_.find(dbid);
  if (it == failures_.end()) return Status::OK();
  Status s = std::move(it->second);
  failures_.erase(it);
  return s;
}

void AsyncPipeline::Start() {
  if (started_) return;
  if (auto v = EnvInt("PAPYRUSKV_BATCH_MAX"); v && *v > 0) {
    batch_max_ = static_cast<size_t>(*v);
  }
  ops_lane_.name = "async";
  repl_lane_.name = "async_repl";
  // The accumulation window is an ops-lane bench knob only: a windowed repl
  // lane would add its delay to every quorum-deferred put ack.
  if (auto v = EnvInt("PAPYRUSKV_BATCH_WINDOW_US"); v && *v > 0) {
    ops_lane_.window_us = static_cast<uint64_t>(*v);
  }
  started_ = true;
  ops_lane_.thread = std::thread([this] { Loop(&ops_lane_); });
  repl_lane_.thread = std::thread([this] { Loop(&repl_lane_); });
}

void AsyncPipeline::Stop() {
  if (!started_) return;
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  ops_lane_.cv.NotifyAll();
  repl_lane_.cv.NotifyAll();
  ops_lane_.thread.join();
  repl_lane_.thread.join();
  started_ = false;
}

void AsyncPipeline::Enqueue(int dst, Submission s) {
  Lane& lane =
      s.kind == Submission::Kind::kRepl ? repl_lane_ : ops_lane_;
  {
    MutexLock lock(&mu_);
    lane.queues[dst].push_back(std::move(s));
    ++lane.queued;
    g_depth_->Set(static_cast<int64_t>(ops_lane_.queued + repl_lane_.queued));
  }
  lane.cv.NotifyOne();
}

OpHandle AsyncPipeline::SubmitPut(int dst, uint32_t dbid, const Slice& key,
                                  const Slice& value, bool tombstone,
                                  bool tracked) {
  Submission s;
  s.kind = Submission::Kind::kPut;
  s.dbid = dbid;
  s.key = key.ToString();
  s.value = value.ToString();
  s.tombstone = tombstone;
  s.submitted_at = obs::TickClock::Now();
  if (tracked) s.handle = std::make_shared<OpState>();
  OpHandle h = s.handle;
  Enqueue(dst, std::move(s));
  return h;
}

OpHandle AsyncPipeline::SubmitGet(int dst, uint32_t dbid, const Slice& key,
                                  bool full_search) {
  Submission s;
  s.kind = Submission::Kind::kGet;
  s.dbid = dbid;
  s.key = key.ToString();
  s.full_search = full_search;
  s.submitted_at = obs::TickClock::Now();
  s.handle = std::make_shared<OpState>();
  OpHandle h = s.handle;
  Enqueue(dst, std::move(s));
  return h;
}

void AsyncPipeline::SubmitReplAppend(int dst, uint32_t dbid, uint32_t primary,
                                     uint64_t epoch, uint64_t seq, bool reset,
                                     uint64_t flushed_through,
                                     const Slice& key, const Slice& value,
                                     bool tombstone) {
  Submission s;
  s.kind = Submission::Kind::kRepl;
  s.dbid = dbid;
  s.key = key.ToString();
  s.value = value.ToString();
  s.tombstone = tombstone;
  s.repl_primary = primary;
  s.repl_epoch = epoch;
  s.repl_seq = seq;
  s.repl_reset = reset;
  s.repl_flushed = flushed_through;
  Enqueue(dst, std::move(s));
}

Status AsyncPipeline::SyncPut(int dst, uint32_t dbid, const Slice& key,
                              const Slice& value, bool tombstone) {
  const uint64_t start = obs::TickClock::Now();
  if (!TryClaim(dst)) {
    return SubmitPut(dst, dbid, key, value, tombstone)->Wait();
  }
  Frame f;
  f.dst = dst;
  f.kind = Submission::Kind::kPut;
  f.dbid = dbid;
  std::vector<KvRecord> records;
  records.push_back(KvRecord{key.ToString(), value.ToString(), tombstone});
  EncodeFrame(&f, records, {});
  Status result;
  RunClaimed(&f, [&](size_t, Status st, core::GetResp) {
    RecordOpLatency(f.kind, start);
    result = std::move(st);
  });
  return result;
}

Status AsyncPipeline::SyncGet(int dst, uint32_t dbid, const Slice& key,
                              bool full_search, core::GetResp* resp) {
  const uint64_t start = obs::TickClock::Now();
  if (!TryClaim(dst)) {
    OpHandle h = SubmitGet(dst, dbid, key, full_search);
    Status s = h->Wait();
    if (s.ok()) *resp = h->TakeResp();
    return s;
  }
  Frame f;
  f.dst = dst;
  f.kind = Submission::Kind::kGet;
  f.dbid = dbid;
  std::vector<GetMultiOp> gets;
  gets.push_back(GetMultiOp{key.ToString(), full_search});
  EncodeFrame(&f, {}, gets);
  Status result;
  RunClaimed(&f, [&](size_t, Status st, core::GetResp r) {
    RecordOpLatency(f.kind, start);
    result = std::move(st);
    *resp = std::move(r);
  });
  return result;
}

bool AsyncPipeline::TryClaim(int dst) {
  // A crashed rank's ops take the submit path, whose cycle fails them
  // without sending.
  if (rt_.crashed()) return false;
  MutexLock lock(&mu_);
  if (ops_lane_.owned.count(dst) > 0 || ops_lane_.queues.count(dst) > 0) {
    return false;
  }
  ops_lane_.owned.insert(dst);
  return true;
}

void AsyncPipeline::Release(int dst) {
  bool queued_behind = false;
  {
    MutexLock lock(&mu_);
    ops_lane_.owned.erase(dst);
    queued_behind = ops_lane_.queues.count(dst) > 0;
  }
  if (queued_behind) ops_lane_.cv.NotifyOne();
}

template <typename Done>
void AsyncPipeline::RunClaimed(Frame* f, Done&& done) {
  SendFrame(*f);
  std::string ack;
  Status s = AwaitFrame(f, &ack);
  // The ack (or the give-up) ends this destination's one-frame chain.
  Release(f->dst);
  CompleteFrame(*f, 1, std::move(s), ack, std::forward<Done>(done));
}

void AsyncPipeline::Drain() {
  MutexLock lock(&mu_);
  while (ops_lane_.queued + ops_lane_.inflight + repl_lane_.queued +
             repl_lane_.inflight >
         0) {
    drain_cv_.Wait(&mu_);
  }
}

bool AsyncPipeline::HasUnownedWorkLocked(const Lane& lane) const {
  for (const auto& [dst, q] : lane.queues) {
    if (lane.owned.count(dst) == 0) return true;
  }
  return false;
}

void AsyncPipeline::Loop(Lane* lane) {
  rt_.AdoptObservability(lane->name);
  for (;;) {
    std::map<int, std::deque<Submission>> work;
    size_t count = 0;
    {
      MutexLock lock(&mu_);
      // Queues of caller-claimed destinations wait for the claim's release
      // (which notifies); at stop, for every queue to flush.
      while (!HasUnownedWorkLocked(*lane) && !(stop_ && lane->queued == 0)) {
        lane->cv.Wait(&mu_);
      }
      if (lane->queued == 0) return;  // stop_ set and nothing left to flush
      // Optional accumulation window: trade latency for larger batches
      // (benchmark knob; 0 = rely on natural batching under load).
      if (lane->window_us > 0) {
        const uint64_t deadline = NowMicros() + lane->window_us;
        while (!stop_) {
          const uint64_t now = NowMicros();
          if (now >= deadline) break;
          lane->cv.WaitForMicros(&mu_, deadline - now);
        }
      }
      for (auto it = lane->queues.begin(); it != lane->queues.end();) {
        auto next = std::next(it);
        if (lane->owned.insert(it->first).second) {
          count += it->second.size();
          work.insert(lane->queues.extract(it));
        }
        it = next;
      }
      lane->inflight += count;
      lane->queued -= count;
      g_depth_->Set(
          static_cast<int64_t>(ops_lane_.queued + repl_lane_.queued));
      g_inflight_->Set(
          static_cast<int64_t>(ops_lane_.inflight + repl_lane_.inflight));
    }
    std::vector<int> dsts;
    dsts.reserve(work.size());
    for (const auto& [dst, q] : work) dsts.push_back(dst);
    ProcessCycle(std::move(work));
    {
      MutexLock lock(&mu_);
      lane->inflight -= count;
      for (int dst : dsts) lane->owned.erase(dst);
      g_inflight_->Set(
          static_cast<int64_t>(ops_lane_.inflight + repl_lane_.inflight));
    }
    drain_cv_.NotifyAll();
  }
}

void AsyncPipeline::EncodeFrame(Frame* f, const std::vector<KvRecord>& records,
                                const std::vector<GetMultiOp>& gets) {
  using Kind = Submission::Kind;
  f->tag = rt_.AllocRespTag();
  // The RPC leg of the whole frame: each op serviced by the remote handler
  // becomes a flow-linked child of this span, so the merged timeline shows
  // N coalesced ops sharing one wire round trip.
  f->rpc = std::make_unique<obs::OpSpan>(
      "net",
      f->kind == Kind::kPut   ? "put_batch.rpc"
      : f->kind == Kind::kGet ? "get_multi.rpc"
                              : "repl_append.rpc",
      obs::OpSpan::kDetached);
  f->rpc->MarkFlowOut();
  const auto tag = static_cast<uint32_t>(f->tag);
  if (f->kind == Kind::kPut) {
    f->op = core::kOpPutBatch;
    f->name = "put_batch";
    h_put_batch_->Record(static_cast<uint64_t>(records.size()));
    f->payload = EncodePutBatch(f->dbid, tag, records, f->rpc->context());
  } else if (f->kind == Kind::kGet) {
    f->op = core::kOpGetMulti;
    f->name = "get_multi";
    const auto my_group =
        static_cast<uint32_t>(rt_.layout().GroupOf(rt_.rank()));
    h_get_batch_->Record(static_cast<uint64_t>(gets.size()));
    f->payload =
        EncodeGetMulti(f->dbid, tag, my_group, gets, f->rpc->context());
  } else {
    f->op = core::kOpReplAppend;
    f->name = "repl_append";
    core::ReplAppendMeta meta;
    meta.primary = f->ops.front().repl_primary;
    meta.epoch = f->ops.front().repl_epoch;
    meta.first_seq = f->ops.front().repl_seq;
    meta.flushed_through = f->ops.back().repl_flushed;
    meta.reset = f->ops.front().repl_reset;
    h_repl_batch_->Record(static_cast<uint64_t>(records.size()));
    f->payload = core::EncodeReplAppend(f->dbid, tag, meta, records,
                                        f->rpc->context());
  }
}

void AsyncPipeline::SendFrame(const Frame& f) {
  c_frames_->Inc();
  rt_.flight().Record(obs::FlightKind::kOpBegin, f.name, f.dst,
                      rt_.retry().max_attempts);
  rt_.SendRequest(f.dst, f.op, f.payload);
}

Status AsyncPipeline::AwaitFrame(Frame* f, std::string* ack) {
  net::Message reply;
  Status s = rt_.AwaitReply(f->dst, f->op, f->payload, f->tag, &reply);
  f->rpc.reset();  // close the frame's RPC span at ack (or give-up) time
  if (!s.ok()) {
    PLOG_ERROR << f->name << " to rank " << f->dst << ": " << s.ToString();
    return s;
  }
  *ack = std::move(reply.payload);
  return s;
}

template <typename Done>
void AsyncPipeline::CompleteFrame(const Frame& f, size_t n, Status st,
                                  const std::string& ack, Done&& done) {
  std::vector<int32_t> statuses;
  std::vector<GetMultiResult> results;
  if (st.ok()) {
    if (f.kind == Submission::Kind::kPut) {
      if (!core::DecodePutBatchAck(ack, &statuses) || statuses.size() != n) {
        st = Status::Corrupted("bad put batch ack");
      }
    } else if (!core::DecodeGetMultiResp(ack, &results) ||
               results.size() != n) {
      st = Status::Corrupted("bad get multi response");
    }
  }
  for (size_t i = 0; i < n; ++i) {
    Status op_st = st;
    core::GetResp resp;
    if (st.ok() && f.kind == Submission::Kind::kPut) {
      op_st = Status(statuses[i]);
    } else if (st.ok()) {
      op_st = Status(results[i].status);
      resp = std::move(results[i].resp);
    }
    if (!op_st.ok()) c_op_errors_->Inc();
    done(i, std::move(op_st), std::move(resp));
  }
}

template <typename Settle>
void AsyncPipeline::RunChains(std::map<int, std::vector<Frame>>* chains,
                              Settle&& settle) {
  // Only each chain's *head* frame goes on the wire up front: frames to
  // distinct destinations overlap, amortizing the round trip, but frame N+1
  // of a chain is released only by frame N's ack below.  This is what makes
  // the bounded re-send safe (DESIGN.md §8): the one frame per destination
  // that can be retried is always the newest one sent there, so a retry
  // re-applies at worst its own data — never data an earlier frame
  // committed after it (SDCB survives retries).
  for (auto& [dst, chain] : *chains) SendFrame(chain.front());

  for (auto& [dst, chain] : *chains) {
    bool dst_down = false;  // an earlier frame to dst exhausted its retries
    for (size_t fi = 0; fi < chain.size(); ++fi) {
      Frame& f = chain[fi];
      Status s;
      std::string ack;
      if (dst_down) {
        // Never sent: the timed-out frame ahead of this one may still be
        // sitting unapplied in the peer's mailbox, and sending past it
        // could commit data out of submission order.
        f.rpc.reset();
        s = Status::Timeout("rank " + std::to_string(dst) +
                            " unresponsive; " + f.name +
                            " not sent (earlier frame unacked)");
      } else {
        s = AwaitFrame(&f, &ack);
        dst_down = !s.ok();  // the unsent rest of this chain fails above
        // The ack proves the handler applied this frame; the next frame in
        // this destination's chain may now go on the wire.
        if (s.ok() && fi + 1 < chain.size()) SendFrame(chain[fi + 1]);
      }
      settle(f, std::move(s), ack);
    }
  }
}

void AsyncPipeline::ProcessCycle(std::map<int, std::deque<Submission>> work) {
  using Kind = Submission::Kind;
  if (rt_.crashed()) {
    // A crashed rank emits no traffic (§4.2 failure model); every queued op
    // still completes so no waiter can hang.  A repl op has no waiter: the
    // stream dies with the rank.
    for (auto& [dst, q] : work) {
      for (Submission& s : q) {
        c_op_errors_->Inc();
        if (s.kind != Kind::kRepl) {
          Finish(s, Status(PAPYRUSKV_ERR, "rank crashed (simulated)"));
        }
      }
    }
    return;
  }

  // Frames to one destination form an ordered chain, processed below under
  // the SDCB rule: frame N+1 is not put on the wire until frame N is acked.
  std::map<int, std::vector<Frame>> chains;
  for (auto& [dst, q] : work) {
    assert(dst != rt_.rank() && "pipeline never targets the local rank");
    size_t i = 0;
    while (i < q.size()) {
      Frame f;
      f.dst = dst;
      f.kind = q[i].kind;
      f.dbid = q[i].dbid;
      const size_t begin = i;
      while (i < q.size() && (i - begin) < batch_max_ &&
             q[i].kind == f.kind && q[i].dbid == f.dbid) {
        if (f.kind == Kind::kRepl && i != begin) {
          // A replication frame is one contiguous run of one stream
          // incarnation: an epoch change, a sequence discontinuity, or a
          // fresh resync marker starts a new frame (the follower acks each
          // frame by its (epoch, first_seq..) coordinates).
          const Submission& prev = f.ops.back();
          if (q[i].repl_reset || q[i].repl_epoch != prev.repl_epoch ||
              q[i].repl_seq != prev.repl_seq + 1) {
            break;
          }
        }
        f.ops.push_back(std::move(q[i]));
        ++i;
      }
      // The payload is the ops' only remaining use of their keys/values.
      std::vector<KvRecord> records;
      std::vector<GetMultiOp> gets;
      for (Submission& s : f.ops) {
        if (f.kind == Kind::kGet) {
          gets.push_back(GetMultiOp{std::move(s.key), s.full_search});
        } else {
          records.push_back(
              KvRecord{std::move(s.key), std::move(s.value), s.tombstone});
        }
      }
      EncodeFrame(&f, records, gets);
      chains[dst].push_back(std::move(f));
    }
  }

  RunChains(&chains, [&](Frame& f, Status s, const std::string& ack) {
    if (f.kind != Kind::kRepl) {
      CompleteFrame(f, f.ops.size(), std::move(s), ack,
                    [&](size_t i, Status st, core::GetResp resp) {
                      Finish(f.ops[i], std::move(st), std::move(resp));
                    });
      return;
    }
    uint64_t epoch = 0;
    uint64_t acked_seq = 0;
    bool ok = false;
    const bool acked =
        s.ok() && core::DecodeReplAppendAck(ack, &epoch, &acked_seq, &ok);
    if (!acked) c_op_errors_->Inc();
    core::DbShardPtr db = rt_.Find(static_cast<int>(f.dbid));
    repl::Replicator* r = db ? db->replicator() : nullptr;
    if (r == nullptr) return;
    if (acked) {
      // Hand the follower's (epoch, seq) progress — or its NACK — to the
      // shard's replicator; a NACK triggers an inline resync pump, whose
      // submissions land in the next cycle's queues.
      r->OnAppendAck(f.dst, epoch, acked_seq, ok);
    } else {
      // A failed replication frame fails the follower out of the shard's
      // quorum accounting (no per-op waiters to complete).
      r->OnAppendFailed(f.dst);
    }
  });
}

void AsyncPipeline::Migrate(
    uint32_t dbid, const std::map<int, std::vector<KvRecord>>& chunks) {
  // One single-frame chain per owner.  Re-applying a chunk is idempotent
  // (the handler replays the same records in order), and the dispatcher
  // holds this migration until every chunk is settled, so no later chunk
  // from this rank can interleave with a retry.
  std::map<int, std::vector<Frame>> chains;
  for (const auto& [owner, records] : chunks) {
    assert(owner != rt_.rank() &&
           "remote MemTable must not hold self-owned pairs");
    Frame f;
    f.dst = owner;
    f.kind = Submission::Kind::kPut;
    f.dbid = dbid;
    EncodeFrame(&f, records, {});
    chains[owner].push_back(std::move(f));
  }
  RunChains(&chains, [&](Frame& f, Status s, const std::string& ack) {
    const std::vector<KvRecord>& records = chunks.at(f.dst);
    size_t failed = 0;
    std::string first;  // the first failed record and its status
    CompleteFrame(f, records.size(), std::move(s), ack,
                  [&](size_t i, Status st, core::GetResp) {
                    if (st.ok()) return;
                    if (failed++ == 0) {
                      first = "'" + records[i].key + "': " + st.ToString();
                    }
                  });
    if (failed > 0) {
      PLOG_ERROR << "migration to rank " << f.dst << ": " << failed << " of "
                 << records.size() << " records failed, first " << first;
    }
  });
}

}  // namespace papyrus::async
