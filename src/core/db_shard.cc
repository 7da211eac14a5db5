#include "core/db_shard.h"

#include <algorithm>
#include <cassert>

#include "common/env.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/runtime.h"
#include "repl/replicator.h"
#include "store/compactor.h"

namespace papyrus::core {

namespace {

// Layers the artifact appendix's PAPYRUSKV_* environment variables under
// the programmatic options (env wins, matching how the paper's experiment
// scripts drive configuration).
Options ApplyEnvOverrides(Options opt) {
  if (auto v = EnvInt("PAPYRUSKV_CONSISTENCY")) {
    if (*v == PAPYRUSKV_SEQUENTIAL || *v == PAPYRUSKV_RELAXED) {
      opt.consistency = static_cast<int>(*v);
    }
  }
  // Artifact convention: PAPYRUSKV_BIN_SEARCH=1 → linear, 2 → binary.
  if (auto v = EnvInt("PAPYRUSKV_BIN_SEARCH")) {
    opt.sstable_binary_search = (*v >= 2);
  }
  if (auto v = EnvInt("PAPYRUSKV_MEMTABLE_SIZE"); v && *v > 0) {
    opt.memtable_bytes = static_cast<size_t>(*v);
  }
  if (auto v = EnvInt("PAPYRUSKV_REPLICAS"); v && *v >= 1) {
    opt.replicas = static_cast<int>(*v);
  }
  if (auto v = EnvBool("PAPYRUSKV_READ_REPLICAS")) {
    opt.read_from_replica = *v;
  }
  return opt;
}

bool RemoteCacheForcedByEnv() {
  return EnvBool("PAPYRUSKV_CACHE_REMOTE").value_or(false);
}

}  // namespace

DbShard::DbShard(KvRuntime& rt, uint32_t id, std::string name, Options opt)
    : rt_(rt),
      id_(id),
      name_(std::move(name)),
      opt_(ApplyEnvOverrides(std::move(opt))),
      consistency_(opt_.consistency),
      protection_(opt_.protection),
      manifest_(rt.layout().RankDir(name_, rt.rank())),
      local_(std::make_shared<store::MemTable>(store::MemTable::Kind::kLocal,
                                               opt_.memtable_bytes)),
      remote_(std::make_shared<store::MemTable>(store::MemTable::Kind::kRemote,
                                                opt_.memtable_bytes)),
      cache_local_(opt_.cache_local_bytes,
                   opt_.cache_local_enabled &&
                       opt_.protection != PAPYRUSKV_WRONLY),
      cache_remote_(opt_.cache_remote_bytes,
                    opt_.protection == PAPYRUSKV_RDONLY ||
                        RemoteCacheForcedByEnv()),
      batch_fail_point_(
          &fault::Registry::Instance().GetPoint("batch.op.fail")) {
  // Resolve this shard's metrics once; hot paths then update lock-free.
  // Db-scoped counters are reset so every shard lifetime starts from zero
  // (tests and benches read them back per open).
  obs::Registry& reg = rt_.metrics();
  const std::string p = "db." + name_ + ".";
  auto counter = [&](const char* n) {
    obs::Counter* c = &reg.GetCounter(p + n);
    c->Reset();
    return c;
  };
  m_.puts_local = counter("puts_local");
  m_.puts_remote_staged = counter("puts_remote_staged");
  m_.puts_remote_sync = counter("puts_remote_sync");
  m_.gets_local = counter("gets_local");
  m_.gets_remote = counter("gets_remote");
  m_.deletes = counter("deletes");
  m_.memtable_hits = counter("memtable_hits");
  m_.cache_local_hits = counter("cache_local.hits");
  m_.cache_local_misses = counter("cache_local.misses");
  m_.cache_remote_hits = counter("cache_remote.hits");
  m_.cache_remote_misses = counter("cache_remote.misses");
  m_.sstable_hits = counter("sstable_hits");
  m_.bloom_checks = counter("bloom_checks");
  m_.bloom_negatives = counter("bloom_negatives");
  m_.foreign_sstable_hits = counter("foreign_sstable_hits");
  m_.remote_value_transfers = counter("remote_value_transfers");
  m_.flushes = counter("flushes");
  m_.migrations = counter("migrations");
  m_.compactions = counter("compactions");
  // Rank-wide replication counters (not db-scoped, never reset here).
  m_.replica_read_hits = &reg.GetCounter("repl.replica_read_hits");
  m_.promotions = &reg.GetCounter("repl.promotions");
  m_.memtable_local_bytes = &reg.GetGauge(p + "memtable_local_bytes");
  m_.memtable_local_bytes->Reset();
  m_.memtable_remote_bytes = &reg.GetGauge(p + "memtable_remote_bytes");
  m_.memtable_remote_bytes->Reset();
  // Operation latencies are rank-wide (not db-scoped, never reset here):
  // they accumulate across every database this rank touches.
  m_.put_us = &reg.GetHistogram("kv.put_us");
  m_.get_us = &reg.GetHistogram("kv.get_us");
  m_.delete_us = &reg.GetHistogram("kv.delete_us");
  m_.fence_us = &reg.GetHistogram("kv.fence_us");
  m_.barrier_us = &reg.GetHistogram("kv.barrier_us");
  m_.put_submit_us = &reg.GetHistogram("kv.put_submit_us");
  m_.get_submit_us = &reg.GetHistogram("kv.get_submit_us");
  m_.delete_submit_us = &reg.GetHistogram("kv.delete_submit_us");
  cache_local_.BindCounters(m_.cache_local_hits, m_.cache_local_misses);
  cache_remote_.BindCounters(m_.cache_remote_hits, m_.cache_remote_misses);
  // Intra-group replication (DESIGN.md §12): stream this rank's partition to
  // the next replicas−1 ranks of its storage group.  Null (off) when the
  // effective replica set is just this rank.
  const std::vector<int> followers = repl::FollowersOf(
      rt_.rank(), rt_.size(), rt_.layout().group_size(), opt_.replicas);
  if (!followers.empty()) {
    repl_ = std::make_unique<repl::Replicator>(&rt_, id_, followers);
  }
}

DbShard::~DbShard() = default;

Status DbShard::Open() { return manifest_.Open(); }

int DbShard::OwnerOf(const Slice& key) const {
  const uint64_t h = opt_.hash ? opt_.hash(key.data(), key.size())
                               : BuiltinKeyHash(key.data(), key.size());
  return static_cast<int>(h % static_cast<uint64_t>(rt_.size()));
}

// ---------------------------------------------------------------------------
// Put / Delete
// ---------------------------------------------------------------------------

Status DbShard::Put(const Slice& key, const Slice& value) {
  return Write(key, value, /*tombstone=*/false);
}

Status DbShard::Delete(const Slice& key) {
  // §2.5: a delete is a put with a zero-length value and the tombstone set.
  return Write(key, Slice(), /*tombstone=*/true);
}

Status DbShard::Write(const Slice& key, const Slice& value, bool tombstone) {
  if (key.empty()) return Status::InvalidArg("empty key");
  Status alive = rt_.CheckAlive();
  if (!alive.ok()) return alive;
  if (protection_.load() == PAPYRUSKV_RDONLY) {
    return Status::Protected("db is read-only");
  }
  obs::ScopedLatency lat(tombstone ? m_.delete_us : m_.put_us);
  // Trace root: this write (and everything it triggers, up to the remote
  // handler on the owner rank) is one causal chain.
  obs::OpSpan op("kv", tombstone ? "delete" : "put");
  if (tombstone) m_.deletes->Inc();
  const int hash_owner = OwnerOf(key);
  const int owner = RouteOwner(hash_owner);
  if (owner != rt_.rank() && consistency_.load() != PAPYRUSKV_SEQUENTIAL) {
    return StageRemotePut(key, value, tombstone, owner);
  }
  return WithFailover(hash_owner, owner, [&](int dst) {
    if (dst != rt_.rank()) return SyncRemotePut(key, value, tombstone, dst);
    if (!tombstone) m_.puts_local->Inc();
    return LocalPut(key, value, tombstone);
  });
}

template <typename Op>
Status DbShard::WithFailover(int hash_owner, int owner, Op&& op) {
  Status s = op(owner);
  if (s.code() == PAPYRUSKV_ERR_TIMEOUT && repl_ && owner == hash_owner &&
      rt_.IsSuspect(hash_owner)) {
    // The owner died under this op: re-route once through failover
    // promotion and retry against whichever replica took over.
    const int routed = RouteOwner(hash_owner);
    if (routed != hash_owner) return op(routed);
  }
  return s;
}

async::OpHandle DbShard::PutAsync(const Slice& key, const Slice& value,
                                  bool tombstone, bool tracked) {
  if (key.empty()) {
    return async::CompletedOp(Status::InvalidArg("empty key"));
  }
  Status alive = rt_.CheckAlive();
  if (!alive.ok()) return async::CompletedOp(alive);
  if (protection_.load() == PAPYRUSKV_RDONLY) {
    return async::CompletedOp(Status::Protected("db is read-only"));
  }
  if (tombstone) m_.deletes->Inc();
  const int owner = RouteOwner(OwnerOf(key));
  if (owner == rt_.rank()) {
    // Inline resolution: the submission call is the whole operation, so
    // the sync-path latency histograms stay accurate here.
    obs::ScopedLatency lat(tombstone ? m_.delete_us : m_.put_us);
    obs::OpSpan op("kv", tombstone ? "delete" : "put");
    if (!tombstone) m_.puts_local->Inc();
    return async::CompletedOp(LocalPut(key, value, tombstone));
  }
  if (consistency_.load() == PAPYRUSKV_SEQUENTIAL) {
    // The only genuinely asynchronous put path: the op rides the pipeline
    // and completes when the owner's batched ack lands.  Only the enqueue
    // happens in this scope, so it records as a *submit* metric/span; the
    // operation's real latency (submit → ack) lands in async.put_op_us at
    // completion — kv.put_us must not be skewed low by enqueue timings.
    obs::ScopedLatency lat(tombstone ? m_.delete_submit_us
                                     : m_.put_submit_us);
    obs::OpSpan op("kv", tombstone ? "delete.submit" : "put.submit");
    m_.puts_remote_sync->Inc();
    cache_remote_.Erase(key);
    return rt_.pipeline().SubmitPut(owner, id_, key, value, tombstone,
                                    tracked);
  }
  // Relaxed mode already is asynchronous: staging in the remote MemTable
  // completes immediately; delivery is governed by fence/barrier.
  obs::ScopedLatency lat(tombstone ? m_.delete_us : m_.put_us);
  obs::OpSpan op("kv", tombstone ? "delete" : "put");
  return async::CompletedOp(StageRemotePut(key, value, tombstone, owner));
}

async::OpHandle DbShard::GetAsync(const Slice& key) {
  if (key.empty()) {
    return async::CompletedValueOp(Status::InvalidArg("empty key"), {});
  }
  Status alive = rt_.CheckAlive();
  if (!alive.ok()) return async::CompletedValueOp(std::move(alive), {});
  if (protection_.load() == PAPYRUSKV_WRONLY) {
    return async::CompletedValueOp(Status::Protected("db is write-only"), {});
  }
  const int owner = RouteOwner(OwnerOf(key));
  if (owner == rt_.rank()) {
    // Inline resolution: the submission call is the whole operation.
    obs::ScopedLatency lat(m_.get_us);
    obs::OpSpan op("kv", "get");
    m_.gets_local->Inc();
    std::string value;
    Status s = LocalGet(key, &value);
    return async::CompletedValueOp(std::move(s), std::move(value));
  }
  // Remote path: this scope covers only the local-memory probe plus (on a
  // miss) the enqueue, so it records as a *submit* metric/span; the wire
  // leg's latency lands in async.get_op_us at completion.
  obs::ScopedLatency lat(m_.get_submit_us);
  obs::OpSpan op("kv", "get.submit");
  m_.gets_remote->Inc();
  std::string value;
  bool tombstone = false;
  if (SearchRemoteMemory(key, &value, &tombstone)) {
    if (tombstone) return async::CompletedValueOp(Status::NotFound(), {});
    return async::CompletedValueOp(Status::OK(), std::move(value));
  }
  // Only the network leg is asynchronous; FinishGet runs the §2.7
  // post-processing on the waiting thread.
  return rt_.pipeline().SubmitGet(owner, id_, key, /*full_search=*/false);
}

Status DbShard::FinishGet(const Slice& key, const async::OpHandle& h,
                          std::string* value) {
  Status s = h->Wait();
  if (!s.ok()) return s;
  if (h->result() == async::OpState::Result::kValue) {
    *value = h->value();
    return s;
  }
  return FinishRemoteGet(key, h->TakeResp(), value);
}

Status DbShard::LocalPut(const Slice& key, const Slice& value,
                         bool tombstone) {
  bool need_rotate = false;
  {
    MutexLock lock(&local_mu_);
    mutation_epoch_.fetch_add(1, std::memory_order_release);
    if (!local_->Put(key, value, tombstone, rt_.rank())) {
      // Rotation seals under local_mu_, which we hold — a sealed mutable
      // MemTable here is a broken invariant, not a caller error.
      return Status::Corrupted("mutable local MemTable rejected put");
    }
    // §2.4: a stale cache entry with this key is evicted from the local
    // cache.
    cache_local_.Erase(key);
    // Replication (DESIGN.md §12): the op gets its sequence number under
    // local_mu_, so the stream order matches MemTable apply order exactly.
    if (repl_) repl_->Append(key, value, tombstone);
    m_.memtable_local_bytes->Set(
        static_cast<int64_t>(local_->ApproxBytes()));
    need_rotate = local_->Full();
  }
  if (need_rotate) {
    MutexLock rotate(&local_rotate_mu_);
    local_mu_.Lock();
    if (local_->Full()) {
      RotateLocalLocked();
    } else {
      local_mu_.Unlock();  // another thread already rotated
    }
  }
  return Status::OK();
}

void DbShard::RotateLocalLocked() {
  // Caller holds local_rotate_mu_ (serializing rotations so flush-queue
  // order matches seal order) and local_mu_, which is released below.
  store::MemTablePtr sealed = local_;
  sealed->Seal();
  imm_local_.push_front(sealed);
  // Mark the seal point in the replication stream (still under local_mu_,
  // so no append can land between the seal and the mark).
  if (repl_) repl_->NoteSeal(sealed.get());
  local_ = std::make_shared<store::MemTable>(store::MemTable::Kind::kLocal,
                                             opt_.memtable_bytes);
  m_.memtable_local_bytes->Set(0);
  local_mu_.Unlock();  // gets may proceed; the queue push below can block

  {
    MutexLock d(&drain_mu_);
    ++pending_flushes_;
  }
  CompactionJob job;
  job.db = shared_from_this();
  job.mem = sealed;
  rt_.EnqueueFlush(std::move(job));  // blocks while the queue is full (§2.4)
}

Status DbShard::StageRemotePut(const Slice& key, const Slice& value,
                               bool tombstone, int owner) {
  m_.puts_remote_staged->Inc();
  cache_remote_.Erase(key);
  bool need_rotate = false;
  {
    MutexLock lock(&remote_mu_);
    if (!remote_->Put(key, value, tombstone, owner)) {
      // Same invariant as LocalPut: sealing happens under remote_mu_,
      // which we hold, so the staging MemTable can never be sealed here.
      return Status::Corrupted("staging remote MemTable rejected put");
    }
    m_.memtable_remote_bytes->Set(
        static_cast<int64_t>(remote_->ApproxBytes()));
    need_rotate = remote_->Full();
  }
  if (need_rotate) {
    MutexLock rotate(&remote_rotate_mu_);
    remote_mu_.Lock();
    if (remote_->Full()) {
      RotateRemoteLocked();
    } else {
      remote_mu_.Unlock();  // another thread already rotated
    }
  }
  return Status::OK();
}

void DbShard::RotateRemoteLocked() {
  store::MemTablePtr sealed = remote_;
  sealed->Seal();
  imm_remote_.push_front(sealed);
  remote_ = std::make_shared<store::MemTable>(store::MemTable::Kind::kRemote,
                                              opt_.memtable_bytes);
  m_.memtable_remote_bytes->Set(0);
  remote_mu_.Unlock();

  {
    MutexLock d(&drain_mu_);
    ++pending_migrations_;
  }
  MigrationJob job;
  job.db = shared_from_this();
  job.mem = sealed;
  rt_.EnqueueMigration(std::move(job));
}

Status DbShard::SyncRemotePut(const Slice& key, const Slice& value,
                              bool tombstone, int owner) {
  // §3.1 sequential mode: the pair is migrated to the owner immediately and
  // synchronously, on the caller's thread when the owner is idle (DESIGN.md
  // §9).  The sync and async paths share one frame/retry/timeout machine —
  // a dead owner still surfaces as PAPYRUSKV_ERR_TIMEOUT.
  m_.puts_remote_sync->Inc();
  cache_remote_.Erase(key);
  return rt_.pipeline().SyncPut(owner, id_, key, value, tombstone);
}

// ---------------------------------------------------------------------------
// Get
// ---------------------------------------------------------------------------

Status DbShard::Get(const Slice& key, std::string* value) {
  if (key.empty()) return Status::InvalidArg("empty key");
  Status alive = rt_.CheckAlive();
  if (!alive.ok()) return alive;
  if (protection_.load() == PAPYRUSKV_WRONLY) {
    return Status::Protected("db is write-only");
  }
  obs::ScopedLatency lat(m_.get_us);
  obs::OpSpan op("kv", "get");
  const int hash_owner = OwnerOf(key);
  const int owner = RouteOwner(hash_owner);
  auto get_from = [&](int dst) {
    if (dst != rt_.rank()) return RemoteGet(key, value);
    m_.gets_local->Inc();
    return LocalGet(key, value);
  };
  if (owner == rt_.rank()) return get_from(owner);
  m_.gets_remote->Inc();
  if (opt_.read_from_replica && repl_ && owner == hash_owner) {
    // Read scaling: round-robin this get over the owner's replica set; a
    // shadow miss falls through to the authoritative owner query below.
    Status rs;
    if (TryReplicaRead(key, hash_owner, value, &rs)) return rs;
  }
  return WithFailover(hash_owner, owner, get_from);
}

Status DbShard::LocalGet(const Slice& key, std::string* value) {
  bool tombstone = false;
  if (SearchLocalMemory(key, value, &tombstone)) {
    return tombstone ? Status::NotFound() : Status::OK();
  }
  bool found = false;
  Status s = SearchOwnSSTables(key, value, &tombstone, &found);
  if (!s.ok()) return s;
  if (found) return tombstone ? Status::NotFound() : Status::OK();
  if (promoted_any_.load(std::memory_order_acquire)) {
    // This rank took over a dead primary's hash slot: its volatile tail was
    // replayed into our MemTable (searched above); its flushed data lives
    // in the adopted SSTables on shared NVM.
    s = SearchPromotedSSTables(key, value, &tombstone, &found);
    if (!s.ok()) return s;
    if (found) return tombstone ? Status::NotFound() : Status::OK();
  }
  return Status::NotFound();
}

bool DbShard::SearchLocalMemory(const Slice& key, std::string* value,
                                bool* tombstone) {
  // Search order per Figure 3: mutable local MemTable, then the immutable
  // local MemTables newest first, then the local cache.
  {
    MutexLock lock(&local_mu_);
    if (local_->Get(key, value, tombstone)) {
      m_.memtable_hits->Inc();
      return true;
    }
    for (const auto& imm : imm_local_) {
      if (imm->Get(key, value, tombstone)) {
        m_.memtable_hits->Inc();
        return true;
      }
    }
  }
  // Hit/miss accounting happens inside the cache (BindCounters).
  return cache_local_.Get(key, value, tombstone);
}

Status DbShard::SearchOwnSSTables(const Slice& key, std::string* value,
                                  bool* tombstone, bool* found) {
  *found = false;
  const uint64_t epoch_at_start =
      mutation_epoch_.load(std::memory_order_acquire);
  const store::SearchMode mode = opt_.sstable_binary_search
                                     ? store::SearchMode::kBinary
                                     : store::SearchMode::kLinear;
  // Highest SSID first: more recent pairs live in higher-numbered tables.
  // A table compacted away after the snapshot reads NOT_FOUND; its pairs
  // now live in the merged table, which is newer than the snapshot, so
  // skipping it could miss the key: search again from a fresh snapshot.
  bool compacted_away = true;
  while (compacted_away) {
    compacted_away = false;
    for (uint64_t ssid : manifest_.LiveSsids()) {
      Status s = SearchOneTable(ssid, key, mode, value, tombstone, found);
      if (s.IsNotFound()) {
        compacted_away = true;
        break;
      }
      if (!s.ok()) return s;
      if (*found) {
        m_.sstable_hits->Inc();
        // §2.6: a pair found in an SSData file is inserted into the local
        // cache (tombstones cached too — a known-deleted key should not
        // walk every table again).  Skipped if any put/delete landed
        // while we searched: our find may already be stale, and the
        // writer's cache eviction may already have happened.
        if (mutation_epoch_.load(std::memory_order_acquire) ==
            epoch_at_start) {
          cache_local_.Put(key, *value, *tombstone);
        }
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

Status DbShard::SearchOneTable(uint64_t ssid, const Slice& key,
                               store::SearchMode mode, std::string* value,
                               bool* tombstone, bool* found) {
  *found = false;
  for (int attempt = 0; attempt < 2; ++attempt) {
    store::SSTablePtr reader;
    Status s = manifest_.GetReader(ssid, &reader);
    if (s.ok()) {
      if (opt_.bloom_bits_per_key > 0) {
        m_.bloom_checks->Inc();
        if (!reader->MayContain(key)) {
          m_.bloom_negatives->Inc();
          return Status::OK();
        }
      }
      s = reader->Get(key, mode, value, tombstone, found);
      if (s.ok()) return Status::OK();
    }
    if (s.IsNotFound()) return s;
    if (s.code() != PAPYRUSKV_CORRUPTED || attempt > 0) {
      if (s.code() == PAPYRUSKV_CORRUPTED) manifest_.Quarantine(ssid);
      return s;
    }
    // First corruption sighting on this table: restore it from the latest
    // checkpoint image (if this database has one) and re-read once.
    PLOG_WARN << "sstable " << ssid << " corrupted (" << s.ToString()
              << "); attempting repair";
    Status rs = manifest_.RepairTable(ssid);
    if (!rs.ok()) {
      PLOG_ERROR << "sstable " << ssid << " unrepairable (" << rs.ToString()
                 << "); quarantined";
      manifest_.Quarantine(ssid);
      return s;
    }
  }
  return Status::OK();  // unreachable: attempt 1 always returns above
}

bool DbShard::SearchRemoteMemory(const Slice& key, std::string* value,
                                 bool* tombstone) {
  // Figure 3 remote path prefix: remote MemTable, immutable remote
  // MemTables in the migration queue (newest first), remote cache.
  {
    MutexLock lock(&remote_mu_);
    if (remote_->Get(key, value, tombstone)) return true;
    for (const auto& imm : imm_remote_) {
      if (imm->Get(key, value, tombstone)) return true;
    }
  }
  return cache_remote_.Get(key, value, tombstone);
}

Status DbShard::RemoteGet(const Slice& key, std::string* value) {
  bool tombstone = false;
  if (SearchRemoteMemory(key, value, &tombstone)) {
    return tombstone ? Status::NotFound() : Status::OK();
  }
  // Network leg: one round trip from this thread when the owner is idle,
  // else through the pipeline (coalesced with any other outstanding gets
  // for the same owner into one get_multi round trip).  Routed through
  // failover promotion: deterministic here and in FinishRemoteGet because
  // the promoted-owner cache pins the election result.
  GetResp resp;
  Status s = rt_.pipeline().SyncGet(RouteOwner(OwnerOf(key)), id_, key,
                                    /*full_search=*/false, &resp);
  if (!s.ok()) return s;  // PAPYRUSKV_ERR_TIMEOUT: owner unresponsive
  return FinishRemoteGet(key, std::move(resp), value);
}

Status DbShard::FinishRemoteGet(const Slice& key, GetResp resp,
                                std::string* value) {
  bool tombstone = false;
  if (resp.found) {
    if (resp.tombstone) {
      cache_remote_.Put(key, Slice(), true);
      return Status::NotFound();
    }
    m_.remote_value_transfers->Inc();
    cache_remote_.Put(key, resp.value, false);
    *value = std::move(resp.value);
    return Status::OK();
  }

  if (resp.same_group && !resp.ssids.empty()) {
    const int owner = RouteOwner(OwnerOf(key));
    // §2.7: the pair is not in the owner's memory, but may be in its
    // SSTables on the shared NVM — read them directly, no value transfer.
    bool found = false;
    Status s = SearchForeignSSTables(owner, resp.ssids, key, value,
                                     &tombstone, &found);
    if (!s.ok()) {
      // Shared reads are an optimization; any failure (e.g. races with the
      // owner's compaction) falls back to the authoritative owner query.
      PLOG_DEBUG << "foreign sstable search failed: " << s.ToString();
      found = false;
    }
    if (found) {
      cache_remote_.Put(key, tombstone ? Slice() : Slice(*value), tombstone);
      return tombstone ? Status::NotFound() : Status::OK();
    }
    // The owner may have compacted the advertised tables away between its
    // response and our shared read; fall back to a full search at the
    // owner to keep the result authoritative.
    GetResp r2;
    Status rs = rt_.pipeline().SyncGet(owner, id_, key, /*full_search=*/true,
                                       &r2);
    if (!rs.ok()) return rs;
    if (r2.found && !r2.tombstone) {
      m_.remote_value_transfers->Inc();
      cache_remote_.Put(key, r2.value, false);
      *value = std::move(r2.value);
      return Status::OK();
    }
    cache_remote_.Put(key, Slice(), true);
    return Status::NotFound();
  }

  cache_remote_.Put(key, Slice(), true);
  return Status::NotFound();
}

Status DbShard::SearchForeignSSTables(int owner,
                                      const std::vector<uint64_t>& ssids,
                                      const Slice& key, std::string* value,
                                      bool* tombstone, bool* found) {
  *found = false;
  const std::string dir = rt_.layout().RankDir(name_, owner);
  const store::SearchMode mode = opt_.sstable_binary_search
                                     ? store::SearchMode::kBinary
                                     : store::SearchMode::kLinear;
  // Only the owner-advertised live list is consulted (newest first): a
  // reader cached from a table the owner has since compacted away must
  // never serve purged data.
  for (uint64_t ssid : ssids) {
    store::SSTablePtr reader;
    {
      MutexLock lock(&foreign_mu_);
      auto it = foreign_readers_.find({owner, ssid});
      if (it != foreign_readers_.end()) reader = it->second;
    }
    if (!reader) {
      Status s = store::Manifest::OpenForeign(dir, ssid, &reader);
      // Every advertised SSID was live at response time, so a missing file
      // means the owner compacted while this read was in flight — and the
      // compaction may have purged a tombstone (or newer version) that this
      // very table held.  Skipping the gap and reading on could then find a
      // *stale* version in an older table that is still readable (e.g. via
      // a cached reader), resurrecting deleted keys.  The whole snapshot is
      // broken: abort so FinishRemoteGet re-queries the owner.
      if (s.IsNotFound()) return s;
      if (!s.ok()) return s;
      MutexLock lock(&foreign_mu_);
      foreign_readers_[{owner, ssid}] = reader;
    }
    if (opt_.bloom_bits_per_key > 0) {
      m_.bloom_checks->Inc();
      if (!reader->MayContain(key)) {
        m_.bloom_negatives->Inc();
        continue;
      }
    }
    Status s = reader->Get(key, mode, value, tombstone, found);
    if (!s.ok()) return s;
    if (*found) {
      m_.foreign_sstable_hits->Inc();
      return Status::OK();
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Replication / failover (DESIGN.md §12)
// ---------------------------------------------------------------------------

int DbShard::RouteOwner(int owner) {
  if (!repl_ || owner == rt_.rank()) return owner;
  if (!rt_.IsSuspect(owner)) return owner;
  MutexLock lock(&promo_mu_);
  const int promoted = PromotedOwnerLocked(owner);
  return promoted < 0 ? owner : promoted;
}

int DbShard::PromotedOwnerLocked(int dead) {
  auto cached = promoted_owner_.find(dead);
  if (cached != promoted_owner_.end()) return cached->second;
  // repl.promote.race widens the election window under test: two ranks
  // electing concurrently must still converge, which the deterministic
  // scoring below guarantees (same probes -> same winner).
  if (fault::Enabled() &&
      fault::Registry::Instance().GetPoint("repl.promote.race").Fire()) {
    PreciseSleepMicros(2000);
  }
  const std::vector<int> candidates = repl::FollowersOf(
      dead, rt_.size(), rt_.layout().group_size(), opt_.replicas);
  // Most-caught-up wins: in-sync beats stale, then highest epoch, then
  // highest applied sequence, then lowest rank as the deterministic
  // tie-break every elector computes identically.
  int best = -1;
  uint64_t best_epoch = 0, best_seq = 0;
  bool best_in_sync = false;
  for (int c : candidates) {
    uint64_t epoch = 0, seq = 0;
    bool in_sync = false;
    if (c == rt_.rank()) {
      repl_->QueryShadow(dead, &epoch, &seq, &in_sync);
    } else {
      if (rt_.IsSuspect(c)) continue;
      const uint32_t tag = rt_.AllocRespTag();
      std::string req =
          EncodeReplQuery(id_, tag, static_cast<uint32_t>(dead),
                          /*promote=*/false);
      net::Message reply;
      Status s =
          rt_.RequestReply(c, kOpReplQuery, req, static_cast<int>(tag),
                           &reply);
      if (!s.ok()) continue;
      if (!DecodeReplQueryResp(reply.payload, &epoch, &seq, &in_sync)) {
        continue;
      }
    }
    const bool better = best < 0 || (in_sync != best_in_sync ? in_sync
                                     : epoch != best_epoch   ? epoch > best_epoch
                                     : seq != best_seq       ? seq > best_seq
                                                             : c < best);
    if (better) {
      best = c;
      best_epoch = epoch;
      best_seq = seq;
      best_in_sync = in_sync;
    }
  }
  if (best < 0) return -1;  // nobody answered; not cached, re-elect later
  if (best == rt_.rank()) {
    if (!PromoteSelfLocked(dead).ok()) return -1;
  } else {
    const uint32_t tag = rt_.AllocRespTag();
    std::string req = EncodeReplQuery(id_, tag, static_cast<uint32_t>(dead),
                                      /*promote=*/true);
    net::Message reply;
    Status s = rt_.RequestReply(best, kOpReplQuery, req,
                                static_cast<int>(tag), &reply);
    if (!s.ok()) return -1;
    uint64_t e = 0, q = 0;
    bool promoted_ok = false;
    if (!DecodeReplQueryResp(reply.payload, &e, &q, &promoted_ok) ||
        !promoted_ok) {
      return -1;
    }
  }
  promoted_owner_[dead] = best;
  PLOG_WARN << "failover: rank " << best << " promoted for dead rank "
            << dead << " (epoch " << best_epoch << ", seq " << best_seq
            << ")";
  return best;
}

Status DbShard::PromoteSelf(int primary) {
  MutexLock lock(&promo_mu_);
  return PromoteSelfLocked(primary);
}

bool DbShard::HasPromoted(int primary) {
  MutexLock lock(&promo_mu_);
  return promoted_sources_.count(primary) > 0;
}

Status DbShard::PromoteSelfLocked(int primary) {
  if (!repl_) return Status::InvalidArg("replication is off");
  if (promoted_sources_.count(primary) > 0) return Status::OK();
  // Zero-data-loss takeover: replay the shadow log tail (the dead primary's
  // volatile ops above its flush watermark) into our own partition — these
  // re-replicate through our own stream — then adopt its SSTables from
  // shared NVM (§2.7 makes them directly readable; a dead rank can no
  // longer compact them away).
  uint64_t shadow_seq = 0;
  const std::vector<KvRecord> tail =
      repl_->TakeShadowLog(primary, &shadow_seq);
  for (const KvRecord& r : tail) {
    Status s = LocalPut(r.key, r.value, r.tombstone);
    if (!s.ok()) return s;
  }
  std::vector<uint64_t> ssids;
  Status s =
      store::Manifest::ListSsids(rt_.layout().RankDir(name_, primary), &ssids);
  if (!s.ok()) return s;
  promoted_sstables_[primary] = std::move(ssids);
  promoted_sources_.insert(primary);
  // Routing shortcut + convergence: this rank now serves the partition, so
  // its own elections resolve here without probing, and HasPromoted lets
  // remote electors' probes converge on this rank even after TakeShadowLog
  // emptied the shadow they would otherwise score.
  promoted_owner_[primary] = rt_.rank();
  promoted_any_.store(true, std::memory_order_release);
  m_.promotions->Inc();
  rt_.flight().Record(obs::FlightKind::kPromote, "takeover", primary,
                      static_cast<int64_t>(shadow_seq));
  PLOG_WARN << "promoted: serving rank " << primary << "'s partition ("
            << tail.size() << " volatile ops replayed, shadow seq "
            << shadow_seq << ")";
  return Status::OK();
}

Status DbShard::SearchPromotedSSTables(const Slice& key, std::string* value,
                                       bool* tombstone, bool* found) {
  *found = false;
  std::map<int, std::vector<uint64_t>> adopted;
  {
    MutexLock lock(&promo_mu_);
    adopted = promoted_sstables_;
  }
  for (const auto& [dead, ssids] : adopted) {
    Status s = SearchForeignSSTables(dead, ssids, key, value, tombstone,
                                     found);
    // Unlike live §2.7 shared reads, the dead rank cannot compact these
    // tables concurrently, so a vanished table is not a consistency hazard
    // for the remaining ones — keep searching the other adopted sets.
    if (!s.ok() && !s.IsNotFound()) return s;
    if (*found) return Status::OK();
  }
  return Status::OK();
}

bool DbShard::TryReplicaRead(const Slice& key, int owner, std::string* value,
                             Status* out) {
  const std::vector<int> followers = repl::FollowersOf(
      owner, rt_.size(), rt_.layout().group_size(), opt_.replicas);
  if (followers.empty()) return false;
  // Round-robin over {owner} ∪ followers; slot 0 falls through so the
  // owner keeps taking its share of the reads.
  const size_t n = followers.size() + 1;
  const size_t pick =
      replica_rr_.fetch_add(1, std::memory_order_relaxed) % n;
  if (pick == 0) return false;
  const int replica = followers[pick - 1];
  bool ok = false, found = false, tombstone = false;
  if (replica == rt_.rank()) {
    // This rank backs the owner itself: serve straight from its own shadow.
    if (!repl_->ShadowGet(owner, key, value, &tombstone)) return false;
    found = true;
  } else {
    if (rt_.IsSuspect(replica)) return false;
    const uint32_t tag = rt_.AllocRespTag();
    std::string req =
        EncodeReplRead(id_, tag, static_cast<uint32_t>(owner), key);
    net::Message reply;
    Status s = rt_.RequestReply(replica, kOpReplRead, req,
                                static_cast<int>(tag), &reply);
    if (!s.ok()) return false;
    if (!DecodeReplReadResp(reply.payload, &ok, &found, &tombstone, value)) {
      return false;
    }
    if (!ok) return false;  // shadow miss: not authoritative, use the owner
  }
  m_.replica_read_hits->Inc();
  *out = (!found || tombstone) ? Status::NotFound() : Status::OK();
  return true;
}

// ---------------------------------------------------------------------------
// Handler-side entry points
// ---------------------------------------------------------------------------

std::vector<int32_t> DbShard::ApplyBatch(const std::vector<KvRecord>& records) {
  std::vector<int32_t> statuses;
  statuses.reserve(records.size());
  for (const KvRecord& r : records) {
    // A failed op does not abort the batch: every record gets its own
    // status, so the submitter can surface exactly which ops of a
    // partially failed batch went wrong.
    if (fault::Enabled() && batch_fail_point_->Fire()) {
      statuses.push_back(PAPYRUSKV_ERR);
      continue;
    }
    statuses.push_back(LocalPut(r.key, r.value, r.tombstone).code());
  }
  return statuses;
}

GetResp DbShard::HandleRemoteGet(const Slice& key, uint32_t caller_group) {
  GetResp resp;
  // A promoted rank serves data the advertised SSID list cannot cover (the
  // adopted dead-rank tables), so §2.7 shared reads are disabled and every
  // same-group caller takes the authoritative full-search path here.
  resp.same_group =
      caller_group ==
          static_cast<uint32_t>(rt_.layout().GroupOf(rt_.rank())) &&
      !promoted_any_.load(std::memory_order_acquire);

  std::string value;
  bool tombstone = false;
  bool in_memory;
  {
    // Child spans of the handler's handle.get_multi: the merge tool's
    // critical path splits service time into memory vs SSTable search.
    obs::TraceSpan sp("store", "search.memory");
    in_memory = SearchLocalMemory(key, &value, &tombstone);
  }
  if (in_memory) {
    resp.found = true;
    resp.tombstone = tombstone;
    if (!tombstone) resp.value = std::move(value);
    resp.latest_ssid = manifest_.LatestSsid();
    return resp;
  }

  if (resp.same_group) {
    // §2.7: stop here; the caller reads our SSTables from shared storage.
    // Advertise the exact live set so the caller cannot consult a table a
    // concurrent compaction retires.
    resp.ssids = manifest_.LiveSsids();
    resp.latest_ssid = resp.ssids.empty() ? 0 : resp.ssids.front();
    return resp;
  }

  bool found = false;
  Status s;
  {
    obs::TraceSpan sp("store", "search.sstable");
    s = SearchOwnSSTables(key, &value, &tombstone, &found);
  }
  if (s.ok() && !found && promoted_any_.load(std::memory_order_acquire)) {
    obs::TraceSpan sp("store", "search.promoted");
    s = SearchPromotedSSTables(key, &value, &tombstone, &found);
  }
  if (s.ok() && found) {
    resp.found = true;
    resp.tombstone = tombstone;
    if (!tombstone) resp.value = std::move(value);
  }
  resp.latest_ssid = manifest_.LatestSsid();
  return resp;
}

// ---------------------------------------------------------------------------
// Background-thread entry points
// ---------------------------------------------------------------------------

Status DbShard::FlushImmutable(const store::MemTablePtr& mem) {
  if (rt_.crashed()) {
    // A crashed rank's volatile MemTables are gone; drop the job but keep
    // the drain bookkeeping so a fence waiting on this flush cannot hang.
    {
      MutexLock lock(&local_mu_);
      auto it = std::find(imm_local_.begin(), imm_local_.end(), mem);
      if (it != imm_local_.end()) imm_local_.erase(it);
    }
    {
      MutexLock d(&drain_mu_);
      --pending_flushes_;
    }
    drain_cv_.NotifyAll();
    return Status::OK();
  }
  // The SSID is allocated here, on the compaction thread: flushes and
  // compaction merges are serialized on this thread and the flush queue
  // preserves seal order (the rotate mutex), so on-NVM SSID order always
  // matches data recency — including relative to merged outputs.
  const uint64_t ssid = manifest_.NextSsid();
  Status s = Status::OK();
  if (mem->Count() > 0) {
    s = store::FlushMemTable(manifest_.dir(), ssid, *mem,
                             std::max(1, opt_.bloom_bits_per_key));
    if (s.ok()) {
      manifest_.AddTable(ssid);
      m_.flushes->Inc();
    }
  }
  if (s.ok()) {
    // Retire from the in-memory registry, so gets stop consulting a table
    // that is now on NVM (or was empty).  After a FAILED flush (e.g.
    // injected ENOSPC) the sealed table deliberately stays in imm_local_:
    // it remains searchable in memory, so no acknowledged write is
    // silently lost just because the device rejected it.
    MutexLock lock(&local_mu_);
    auto it = std::find(imm_local_.begin(), imm_local_.end(), mem);
    if (it != imm_local_.end()) imm_local_.erase(it);
  } else if (mem->Count() > 0) {
    PLOG_ERROR << "flush of sstable " << ssid << " failed (" << s.ToString()
               << "); keeping " << mem->Count()
               << " records searchable in memory";
  }
  // Replication watermark: this MemTable's ops are on shared NVM now, so
  // followers may trim their shadow logs (a failed flush keeps the log).
  if (repl_ && s.ok()) repl_->NoteFlushed(mem.get());
  if (s.ok()) {
    store::CompactionStats cstats;
    const size_t before = manifest_.TableCount();
    s = store::MaybeCompact(manifest_, ssid, opt_.compaction_trigger,
                            std::max(1, opt_.bloom_bits_per_key), &cstats);
    if (s.ok() && manifest_.TableCount() < before) {
      m_.compactions->Inc();
      rt_.flight().Record(
          obs::FlightKind::kCompaction, "maybe_compact", id_,
          static_cast<int64_t>(before - manifest_.TableCount()));
    }
  }
  {
    MutexLock d(&drain_mu_);
    --pending_flushes_;
  }
  drain_cv_.NotifyAll();
  return s;
}

std::map<int, std::vector<KvRecord>> DbShard::CollectOwnerChunks(
    const store::MemTable& mem) const {
  std::map<int, std::vector<KvRecord>> chunks;
  mem.ForEachSorted([&](const Slice& key, const store::MemTable::Entry& e) {
    KvRecord r;
    r.key = key.ToString();
    r.value = e.value;
    r.tombstone = e.tombstone;
    chunks[e.owner].push_back(std::move(r));
  });
  return chunks;
}

void DbShard::DropVolatile() {
  {
    MutexLock rotate(&local_rotate_mu_);
    MutexLock lock(&local_mu_);
    mutation_epoch_.fetch_add(1, std::memory_order_release);
    local_ = std::make_shared<store::MemTable>(store::MemTable::Kind::kLocal,
                                               opt_.memtable_bytes);
    imm_local_.clear();
    m_.memtable_local_bytes->Set(0);
  }
  {
    MutexLock rotate(&remote_rotate_mu_);
    MutexLock lock(&remote_mu_);
    remote_ = std::make_shared<store::MemTable>(store::MemTable::Kind::kRemote,
                                                opt_.memtable_bytes);
    imm_remote_.clear();
    m_.memtable_remote_bytes->Set(0);
  }
  cache_local_.Clear();
  cache_remote_.Clear();
  // Fail-stop: the crashed rank's replication stream dies with its volatile
  // state; followers NACK the gap on any later restart and resync.
  if (repl_) repl_->Reset();
}

void DbShard::MigrationFinished(const store::MemTablePtr& mem) {
  {
    MutexLock lock(&remote_mu_);
    auto it = std::find(imm_remote_.begin(), imm_remote_.end(), mem);
    if (it != imm_remote_.end()) imm_remote_.erase(it);
  }
  m_.migrations->Inc();
  {
    MutexLock d(&drain_mu_);
    --pending_migrations_;
  }
  drain_cv_.NotifyAll();
}

// ---------------------------------------------------------------------------
// Consistency / synchronization
// ---------------------------------------------------------------------------

Status DbShard::Fence() {
  obs::ScopedLatency lat(m_.fence_us);
  // A crashed rank has no staged data left and must not emit traffic; the
  // pipeline already completed every queued op with an error, so only the
  // event-handle reap runs (crash semantics: the fence itself reports OK).
  if (rt_.crashed()) {
    Status reap = rt_.ReapAsyncOps();
    if (!reap.ok()) {
      // Expected: the pipeline completed every queued op with "rank
      // crashed"; those errors were observable per-event and must not turn
      // the fence's crash semantics (report OK) into a failure.  Logged so
      // a *different* reap failure is still visible.
      PLOG_WARN << "crashed-rank fence: reap reported " << reap.ToString();
    }
    return Status::OK();
  }
  // Async completion fence: every papyruskv_*_async op submitted before
  // this fence has been applied (and acked) at its owner once Drain
  // returns — the batched acks are sent after application, exactly like
  // migration-chunk acks.
  rt_.pipeline().Drain();
  // Retire evented put/delete submissions that were never waited
  // individually (the quickstart's bulk-completion pattern) so async_ops_
  // cannot grow without bound; the first failure among them becomes the
  // fence's status, keeping those errors observable.  Fire-and-forget puts
  // have no event; the pipeline kept their first failure for this fence.
  Status reap = rt_.ReapAsyncOps();
  Status untracked = rt_.pipeline().TakeFailure(id_);
  if (reap.ok()) reap = std::move(untracked);
  {
    MutexLock rotate(&remote_rotate_mu_);
    remote_mu_.Lock();
    if (remote_->Count() > 0) {
      RotateRemoteLocked();
    } else {
      remote_mu_.Unlock();
    }
  }
  WaitDrained(&pending_migrations_);
  // Replication commit rule (DESIGN.md §12): a fenced put is durable on
  // ⌊k/2⌋+1 replicas before the fence completes.  Remote puts already gated
  // through the owners' deferred batch/migration acks; this waits out the
  // quorum for this rank's *own* local puts.
  if (repl_) repl_->WaitLocalDurable();
  return reap;
}

Status DbShard::Barrier(int level) {
  obs::ScopedLatency lat(m_.barrier_us);
  if (rt_.crashed()) {
    // A crashed rank contributes no data, but it still pairs up with the
    // survivors' collectives so their barriers complete: one for the
    // MEMTABLE-level point, and a second matching the survivors'
    // SSTABLE-level flush barrier.  A timeout here is expected if the
    // survivors have already given up, so failures are logged, not
    // returned (crash semantics: the barrier itself reports OK).
    Status mb = rt_.CollectiveBarrier();
    if (!mb.ok()) {
      PLOG_WARN << "crashed-rank barrier (memtable point): "
                << mb.ToString();
    }
    if (level == PAPYRUSKV_SSTABLE) {
      Status sb = rt_.CollectiveBarrier();
      if (!sb.ok()) {
        PLOG_WARN << "crashed-rank barrier (sstable point): "
                  << sb.ToString();
      }
    }
    return Status::OK();
  }
  Status s = Fence();
  if (!s.ok()) return s;
  // After every rank's fence, all migrated records have been *applied* at
  // their owners (migration chunks are acked after application), so this
  // collective point establishes the paper's guarantee: all ranks now see
  // the same latest data.
  s = rt_.CollectiveBarrier();
  if (!s.ok()) return s;
  if (level == PAPYRUSKV_SSTABLE) {
    {
      MutexLock rotate(&local_rotate_mu_);
      local_mu_.Lock();
      if (local_->Count() > 0) {
        RotateLocalLocked();
      } else {
        local_mu_.Unlock();
      }
    }
    WaitDrained(&pending_flushes_);
    s = rt_.CollectiveBarrier();
  }
  return s;
}

Status DbShard::SetConsistency(int mode) {
  if (mode != PAPYRUSKV_SEQUENTIAL && mode != PAPYRUSKV_RELAXED) {
    return Status::InvalidArg("bad consistency mode");
  }
  // Collective (§3.1).  Drain staged remote data first so the mode switch
  // is a clean synchronization point.
  Status s = Fence();
  if (!s.ok()) return s;
  s = rt_.CollectiveBarrier();
  if (!s.ok()) return s;
  consistency_.store(mode);
  return Status::OK();
}

Status DbShard::SetProtection(int prot) {
  if (prot != PAPYRUSKV_RDWR && prot != PAPYRUSKV_WRONLY &&
      prot != PAPYRUSKV_RDONLY) {
    return Status::InvalidArg("bad protection attribute");
  }
  protection_.store(prot);
  // §3.2: WRONLY invalidates and disables the local cache; RDONLY enables
  // the remote cache; leaving RDONLY evicts and disables it.
  cache_local_.set_enabled(opt_.cache_local_enabled &&
                           prot != PAPYRUSKV_WRONLY);
  cache_remote_.set_enabled(prot == PAPYRUSKV_RDONLY ||
                            RemoteCacheForcedByEnv());
  return rt_.CollectiveBarrier();
}

Status DbShard::FlushAll() { return Barrier(PAPYRUSKV_SSTABLE); }

void DbShard::WaitDrained(const int* pending) {
  MutexLock lock(&drain_mu_);
  while (*pending != 0) drain_cv_.Wait(&drain_mu_);
}

size_t DbShard::MemTableBytes() const {
  size_t total = 0;
  {
    MutexLock lock(&local_mu_);
    total += local_->ApproxBytes();
  }
  {
    MutexLock lock(&remote_mu_);
    total += remote_->ApproxBytes();
  }
  return total;
}

}  // namespace papyrus::core
