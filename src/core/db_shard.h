// DbShard: one rank's view of one PapyrusKV database.
//
// Structure per the paper (§2.3, Figures 2–3).  Each rank holds:
//   * a mutable *local MemTable* — pairs this rank owns;
//   * *immutable local MemTables* — sealed tables queued for flushing by
//     the compaction thread;
//   * a mutable *remote MemTable* — pairs owned by other ranks, staged in
//     relaxed consistency mode, each entry tagged with its owner rank;
//   * *immutable remote MemTables* — sealed tables queued for migration on
//     the pipeline's ops lane, which plays the paper's message dispatcher;
//   * a *local cache* — LRU over pairs fetched from this rank's SSTables;
//   * a *remote cache* — LRU over pairs fetched from other ranks, active
//     only while the database is read-only (§3.2);
//   * a set of *SSTables* on (simulated) NVM, catalogued by the Manifest.
//
// Ownership: a key's owner rank is hash(key) % nranks (§2.4), with an
// application-supplied hash honored when configured.
//
// Threading contract: one application thread per rank drives Put/Get/
// Delete/Fence/Barrier (MPI style).  The runtime's handler thread calls
// ApplyBatch/HandleRemoteGet concurrently; the compaction thread calls
// FlushImmutable; the pipeline's ops lane calls CollectOwnerChunks/
// MigrationFinished.
// Internal state is guarded accordingly.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "async/pipeline.h"
#include "common/mutex.h"
#include "common/slice.h"
#include "common/status.h"
#include "core/options.h"
#include "core/wire.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "store/cache.h"
#include "store/manifest.h"
#include "store/memtable.h"

namespace papyrus::repl {
class Replicator;
}  // namespace papyrus::repl

namespace papyrus::core {

class KvRuntime;

class DbShard : public std::enable_shared_from_this<DbShard> {
 public:
  DbShard(KvRuntime& rt, uint32_t id, std::string name, Options opt);
  ~DbShard();  // out-of-line: repl::Replicator is incomplete here

  // Recovers/creates on-NVM state.  Zero-copy reopen (§4.1): any SSTables
  // already present in this rank's directory are adopted as-is.
  Status Open();

  uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  const Options& options() const { return opt_; }
  const std::string& dir() const { return manifest_.dir(); }
  store::Manifest& manifest() { return manifest_; }

  // ---- Basic operations (application thread) ----
  Status Put(const Slice& key, const Slice& value);
  Status Delete(const Slice& key);
  // On success fills *value.  NOT_FOUND for absent or tombstoned keys.
  Status Get(const Slice& key, std::string* value);

  // ---- Async submissions (DESIGN.md §9) ----
  // Submit without waiting.  Local and relaxed-staged puts resolve inline
  // (the returned handle is already complete); sequential remote puts ride
  // the pipeline and complete when the owner's batched ack lands.
  // tombstone=true is papyruskv_delete_async.  tracked=false is the
  // fire-and-forget form: a pipelined put then gets no handle (nullptr is
  // returned) and a failure surfaces at the next Fence instead.
  async::OpHandle PutAsync(const Slice& key, const Slice& value,
                           bool tombstone, bool tracked);
  // Gets decided from local memory resolve inline; only the network leg is
  // asynchronous.  Complete with FinishGet.
  async::OpHandle GetAsync(const Slice& key);
  // Completes a GetAsync: waits, runs §2.7 post-processing (cache fills,
  // foreign-SSTable search, fallback re-query), fills *value.
  Status FinishGet(const Slice& key, const async::OpHandle& h,
                   std::string* value);

  // ---- Consistency (§3) ----
  // Migrates the remote MemTable and queued immutable remote MemTables to
  // their owners immediately; returns when every record has been applied
  // at its owner (acked).  Also a completion fence for async puts: returns
  // the first failure among the completed put/delete events it retires,
  // the fire-and-forget puts and the migrated records since the last fence.
  Status Fence();
  // Collective fence; level PAPYRUSKV_SSTABLE additionally flushes all
  // MemTables to SSTables on every rank.
  Status Barrier(int level);
  Status SetConsistency(int mode);  // collective
  Status SetProtection(int prot);   // collective
  int consistency() const { return consistency_.load(); }
  int protection() const { return protection_.load(); }

  // Fence + flush everything (used by close / checkpoint / destroy).
  Status FlushAll();

  // ---- Handler-side entry points (runtime handler thread) ----
  // Serves kOpPutBatch — pipelined puts and migration chunks alike (paper:
  // the handler "extracts the keys and their values from the messages and
  // inserts them into the local MemTable").  Applies every record,
  // continuing past failures, and returns one PAPYRUSKV_* code per record
  // in order (the per-op statuses of the batched ack).  The batch.op.fail
  // failpoint injects per-op failures here for partial-batch testing.
  std::vector<int32_t> ApplyBatch(const std::vector<KvRecord>& records);
  // Serves a remote get request (§2.6–2.7).
  GetResp HandleRemoteGet(const Slice& key, uint32_t caller_group);

  // ---- Compaction-thread entry point ----
  // Flushes a sealed local MemTable to a fresh SSTable.  Must only be
  // called from the compaction thread: SSID allocation relies on flushes
  // and merges being serialized there.
  Status FlushImmutable(const store::MemTablePtr& mem);

  // ---- Dispatcher entry points (the pipeline's ops lane) ----
  // Sorts a sealed remote MemTable's records per owner rank (§2.4: "it
  // sorts the key-value pairs in the MemTable by the owner rank number ...
  // accumulates the key-value pairs per rank").
  std::map<int, std::vector<KvRecord>> CollectOwnerChunks(
      const store::MemTable& mem) const;
  // Drops a sent (or crashed-rank) table from the remote search path.
  void MigrationFinished(const store::MemTablePtr& mem);

  // Owner rank of a key: hash % nranks.
  int OwnerOf(const Slice& key) const;

  // ---- Replication / failover (DESIGN.md §12) ----
  // Null when the effective replica count is 1.
  repl::Replicator* replicator() { return repl_.get(); }
  // Handler-side promotion entry point (kOpReplQuery promote=1): this rank
  // takes over serving `primary`'s hash slot — replays the shadow log tail
  // into its own local MemTable and adopts the dead rank's SSTables.
  // Idempotent per primary.
  Status PromoteSelf(int primary);
  // True once PromoteSelf succeeded for `primary`.  Election probes use it
  // to report an already-promoted rank as maximally caught-up (its shadow
  // was consumed by the takeover), so every elector converges on it.
  bool HasPromoted(int primary);

  // Simulated power loss (rank.crash failpoint): discards all volatile
  // state — mutable and sealed MemTables, both caches.  The NVM image
  // (SSTables + manifest) survives, exactly like the §4.2 failure model.
  void DropVolatile();

  // Bytes in the mutable local + remote MemTables (diagnostics).
  size_t MemTableBytes() const;

 private:
  // Put and Delete (tombstone=true): the one synchronous write path.
  Status Write(const Slice& key, const Slice& value, bool tombstone);
  // Runs op(owner); when that timed out on a suspect hash owner under
  // replication, re-routes once through failover promotion and runs
  // op(replacement) instead.  op(dst) serves the call from rank dst.
  template <typename Op>
  Status WithFailover(int hash_owner, int owner, Op&& op);
  // The local put path shared by the app thread (local puts) and the
  // handler thread (migrated records).
  Status LocalPut(const Slice& key, const Slice& value, bool tombstone);
  // Stages a remote put in the remote MemTable (relaxed mode).
  Status StageRemotePut(const Slice& key, const Slice& value, bool tombstone,
                        int owner);
  // Sends a single synchronous put to the owner (sequential mode).
  Status SyncRemotePut(const Slice& key, const Slice& value, bool tombstone,
                       int owner);

  // Seals the mutable local MemTable and hands it to the compaction
  // thread.  Caller holds local_rotate_mu_ and local_mu_; the table lock
  // is released inside, before the possibly-blocking queue push.
  void RotateLocalLocked() REQUIRES(local_rotate_mu_) RELEASE(local_mu_);
  // Same contract; the submission to the pipeline may block.
  void RotateRemoteLocked() REQUIRES(remote_rotate_mu_) RELEASE(remote_mu_);

  // Memory-resident part of the local search: mutable MemTable, queued
  // immutable MemTables, local cache.  Returns true when the key's fate is
  // decided (found or tombstoned).
  bool SearchLocalMemory(const Slice& key, std::string* value,
                         bool* tombstone);
  // SSTable part of the local search; fills *found.
  Status SearchOwnSSTables(const Slice& key, std::string* value,
                           bool* tombstone, bool* found);
  // One SSTable probe with corruption recovery (DESIGN.md §8): on a
  // checksum failure the table is restored from the latest checkpoint copy
  // (when one exists) and re-read once; an unrepairable table is
  // quarantined so every later read fails fast instead of re-parsing
  // corrupt blocks.  NOT_FOUND = table compacted away concurrently.
  Status SearchOneTable(uint64_t ssid, const Slice& key,
                        store::SearchMode mode, std::string* value,
                        bool* tombstone, bool* found);
  // Storage-group shared read of another rank's SSTables (§2.7), limited
  // to the owner-advertised live SSID list.
  Status SearchForeignSSTables(int owner, const std::vector<uint64_t>& ssids,
                               const Slice& key, std::string* value,
                               bool* tombstone, bool* found);

  // Local-owner read path: memory search then own SSTables.
  Status LocalGet(const Slice& key, std::string* value);
  Status RemoteGet(const Slice& key, std::string* value);
  // Memory-resident part of the remote search (remote MemTable, queued
  // immutable remote MemTables, remote cache).  True when decided.
  bool SearchRemoteMemory(const Slice& key, std::string* value,
                          bool* tombstone);
  // Post-RPC half of a remote get: consumes the owner's GetResp (cache
  // fills, §2.7 shared read + fallback re-query through the pipeline).
  Status FinishRemoteGet(const Slice& key, GetResp resp, std::string* value);

  // Blocks until every sealed local MemTable is flushed.
  void WaitDrained();

  // ---- Failover routing (DESIGN.md §12) ----
  // Resolves the rank that currently serves `owner`'s hash slot: `owner`
  // itself while it is healthy, else the promoted replica elected by
  // PromotedOwnerLocked.  Returns `owner` unchanged when replication is off
  // or no replica could be promoted.
  int RouteOwner(int owner);
  // Elects and (if needed) triggers promotion of the most-caught-up in-sync
  // follower for dead rank `dead`; caches the winner.  -1 when no candidate
  // answered.
  int PromotedOwnerLocked(int dead) REQUIRES(promo_mu_);
  Status PromoteSelfLocked(int primary) REQUIRES(promo_mu_);
  // Searches the SSTables adopted from promoted-away primaries.
  Status SearchPromotedSSTables(const Slice& key, std::string* value,
                                bool* tombstone, bool* found);
  // Read-from-replica (PAPYRUSKV_READ_REPLICAS): round-robins the get over
  // the owner's replica set.  True when the replica answered
  // authoritatively (*out filled); false = fall through to the owner path.
  bool TryReplicaRead(const Slice& key, int owner, std::string* value,
                      Status* out);

  KvRuntime& rt_;
  const uint32_t id_;
  const std::string name_;
  Options opt_;

  std::atomic<int> consistency_;
  std::atomic<int> protection_;

  store::Manifest manifest_;

  // Mutable tables + sealed-table registries.  imm_* are ordered newest
  // first (search order §2.6).  The *_rotate_mu_ mutexes serialize
  // seal+enqueue so queue order always matches seal order.  Canonical
  // order: rotate mutex -> table mutex -> drain mutex; never the reverse.
  // remote_rotate_mu_ is held across SubmitMigration, which takes the
  // pipeline's async_pipe_mu.
  Mutex local_rotate_mu_{"db_local_rotate_mu"};
  mutable Mutex local_mu_{"db_local_mu"};
  store::MemTablePtr local_ GUARDED_BY(local_mu_);
  std::deque<store::MemTablePtr> imm_local_ GUARDED_BY(local_mu_);

  Mutex remote_rotate_mu_{"db_remote_rotate_mu"};
  mutable Mutex remote_mu_{"db_remote_mu"};
  store::MemTablePtr remote_ GUARDED_BY(remote_mu_);
  std::deque<store::MemTablePtr> imm_remote_ GUARDED_BY(remote_mu_);

  store::LruCache cache_local_;
  store::LruCache cache_remote_;

  // Cached batch.op.fail failpoint (per-op failure injection in ApplyBatch).
  fault::Point* batch_fail_point_;

  // Incremented by every LocalPut.  An SSTable search captures it on entry
  // and only fills the local cache if no mutation intervened — otherwise a
  // slow reader could insert a value that a concurrent put/delete had
  // already superseded (and, once the tombstone is compacted away, nothing
  // would ever evict the stale entry).
  std::atomic<uint64_t> mutation_epoch_{0};

  // Readers for other group members' SSTables, keyed by (rank, ssid).
  // Leaf lock: held only for map lookup/insert, never across file I/O.
  Mutex foreign_mu_{"db_foreign_mu"};
  std::map<std::pair<int, uint64_t>, store::SSTablePtr> foreign_readers_
      GUARDED_BY(foreign_mu_);

  // Intra-group replication engine (null when the effective replica count
  // is 1).  Lock order: promo_mu_ -> local_mu_ -> the replicator's mu_;
  // promo_mu_ additionally serializes elections so one rank never promotes
  // two different replicas for the same dead primary.
  std::unique_ptr<repl::Replicator> repl_;
  Mutex promo_mu_{"db_promo_mu"};
  std::map<int, int> promoted_owner_ GUARDED_BY(promo_mu_);   // dead -> serving
  std::set<int> promoted_sources_ GUARDED_BY(promo_mu_);      // primaries taken over
  std::map<int, std::vector<uint64_t>> promoted_sstables_
      GUARDED_BY(promo_mu_);  // dead rank -> adopted SSIDs (descending)
  std::atomic<bool> promoted_any_{false};
  std::atomic<uint64_t> replica_rr_{0};  // read-from-replica round robin

  // Sealed local MemTables not yet flushed.  drain_mu_ is last in the
  // canonical order: it is taken while no other shard lock is held.
  Mutex drain_mu_{"db_drain_mu"};
  CondVar drain_cv_;
  int pending_flushes_ GUARDED_BY(drain_mu_) = 0;

  // Cached registry metrics, resolved once in the constructor so hot-path
  // updates are lock-free relaxed atomics (obs/metrics.h).  The db-scoped
  // counters ("db.<name>.*") are reset there too, so every shard lifetime
  // counts from zero across close/reopen.
  struct Metrics {
    obs::Counter* puts_local;
    obs::Counter* puts_remote_staged;
    obs::Counter* puts_remote_sync;
    obs::Counter* gets_local;
    obs::Counter* gets_remote;
    obs::Counter* deletes;
    obs::Counter* memtable_hits;
    obs::Counter* cache_local_hits;
    obs::Counter* cache_local_misses;
    obs::Counter* cache_remote_hits;
    obs::Counter* cache_remote_misses;
    obs::Counter* sstable_hits;
    obs::Counter* bloom_checks;
    obs::Counter* bloom_negatives;
    obs::Counter* foreign_sstable_hits;
    obs::Counter* remote_value_transfers;
    obs::Counter* flushes;
    obs::Counter* migrations;
    obs::Counter* compactions;
    obs::Counter* replica_read_hits;  // repl.replica_read_hits (rank-wide)
    obs::Counter* promotions;         // repl.promotions (rank-wide)
    obs::Gauge* memtable_local_bytes;
    obs::Gauge* memtable_remote_bytes;
    // Rank-wide operation latencies (shared across this rank's databases).
    obs::Histogram* put_us;
    obs::Histogram* get_us;
    obs::Histogram* delete_us;
    obs::Histogram* fence_us;
    obs::Histogram* barrier_us;
    // Async submission cost only (enqueue / inline resolution) — the wire
    // leg's submit→completion latency lands in async.put_op_us/get_op_us
    // at ack time, so kv.put_us/get_us are never skewed by enqueue-only
    // timings.
    obs::Histogram* put_submit_us;
    obs::Histogram* get_submit_us;
    obs::Histogram* delete_submit_us;
  };
  Metrics m_;
};

using DbShardPtr = std::shared_ptr<DbShard>;

}  // namespace papyrus::core
