// PapyrusKV public API — the functions of Table 1 in the paper.
//
// An embedded, parallel key-value store for distributed (simulated) NVM
// architectures.  Every rank of the emulated SPMD job links this library;
// calls marked "collective" below must be made by all ranks, in the same
// order (MPI collective contract).  Every function returns a 32-bit error
// code: PAPYRUSKV_SUCCESS (0) or a negative PAPYRUSKV_* code (common/
// status.h).  All entry points are [[nodiscard]] — an ignored return code
// hides failures; cast to (void) only with a comment saying why.
//
// Typical use (see examples/quickstart.cpp):
//
//   papyrus::net::RunRanks(8, [](papyrus::net::RankContext&) {
//     papyruskv_init(nullptr, nullptr, "nvme:/tmp/repo");
//     papyruskv_db_t db;
//     papyruskv_open("mydb", PAPYRUSKV_CREATE | PAPYRUSKV_RDWR, nullptr, &db);
//     papyruskv_put(db, key, keylen, val, vallen);
//     papyruskv_barrier(db, PAPYRUSKV_SSTABLE);
//     char* out = nullptr; size_t outlen = 0;
//     papyruskv_get(db, key, keylen, &out, &outlen);
//     papyruskv_free(db, out);
//     papyruskv_close(db);
//     papyruskv_finalize();
//   });
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/status.h"  // error codes
#include "core/options.h"   // flags, consistency modes, barrier levels

extern "C" {

typedef int papyruskv_db_t;
typedef int papyruskv_event_t;

// Per-database options passed to papyruskv_open / papyruskv_restart.
// Initialize with papyruskv_option_init, then override fields.
typedef struct papyruskv_option_struct {
  size_t keylen;    // expected key length (hint; 0 = unknown)
  size_t vallen;    // expected value length (hint)
  uint64_t (*hash)(const char* key, size_t keylen);  // custom owner hash
  int consistency;            // PAPYRUSKV_SEQUENTIAL / PAPYRUSKV_RELAXED
  int protection;             // PAPYRUSKV_RDWR / _WRONLY / _RDONLY
  size_t memtable_size;       // MemTable capacity limit in bytes
  int cache_local;            // local cache on/off
  size_t cache_local_size;    // bytes
  size_t cache_remote_size;   // bytes (active under PAPYRUSKV_RDONLY)
  uint64_t compaction_trigger;  // merge every N SSTables (<=1 disables)
  int bloom_bits_per_key;
  int bin_search;             // 1 = SSData binary search, 0 = linear scan
  int group_size;             // storage-group size in ranks (-1 = derive)
  // Intra-group replication (DESIGN.md §12).  New fields append at the end:
  // existing callers that memset+init the struct keep working unchanged.
  int replicas;               // copies of each pair inside the storage
                              // group, primary included (1 = off)
  int read_from_replica;      // 1 = round-robin gets over in-sync replicas
} papyruskv_option_t;

// Fills *opt with the library defaults.
[[nodiscard]] int papyruskv_option_init(papyruskv_option_t* opt);

// ---- (a) Environment -------------------------------------------------------

// Initializes the per-rank execution environment using the repository path
// (nullptr/"" = $PAPYRUSKV_REPOSITORY).  The spec may carry a device-class
// prefix: "nvme:", "ssd:", "bb:", "lustre:" (see core/layout.h).
// Collective.
[[nodiscard]] int papyruskv_init(int* argc, char*** argv, const char* repository);
// Terminates the environment, closing any open databases.  Collective.
[[nodiscard]] int papyruskv_finalize();

// ---- (b) Basic -------------------------------------------------------------

// Opens or creates database `name`.  Collective; all ranks receive the same
// descriptor.  opt == nullptr uses defaults (+PAPYRUSKV_* env overrides).
[[nodiscard]] int papyruskv_open(const char* name, int flags, papyruskv_option_t* opt,
                   papyruskv_db_t* db);
// Flushes all MemTables to SSTables and closes.  Collective.
[[nodiscard]] int papyruskv_close(papyruskv_db_t db);

// Inserts or updates one pair.  Local puts land in the local MemTable;
// remote puts stage in the remote MemTable (relaxed) or migrate
// synchronously (sequential).
[[nodiscard]] int papyruskv_put(papyruskv_db_t db, const char* key, size_t keylen,
                  const char* value, size_t vallen);

// Retrieves the value for key.  If *value is NULL, a buffer is allocated
// from the PapyrusKV memory pool (release with papyruskv_free); otherwise
// *vallen must hold the caller buffer's capacity and the data is copied in.
// On return *vallen is the value's actual length.
[[nodiscard]] int papyruskv_get(papyruskv_db_t db, const char* key, size_t keylen,
                  char** value, size_t* vallen);

// Deletes the pair (internally: a put of a zero-length value with the
// tombstone bit set).
[[nodiscard]] int papyruskv_delete(papyruskv_db_t db, const char* key, size_t keylen);

// Releases a buffer allocated by papyruskv_get from the memory pool.
[[nodiscard]] int papyruskv_free(papyruskv_db_t db, char* val);

// ---- (b') Asynchronous basic ops -------------------------------------------
//
// The *_async variants submit the operation to the per-rank submission
// pipeline and return immediately with an event handle.  Ops bound for the
// same destination rank are coalesced into one batched wire message, so a
// burst of N remote puts costs one round trip instead of N.  Completion is
// observed with papyruskv_wait(db, event), which returns the operation's
// own status (per-op statuses survive partially failed batches), or in
// bulk with papyruskv_fence / papyruskv_barrier, which drain the pipeline.
// Per-key ordering follows submission order per destination (SDCB).
//
// Quickstart:
//
//   papyruskv_event_t ev[N];
//   for (int i = 0; i < N; i++)
//     papyruskv_put_async(db, key[i], keylen, val[i], vallen, &ev[i]);
//   papyruskv_fence(db);                  // or: papyruskv_wait(db, ev[i])
//
// Wait and fence are alternatives, not a sequence: the fence *consumes*
// every completed put/delete event (as if each had been waited — nothing
// accumulates across a long run), returning the first failed op's status;
// waiting such an event after the fence reports PAPYRUSKV_INVALID_EVENT.
// Get events are not consumed by a fence — a get's value is delivered only
// by its papyruskv_wait, which must eventually be called — and neither are
// checkpoint/restart/destroy events, which share the same event table.
//
// Key and value are copied at submission time; the caller's buffers may be
// reused as soon as the call returns.

// Asynchronous papyruskv_put.  event may be NULL (fire-and-forget: errors
// are only observable through async.op_errors metrics and the fence).
[[nodiscard]] int papyruskv_put_async(papyruskv_db_t db, const char* key,
                                      size_t keylen, const char* value,
                                      size_t vallen, papyruskv_event_t* event);

// Asynchronous papyruskv_get.  value/vallen follow the papyruskv_get buffer
// contract but are filled in by papyruskv_wait, not before; they must stay
// valid until the wait returns.  event is required.
[[nodiscard]] int papyruskv_get_async(papyruskv_db_t db, const char* key,
                                      size_t keylen, char** value,
                                      size_t* vallen, papyruskv_event_t* event);

// Asynchronous papyruskv_delete.  event may be NULL as for put_async.
[[nodiscard]] int papyruskv_delete_async(papyruskv_db_t db, const char* key,
                                         size_t keylen,
                                         papyruskv_event_t* event);

// Batched get: looks up nkeys keys in one call.  Submits every key through
// the pipeline first and only then completes them, so keys owned by the
// same remote rank coalesce into one get_multi wire round trip (the same
// frames N separate get_asyncs would produce, without the event
// bookkeeping).  values[i]/vallens[i] follow the papyruskv_get buffer
// contract per key.  statuses is required and receives one PAPYRUSKV_*
// code per key (PAPYRUSKV_NOT_FOUND is a per-key result, not a call
// failure).  Returns PAPYRUSKV_SUCCESS when every status is SUCCESS or
// NOT_FOUND, else the first other per-key failure.
[[nodiscard]] int papyruskv_get_multi(papyruskv_db_t db, int nkeys,
                                      const char* const* keys,
                                      const size_t* keylens, char** values,
                                      size_t* vallens, int* statuses);

// ---- (c) Consistency -------------------------------------------------------

// Sends signal `signum` to each listed rank / waits for it from each.
[[nodiscard]] int papyruskv_signal_notify(int signum, int* ranks, int count);
[[nodiscard]] int papyruskv_signal_wait(int signum, int* ranks, int count);

// Migrates this rank's remote MemTable (and queued immutable remote
// MemTables) to the owner ranks immediately; returns once applied there.
// Also a completion fence for the async API: drains this rank's submission
// pipeline and retires every completed put/delete event (see §b' above),
// returning the first failed op's status.
[[nodiscard]] int papyruskv_fence(papyruskv_db_t db);

// Collective fence.  level PAPYRUSKV_MEMTABLE: all ranks see the same
// latest data; PAPYRUSKV_SSTABLE: additionally every MemTable is flushed
// to SSTables.
[[nodiscard]] int papyruskv_barrier(papyruskv_db_t db, int level);

// Sets the memory consistency mode (PAPYRUSKV_SEQUENTIAL / _RELAXED).
// Collective.
[[nodiscard]] int papyruskv_consistency(papyruskv_db_t db, int mode);

// Sets the protection attribute (PAPYRUSKV_RDWR / _WRONLY / _RDONLY).
// Collective.  WRONLY disables the local cache; RDONLY enables the remote
// cache (§3.2).
[[nodiscard]] int papyruskv_protect(papyruskv_db_t db, int prot);

// ---- (d) Persistence -------------------------------------------------------

// Creates a snapshot of db under `path` (may carry a device-class prefix,
// e.g. "lustre:/scratch/ckpt").  Asynchronous if event != NULL; wait with
// papyruskv_wait.  Collective.
[[nodiscard]] int papyruskv_checkpoint(papyruskv_db_t db, const char* path,
                         papyruskv_event_t* event);

// Reverts database `name` from the snapshot in `path`.  If the snapshot's
// rank count differs from the current job's (or
// PAPYRUSKV_FORCE_REDISTRIBUTE=1), the pairs are redistributed across the
// running ranks by replaying puts in parallel.  Asynchronous if event !=
// NULL.  Collective.
[[nodiscard]] int papyruskv_restart(const char* path, const char* name, int flags,
                      papyruskv_option_t* opt, papyruskv_db_t* db,
                      papyruskv_event_t* event);

// Removes db and all of its data from NVM.  Asynchronous if event != NULL.
// Collective.
[[nodiscard]] int papyruskv_destroy(papyruskv_db_t db, papyruskv_event_t* event);

// Waits for an asynchronous operation — a *_async op or a checkpoint,
// restart or destroy — to complete and returns its status.  One event
// table serves all of them; a wait consumes its event, so waiting an
// unknown, already-waited or fence-retired event returns
// PAPYRUSKV_INVALID_EVENT.
[[nodiscard]] int papyruskv_wait(papyruskv_db_t db, papyruskv_event_t event);

// ---- Extensions (not in Table 1, used by benches/tests) --------------------

// Owner rank for a key under db's hash (diagnostics, workload setup).
[[nodiscard]] int papyruskv_hash(papyruskv_db_t db, const char* key, size_t keylen,
                   int* rank);

// ---- Observability (src/obs/) ----------------------------------------------

// Renders the calling rank's live metrics (operation latency histograms,
// per-database counters, network and simulated-device I/O) as a stats-v1
// JSON document.  `db` is accepted for API symmetry and validated when >= 0;
// pass -1 for the rank-wide view regardless of open databases.
//
// Buffer contract: on entry *len holds the capacity of buf; on return it
// holds the document size (without the NUL terminator).  buf == NULL
// queries the required size (returns SUCCESS).  A too-small buffer returns
// PAPYRUSKV_INVALID_ARG with *len set to the required size.
[[nodiscard]] int papyruskv_stats(papyruskv_db_t db, char* buf, size_t* len);

// Zeroes every metric of the calling rank's registry.
[[nodiscard]] int papyruskv_stats_reset();

// Live per-rank health snapshot, filled without stopping the store (atomic
// reads plus two brief leaf-lock peeks; no collectives, no I/O).  Works on
// a crashed rank — health is exactly what you ask a sick rank for.
//
// put/get rates and p99s cover the whole run (uptime_us), from the
// cumulative kv.put_us / kv.get_us histograms.
typedef struct papyruskv_health_struct {
  int rank;
  int nranks;
  int crashed;            /* 1 = simulated fail-stop fired              */
  int degraded;           /* 1 = replication below quorum on any db     */
  int suspect_peers;      /* peers that exhausted their retry budgets   */
  long long pipeline_queue_depth;   /* async submission backlog         */
  long long flush_queue_depth;      /* MemTables awaiting compaction    */
  long long migration_queue_depth;  /* MemTables awaiting dispatch      */
  long long repl_lag_ops;           /* primary-to-follower append lag   */
  unsigned long long uptime_us;
  double put_rate;        /* puts/s over uptime_us                      */
  double get_rate;
  double put_p99_us;
  double get_p99_us;
} papyruskv_health_t;

[[nodiscard]] int papyruskv_health(papyruskv_health_t* health);

}  // extern "C"

namespace papyrus::core {
class DbShard;
// The C++ shard behind a descriptor (tests and benches read stats through
// it).  Null if the descriptor is invalid.
std::shared_ptr<DbShard> DbHandle(papyruskv_db_t db);
}  // namespace papyrus::core
