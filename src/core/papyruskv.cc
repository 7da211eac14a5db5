#include "core/papyruskv.h"

#include <cstring>

#include "core/runtime.h"

using papyrus::Status;
using papyrus::core::DbShardPtr;
using papyrus::core::KvRuntime;
using papyrus::core::Options;

namespace {

int Code(const Status& s) { return s.code(); }

KvRuntime* Rt() { return KvRuntime::Current(); }

Options ToOptions(const papyruskv_option_t* opt) {
  Options o;
  if (!opt) return o;
  o.keylen_hint = opt->keylen;
  o.vallen_hint = opt->vallen;
  o.hash = opt->hash;
  if (opt->consistency == PAPYRUSKV_SEQUENTIAL ||
      opt->consistency == PAPYRUSKV_RELAXED) {
    o.consistency = opt->consistency;
  }
  if (opt->protection == PAPYRUSKV_RDWR ||
      opt->protection == PAPYRUSKV_WRONLY ||
      opt->protection == PAPYRUSKV_RDONLY) {
    o.protection = opt->protection;
  }
  if (opt->memtable_size > 0) o.memtable_bytes = opt->memtable_size;
  o.cache_local_enabled = opt->cache_local != 0;
  if (opt->cache_local_size > 0) o.cache_local_bytes = opt->cache_local_size;
  if (opt->cache_remote_size > 0) {
    o.cache_remote_bytes = opt->cache_remote_size;
  }
  o.compaction_trigger = opt->compaction_trigger;
  if (opt->bloom_bits_per_key > 0) {
    o.bloom_bits_per_key = opt->bloom_bits_per_key;
  }
  o.sstable_binary_search = opt->bin_search != 0;
  o.group_size = opt->group_size;
  if (opt->replicas >= 1) o.replicas = opt->replicas;
  o.read_from_replica = opt->read_from_replica != 0;
  return o;
}

}  // namespace

extern "C" {

int papyruskv_option_init(papyruskv_option_t* opt) {
  if (!opt) return PAPYRUSKV_INVALID_ARG;
  const Options d;
  memset(opt, 0, sizeof(*opt));
  opt->hash = nullptr;
  opt->consistency = d.consistency;
  opt->protection = d.protection;
  opt->memtable_size = d.memtable_bytes;
  opt->cache_local = d.cache_local_enabled ? 1 : 0;
  opt->cache_local_size = d.cache_local_bytes;
  opt->cache_remote_size = d.cache_remote_bytes;
  opt->compaction_trigger = d.compaction_trigger;
  opt->bloom_bits_per_key = d.bloom_bits_per_key;
  opt->bin_search = d.sstable_binary_search ? 1 : 0;
  opt->group_size = d.group_size;
  opt->replicas = d.replicas;
  opt->read_from_replica = d.read_from_replica ? 1 : 0;
  return PAPYRUSKV_SUCCESS;
}

int papyruskv_init(int* argc, char*** argv, const char* repository) {
  // MPI-style signature (Table 1); the simulated runtime takes no args.
  (void)argc;
  (void)argv;  // as above
  return Code(KvRuntime::Init(repository ? repository : ""));
}

int papyruskv_finalize() { return Code(KvRuntime::Finalize()); }

int papyruskv_open(const char* name, int flags, papyruskv_option_t* opt,
                   papyruskv_db_t* db) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  if (!name || !db) return PAPYRUSKV_INVALID_ARG;
  return Code(rt->Open(name, flags, ToOptions(opt), db));
}

int papyruskv_close(papyruskv_db_t db) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  return Code(rt->Close(db));
}

int papyruskv_put(papyruskv_db_t db, const char* key, size_t keylen,
                  const char* value, size_t vallen) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  if (!key || (vallen > 0 && !value)) return PAPYRUSKV_INVALID_ARG;
  DbShardPtr shard = rt->Find(db);
  if (!shard) return PAPYRUSKV_INVALID_DB;
  return Code(shard->Put(papyrus::Slice(key, keylen),
                         papyrus::Slice(value, vallen)));
}

int papyruskv_get(papyruskv_db_t db, const char* key, size_t keylen,
                  char** value, size_t* vallen) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  if (!key || !value || !vallen) return PAPYRUSKV_INVALID_ARG;
  DbShardPtr shard = rt->Find(db);
  if (!shard) return PAPYRUSKV_INVALID_DB;

  std::string out;
  Status s = shard->Get(papyrus::Slice(key, keylen), &out);
  if (!s.ok()) return Code(s);

  if (*value == nullptr) {
    // Table 1: allocate from the PapyrusKV memory pool.
    char* buf = rt->AllocValue(out.size());
    if (!buf) return PAPYRUSKV_OUT_OF_MEMORY;
    memcpy(buf, out.data(), out.size());
    *value = buf;
  } else {
    if (*vallen < out.size()) return PAPYRUSKV_INVALID_ARG;
    memcpy(*value, out.data(), out.size());
  }
  *vallen = out.size();
  return PAPYRUSKV_SUCCESS;
}

int papyruskv_delete(papyruskv_db_t db, const char* key, size_t keylen) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  if (!key) return PAPYRUSKV_INVALID_ARG;
  DbShardPtr shard = rt->Find(db);
  if (!shard) return PAPYRUSKV_INVALID_DB;
  return Code(shard->Delete(papyrus::Slice(key, keylen)));
}

int papyruskv_free(papyruskv_db_t db, char* val) {
  (void)db;  // the value pool is rank-wide; db kept for API symmetry
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  return Code(rt->FreeValue(val));
}

int papyruskv_put_async(papyruskv_db_t db, const char* key, size_t keylen,
                        const char* value, size_t vallen,
                        papyruskv_event_t* event) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  if (!key || (vallen > 0 && !value)) return PAPYRUSKV_INVALID_ARG;
  DbShardPtr shard = rt->Find(db);
  if (!shard) return PAPYRUSKV_INVALID_DB;
  papyrus::async::OpHandle h = shard->PutAsync(
      papyrus::Slice(key, keylen), papyrus::Slice(value, vallen),
      /*tombstone=*/false, /*tracked=*/event != nullptr);
  if (!event) {
    // Fire-and-forget: an op resolved inline reports now; a pipelined one
    // (no handle) reports at the next fence.
    return h ? h->Wait().code() : PAPYRUSKV_SUCCESS;
  }
  papyrus::core::AsyncOp op;
  op.handle = std::move(h);
  *event = rt->RegisterAsyncOp(std::move(op));
  return PAPYRUSKV_SUCCESS;
}

int papyruskv_get_async(papyruskv_db_t db, const char* key, size_t keylen,
                        char** value, size_t* vallen,
                        papyruskv_event_t* event) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  if (!key || !value || !vallen || !event) return PAPYRUSKV_INVALID_ARG;
  DbShardPtr shard = rt->Find(db);
  if (!shard) return PAPYRUSKV_INVALID_DB;
  papyrus::core::AsyncOp op;
  op.handle = shard->GetAsync(papyrus::Slice(key, keylen));
  op.db = shard;
  op.key.assign(key, keylen);
  op.value = value;
  op.vallen = vallen;
  op.kind = papyrus::core::AsyncOp::Kind::kGet;
  *event = rt->RegisterAsyncOp(std::move(op));
  return PAPYRUSKV_SUCCESS;
}

int papyruskv_delete_async(papyruskv_db_t db, const char* key, size_t keylen,
                           papyruskv_event_t* event) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  if (!key) return PAPYRUSKV_INVALID_ARG;
  DbShardPtr shard = rt->Find(db);
  if (!shard) return PAPYRUSKV_INVALID_DB;
  papyrus::async::OpHandle h =
      shard->PutAsync(papyrus::Slice(key, keylen), papyrus::Slice(),
                      /*tombstone=*/true, /*tracked=*/event != nullptr);
  if (!event) return h ? h->Wait().code() : PAPYRUSKV_SUCCESS;
  papyrus::core::AsyncOp op;
  op.handle = std::move(h);
  *event = rt->RegisterAsyncOp(std::move(op));
  return PAPYRUSKV_SUCCESS;
}

int papyruskv_get_multi(papyruskv_db_t db, int nkeys, const char* const* keys,
                        const size_t* keylens, char** values, size_t* vallens,
                        int* statuses) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  if (nkeys < 0 || !keys || !keylens || !values || !vallens || !statuses) {
    return PAPYRUSKV_INVALID_ARG;
  }
  DbShardPtr shard = rt->Find(db);
  if (!shard) return PAPYRUSKV_INVALID_DB;
  // Submit everything first: outstanding gets for one owner coalesce into a
  // single get_multi frame when the pipeline thread drains the queues.
  std::vector<papyrus::async::OpHandle> handles;
  handles.reserve(static_cast<size_t>(nkeys));
  for (int i = 0; i < nkeys; ++i) {
    if (!keys[i]) {
      handles.push_back(
          papyrus::async::CompletedOp(Status::InvalidArg("null key")));
      continue;
    }
    handles.push_back(shard->GetAsync(papyrus::Slice(keys[i], keylens[i])));
  }
  int rc = PAPYRUSKV_SUCCESS;
  for (int i = 0; i < nkeys; ++i) {
    std::string out;
    const papyrus::Slice key(keys[i] ? keys[i] : "",
                             keys[i] ? keylens[i] : 0);
    Status s = shard->FinishGet(key, handles[static_cast<size_t>(i)], &out);
    int code = s.code();
    if (s.ok()) {
      // Per-key delivery under the papyruskv_get buffer contract.
      if (values[i] == nullptr) {
        char* buf = rt->AllocValue(out.size());
        if (!buf) {
          code = PAPYRUSKV_OUT_OF_MEMORY;
        } else {
          memcpy(buf, out.data(), out.size());
          values[i] = buf;
          vallens[i] = out.size();
        }
      } else if (vallens[i] < out.size()) {
        code = PAPYRUSKV_INVALID_ARG;
      } else {
        memcpy(values[i], out.data(), out.size());
        vallens[i] = out.size();
      }
    }
    statuses[i] = code;
    if (code != PAPYRUSKV_SUCCESS && code != PAPYRUSKV_NOT_FOUND &&
        rc == PAPYRUSKV_SUCCESS) {
      rc = code;
    }
  }
  return rc;
}

int papyruskv_signal_notify(int signum, int* ranks, int count) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  return Code(rt->SignalNotify(signum, ranks, count));
}

int papyruskv_signal_wait(int signum, int* ranks, int count) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  return Code(rt->SignalWait(signum, ranks, count));
}

int papyruskv_fence(papyruskv_db_t db) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  DbShardPtr shard = rt->Find(db);
  if (!shard) return PAPYRUSKV_INVALID_DB;
  return Code(shard->Fence());
}

int papyruskv_barrier(papyruskv_db_t db, int level) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  DbShardPtr shard = rt->Find(db);
  if (!shard) return PAPYRUSKV_INVALID_DB;
  if (level != PAPYRUSKV_MEMTABLE && level != PAPYRUSKV_SSTABLE) {
    return PAPYRUSKV_INVALID_ARG;
  }
  return Code(shard->Barrier(level));
}

int papyruskv_consistency(papyruskv_db_t db, int mode) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  DbShardPtr shard = rt->Find(db);
  if (!shard) return PAPYRUSKV_INVALID_DB;
  return Code(shard->SetConsistency(mode));
}

int papyruskv_protect(papyruskv_db_t db, int prot) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  DbShardPtr shard = rt->Find(db);
  if (!shard) return PAPYRUSKV_INVALID_DB;
  return Code(shard->SetProtection(prot));
}

int papyruskv_checkpoint(papyruskv_db_t db, const char* path,
                         papyruskv_event_t* event) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  if (!path) return PAPYRUSKV_INVALID_ARG;
  return Code(rt->Checkpoint(db, path, event));
}

int papyruskv_restart(const char* path, const char* name, int flags,
                      papyruskv_option_t* opt, papyruskv_db_t* db,
                      papyruskv_event_t* event) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  if (!path || !name || !db) return PAPYRUSKV_INVALID_ARG;
  return Code(rt->Restart(path, name, flags, ToOptions(opt), db, event));
}

int papyruskv_destroy(papyruskv_db_t db, papyruskv_event_t* event) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  return Code(rt->Destroy(db, event));
}

int papyruskv_wait(papyruskv_db_t db, papyruskv_event_t event) {
  (void)db;  // event ids are rank-wide; db kept for API symmetry
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  return Code(rt->WaitEvent(event));
}

int papyruskv_stats(papyruskv_db_t db, char* buf, size_t* len) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  if (!len) return PAPYRUSKV_INVALID_ARG;
  if (db >= 0 && !rt->Find(db)) return PAPYRUSKV_INVALID_DB;
  const std::string json = rt->StatsJson();
  if (!buf) {
    *len = json.size();
    return PAPYRUSKV_SUCCESS;
  }
  if (*len < json.size()) {
    *len = json.size();
    return PAPYRUSKV_INVALID_ARG;
  }
  memcpy(buf, json.data(), json.size());
  *len = json.size();
  return PAPYRUSKV_SUCCESS;
}

int papyruskv_stats_reset() {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  rt->metrics().Reset();
  return PAPYRUSKV_SUCCESS;
}

int papyruskv_health(papyruskv_health_t* health) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  if (!health) return PAPYRUSKV_INVALID_ARG;
  // Deliberately no CheckAlive: a crashed rank still reports (that is the
  // point of a health probe).
  const papyrus::core::HealthSnapshot h = rt->Health();
  health->rank = h.rank;
  health->nranks = h.nranks;
  health->crashed = h.crashed ? 1 : 0;
  health->degraded = h.degraded ? 1 : 0;
  health->suspect_peers = h.suspect_peers;
  health->pipeline_queue_depth = h.pipeline_queue_depth;
  health->flush_queue_depth = h.flush_queue_depth;
  health->migration_queue_depth = h.migration_queue_depth;
  health->repl_lag_ops = h.repl_lag_ops;
  health->uptime_us = h.uptime_us;
  health->put_rate = h.put_rate;
  health->get_rate = h.get_rate;
  health->put_p99_us = h.put_p99_us;
  health->get_p99_us = h.get_p99_us;
  return PAPYRUSKV_SUCCESS;
}

int papyruskv_hash(papyruskv_db_t db, const char* key, size_t keylen,
                   int* rank) {
  KvRuntime* rt = Rt();
  if (!rt) return PAPYRUSKV_CLOSED;
  if (!key || !rank) return PAPYRUSKV_INVALID_ARG;
  DbShardPtr shard = rt->Find(db);
  if (!shard) return PAPYRUSKV_INVALID_DB;
  *rank = shard->OwnerOf(papyrus::Slice(key, keylen));
  return PAPYRUSKV_SUCCESS;
}

}  // extern "C"

namespace papyrus::core {

std::shared_ptr<DbShard> DbHandle(papyruskv_db_t db) {
  KvRuntime* rt = KvRuntime::Current();
  return rt ? rt->Find(db) : nullptr;
}

}  // namespace papyrus::core
