// Persistence support (paper §4): asynchronous checkpoint, restart, restart
// with redistribution, and destroy.
//
// Checkpoint: barrier(SSTABLE) creates a snapshot image on NVM — a complete
// set of SSTables.  The compaction thread then copies those files to the
// parallel-filesystem target in the background, while the application is
// free to keep updating (updates never touch existing SSTables).
//
// Restart: the compaction thread copies the snapshot's files back to NVM
// and the database is re-composed from them.  If the rank count differs
// from the snapshot's — or redistribution is forced — every rank replays a
// partition of the snapshot through normal put operations, in parallel, so
// the hash re-partitions the data (§4.2 "Restart with redistribution").
//
// Snapshot layout under <path>/<db name>/:
//   snapshot.meta          "papyruskv-snapshot v2\nnranks <N>\ncrc <hex>\n"
//                          (replaced atomically; the previous meta survives
//                          as snapshot.meta.bak and is the fallback when the
//                          primary is torn or corrupt — DESIGN.md §8)
//   rank<k>/sst_<ssid>.*   rank k's SSTable files
#include <cstdio>
#include <sstream>

#include "common/crc32.h"
#include "common/env.h"
#include "common/logging.h"
#include "core/runtime.h"
#include "sim/storage.h"
#include "store/format.h"

namespace papyrus::core {

namespace {

std::string SnapshotDbDir(const std::string& root, const std::string& name) {
  return root + "/" + name;
}

Status WriteSnapshotMeta(const std::string& db_dir, int nranks) {
  std::ostringstream ss;
  ss << "papyruskv-snapshot v2\nnranks " << nranks << "\n";
  const std::string body = ss.str();
  char crc_hex[16];
  snprintf(crc_hex, sizeof(crc_hex), "%08x", Crc32c(body.data(), body.size()));
  const std::string text = body + "crc " + crc_hex + "\n";

  // Replace atomically, keeping the previous meta as .bak: a crash at any
  // point leaves either the old or the new meta parseable — a torn write
  // can corrupt the primary, but never both.
  const std::string path = db_dir + "/snapshot.meta";
  const std::string tmp = path + ".tmp";
  if (sim::Storage::FileExists(path)) {
    Status s = sim::Storage::RenameFile(path, path + ".bak");
    if (!s.ok()) return s;
  }
  Status s = sim::Storage::WriteStringToFile(tmp, text);
  if (!s.ok()) return s;
  return sim::Storage::RenameFile(tmp, path);
}

// Parses and verifies one snapshot.meta image.  v2 carries a trailing
// "crc <hex>" line over everything before it, so a truncated or partially
// written meta is *detected* instead of silently accepted; v1 (no footer)
// is still accepted for snapshots written before the CRC existed.
Status ParseSnapshotMeta(const std::string& text, int* nranks) {
  std::istringstream ss(text);
  std::string magic, version, key;
  int value = 0;
  ss >> magic >> version >> key >> value;
  if (magic != "papyruskv-snapshot" || key != "nranks" || value <= 0) {
    return Status::Corrupted("bad snapshot meta");
  }
  if (version != "v1") {
    const size_t pos = text.rfind("\ncrc ");
    if (pos == std::string::npos) {
      return Status::Corrupted("snapshot meta missing crc footer");
    }
    const std::string body = text.substr(0, pos + 1);
    const uint32_t want = static_cast<uint32_t>(
        strtoul(text.substr(pos + 5).c_str(), nullptr, 16));
    if (Crc32c(body.data(), body.size()) != want) {
      return Status::Corrupted("snapshot meta crc mismatch (torn write?)");
    }
  }
  *nranks = value;
  return Status::OK();
}

Status ReadSnapshotMeta(const std::string& db_dir, int* nranks) {
  const std::string path = db_dir + "/snapshot.meta";
  std::string text;
  Status s = sim::Storage::ReadFileToString(path, &text);
  if (s.ok()) s = ParseSnapshotMeta(text, nranks);
  if (s.ok()) return s;
  // Torn, corrupt, or missing primary: fall back to the previous
  // checkpoint's meta, preserved as .bak by WriteSnapshotMeta.
  std::string bak;
  if (sim::Storage::ReadFileToString(path + ".bak", &bak).ok()) {
    Status bs = ParseSnapshotMeta(bak, nranks);
    if (bs.ok()) {
      PLOG_WARN << "snapshot.meta unusable (" << s.ToString()
                << "); falling back to previous consistent snapshot meta";
      return bs;
    }
  }
  return s;
}

// SSIDs present in a snapshot rank directory, ascending.
Status ScanSnapshotSsids(const std::string& dir, std::vector<uint64_t>* out) {
  out->clear();
  std::vector<std::string> entries;
  Status s = sim::Storage::ListDir(dir, &entries);
  if (!s.ok()) return s;
  for (const auto& name : entries) {
    if (name.rfind("sst_", 0) == 0 && name.size() > 9 &&
        name.compare(name.size() - 5, 5, ".data") == 0) {
      const uint64_t ssid =
          strtoull(name.substr(4, name.size() - 9).c_str(), nullptr, 10);
      if (ssid > 0) out->push_back(ssid);
    }
  }
  std::sort(out->begin(), out->end());
  return Status::OK();
}

Status CopySstableFiles(const std::string& from_dir,
                        const std::string& to_dir, uint64_t ssid) {
  for (const auto& name : {store::SsDataName(ssid), store::SsIndexName(ssid),
                           store::BloomName(ssid)}) {
    Status s = sim::Storage::CopyFile(from_dir + "/" + name,
                                      to_dir + "/" + name);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace

Status KvRuntime::Checkpoint(int dbid, const std::string& path,
                             int* event_out) {
  DbShardPtr db = Find(dbid);
  if (!db) return Status(PAPYRUSKV_INVALID_DB);
  if (path.empty()) return Status::InvalidArg("checkpoint path");

  // Register the target's device model (the artifact points this at
  // Lustre); "lustre:/scratch/ckpt" style specs are honored like the
  // repository spec.
  sim::DeviceClass cls;
  std::string root;
  ParseRepositorySpec(path, &cls, &root);
  sim::DeviceRegistry::Instance().GetOrCreate(root, cls);

  // §4.2: checkpoint internally performs barrier(SSTABLE), creating the
  // snapshot image on NVM.
  Status s = db->Barrier(PAPYRUSKV_SSTABLE);
  if (!s.ok()) return s;

  const std::string db_dir = SnapshotDbDir(root, db->name());
  const std::string dst_dir = db_dir + "/rank" + std::to_string(rank());
  s = sim::Storage::CreateDirs(dst_dir);
  if (!s.ok()) return s;
  if (rank() == 0) {
    s = WriteSnapshotMeta(db_dir, size());
    if (!s.ok()) return s;
  }

  // Snapshot the live table list *now*: the transfer job runs FIFO on the
  // compaction thread, so no compaction can delete these files before the
  // copies complete, and later updates only add higher SSIDs.
  std::vector<uint64_t> ssids = db->manifest().LiveSsids();
  const std::string src_dir = db->dir();

  auto ev = std::make_shared<async::OpState>();
  // Latency spans the full operation: barrier start to transfer complete.
  const uint64_t start_us = NowMicros();
  KvRuntime* rt = this;
  EnqueueTask([src_dir, dst_dir, ssids, ev, rt, db, start_us] {
    Status ts = Status::OK();
    {
      obs::TraceSpan span("kv", "checkpoint");
      for (uint64_t ssid : ssids) {
        ts = CopySstableFiles(src_dir, dst_dir, ssid);
        if (!ts.ok()) break;
      }
    }
    // The fresh snapshot doubles as the repair source for corrupted live
    // SSTables (DESIGN.md §8): every checkpointed ssid can be restored
    // from dst_dir on a checksum failure.
    if (ts.ok()) db->manifest().SetRepairDir(dst_dir);
    rt->metrics()
        .GetHistogram("kv.checkpoint_us")
        .Record(NowMicros() - start_us);
    ev->Complete(ts);
  });
  return EventOrWait(std::move(ev), event_out);
}

Status KvRuntime::Restart(const std::string& path, const std::string& name,
                          int flags, const Options& opt, int* db_out,
                          int* event_out) {
  if (!db_out) return Status::InvalidArg("restart");
  // The restart collective is the §4.2 rejoin point: a rank that crashed
  // (fail-stop) comes back through here, so its crashed flag lifts and every
  // rank's stale suspicions reset — peers re-probe instead of permanently
  // routing around a rank that has recovered.
  ClearFaultState();
  sim::DeviceClass cls;
  std::string root;
  ParseRepositorySpec(path, &cls, &root);
  sim::DeviceRegistry::Instance().GetOrCreate(root, cls);

  const std::string db_dir = SnapshotDbDir(root, name);
  int snap_nranks = 0;
  Status s = ReadSnapshotMeta(db_dir, &snap_nranks);
  if (!s.ok()) return s;

  const bool force_rd =
      EnvBool("PAPYRUSKV_FORCE_REDISTRIBUTE").value_or(false);
  const bool redistribute = force_rd || snap_nranks != size();

  // Start from a clean slate on NVM, then open the (empty) database; the
  // restore job repopulates it.
  const std::string rank_dir = layout().RankDir(name, rank());
  s = sim::Storage::RemoveDirRecursive(rank_dir);
  if (!s.ok()) return s;
  int dbid = 0;
  s = Open(name, flags | PAPYRUSKV_CREATE, opt, &dbid);
  if (!s.ok()) return s;
  DbShardPtr db = Find(dbid);

  auto ev = std::make_shared<async::OpState>();
  const int my_rank = rank();
  const int nranks = size();
  KvRuntime* rt = this;
  const uint64_t start_us = NowMicros();

  if (!redistribute) {
    // Same rank count: SSTables are reused as they are (§4.2, Fig. 5b).
    RunAsync([db_dir, my_rank, db, rt, ev, start_us] {
      obs::TraceSpan span("kv", "restart");
      const std::string src = db_dir + "/rank" + std::to_string(my_rank);
      std::vector<uint64_t> ssids;
      Status ts = ScanSnapshotSsids(src, &ssids);
      if (ts.ok()) {
        for (uint64_t ssid : ssids) {
          ts = CopySstableFiles(src, db->dir(), ssid);
          if (!ts.ok()) break;
        }
      }
      if (ts.ok()) ts = db->manifest().Open();  // adopt the copied tables
      // The snapshot we just restored from is a valid repair source for
      // the adopted tables (DESIGN.md §8).
      if (ts.ok()) db->manifest().SetRepairDir(src);
      // All ranks must finish restoring before any rank's event completes:
      // a remote get may hit any rank immediately after wait().
      Status bs = rt->RestartBarrier();
      if (ts.ok()) ts = bs;
      rt->metrics()
          .GetHistogram("kv.restart_us")
          .Record(NowMicros() - start_us);
      ev->Complete(ts);
    });
  } else {
    // Redistribution: each running rank replays a partition of the
    // snapshot ranks through normal puts; the workload is partitioned
    // across all ranks and executed in parallel (§4.2).
    RunAsync([db_dir, my_rank, nranks, snap_nranks, db, rt, ev, start_us] {
      obs::TraceSpan span("kv", "restart_redistribute");
      Status ts = Status::OK();
      for (int sr = my_rank; sr < snap_nranks && ts.ok(); sr += nranks) {
        const std::string src = db_dir + "/rank" + std::to_string(sr);
        std::vector<uint64_t> ssids;
        ts = ScanSnapshotSsids(src, &ssids);
        if (!ts.ok()) break;
        // Ascending SSIDs: replaying older tables first means newer
        // versions of a key overwrite older ones, ending in the correct
        // final state.
        for (uint64_t ssid : ssids) {
          store::SSTablePtr reader;
          ts = store::Manifest::OpenForeign(src, ssid, &reader);
          if (!ts.ok()) break;
          store::SSTableReader::Scanner scan;
          ts = scan.Open(std::move(reader));
          while (ts.ok() && !scan.done()) {
            ts = scan.Next();
            if (!ts.ok()) break;
            if (scan.flags() & store::kFlagTombstone) {
              ts = db->Delete(scan.key());
            } else {
              ts = db->Put(scan.key(), scan.value());
            }
          }
          if (!ts.ok()) break;
        }
      }
      if (ts.ok()) ts = db->Fence();  // push staged pairs to their owners
      // Every rank done replaying + fencing.
      Status bs = rt->RestartBarrier();
      if (ts.ok()) ts = bs;
      rt->metrics()
          .GetHistogram("kv.restart_us")
          .Record(NowMicros() - start_us);
      ev->Complete(ts);
    });
  }

  *db_out = dbid;
  return EventOrWait(std::move(ev), event_out);
}

Status KvRuntime::Destroy(int dbid, int* event_out) {
  DbShardPtr db = Find(dbid);
  if (!db) return Status(PAPYRUSKV_INVALID_DB);
  // Collective: quiesce background work for this database, then unregister
  // it and remove its data from NVM.
  Status s = db->Barrier(PAPYRUSKV_MEMTABLE);
  if (!s.ok()) return s;
  {
    MutexLock lock(&dbs_mu_);
    dbs_.erase(dbid);
  }
  s = CollectiveBarrier();
  if (!s.ok()) return s;

  const std::string rank_dir = db->dir();
  auto ev = std::make_shared<async::OpState>();
  EnqueueTask([rank_dir, ev] {
    ev->Complete(sim::Storage::RemoveDirRecursive(rank_dir));
  });
  return EventOrWait(std::move(ev), event_out);
}

}  // namespace papyrus::core
