// Wire protocol between rank runtimes.
//
// Paper §2.4/§2.6: the message dispatcher (sender side) and message handler
// (receiver side) exchange request/response messages over communicators
// private to the PapyrusKV runtime.  The message kinds:
//
//   kOpPutBatch / PutBatchAck — N puts/deletes for one owner, applied in
//       order and acked after application with one status per record (the
//       ack is what lets fence/barrier know data has *landed*, not merely
//       been sent).  Carries both sequential-mode puts (coalesced by the
//       async pipeline) and relaxed-mode migration (one frame per owner
//       chunk of a sealed remote MemTable, sent by the dispatcher).
//   kOpGetMulti / GetMultiResp — N remote gets for one owner.  The request
//       carries the caller's storage-group id; when it matches the owner's,
//       the owner searches only its in-memory structures and returns
//       `same_group` plus its live SSTable list so the caller can search
//       the shared SSTables itself (§2.7).
//   kOpReplAppend / kOpReplQuery / kOpReplRead — intra-group replication
//       (DESIGN.md §12).
//   kOpShutdown — runtime teardown for the handler loop.
//
// Requests travel on the request communicator with tag = opcode; responses
// on the response communicator with the tag the requester wrote into the
// request header.  Every request carries a fresh tag from
// KvRuntime::AllocRespTag() (>= kDynamicRespTagBase), so a retried request
// never matches an earlier attempt's late reply and concurrent requesting
// threads never steal each other's replies; stale replies to abandoned
// tags sit harmlessly in the mailbox.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"
#include "obs/trace.h"

namespace papyrus::core {

// ---- Frame header ----------------------------------------------------------
// Every frame below starts with the same header:
//
//   [u8 ver][u8 flags] + [u64 trace_id][u64 span_id] when flags bit 0 is set
//
// `ver` is kBatchVersion; decoders reject frames whose version they do not
// know.  flags bit 0 marks a sampled trace context (the sender had an
// active obs::OpSpan), whose ids follow; the other bits are reserved.
inline constexpr uint8_t kBatchVersion = 2;

enum WireOp : int {
  kOpShutdown = 1,
  // Batched submission/completion pipeline (src/async/, DESIGN.md §9):
  //   kOpPutBatch — N coalesced puts/deletes for one destination, acked by
  //       a single batched ack carrying one status per op;
  //   kOpGetMulti — N coalesced get requests for one destination, answered
  //       by one response carrying a full GetResp per key.
  kOpPutBatch = 2,
  kOpGetMulti = 3,
  // Intra-group k-way replication (src/repl/, DESIGN.md §12):
  //   kOpReplAppend — a primary streams a run of committed ops (epoch +
  //       contiguous sequence numbers) to one follower, which applies them
  //       to its shadow MemTable and acks by (epoch, seq);
  //   kOpReplQuery — failover election: ask a follower how caught-up its
  //       shadow log is; with the promote flag set, tell the winning
  //       follower to replay its shadow tail and take over the primary's
  //       hash slots;
  //   kOpReplRead — read-from-replica: serve a get from the follower's
  //       shadow MemTable (PAPYRUSKV_READ_REPLICAS=1), falling back to the
  //       owner on a shadow miss.
  kOpReplAppend = 4,
  kOpReplQuery = 5,
  kOpReplRead = 6,
};

// Highest opcode value — sizing bound for per-opcode metric arrays.
inline constexpr int kOpMax = kOpReplRead;

// First tag handed out by KvRuntime::AllocRespTag().
inline constexpr int kDynamicRespTagBase = 100;
static_assert(kOpMax < kDynamicRespTagBase,
              "opcode space must stay below the response-tag floor");

// One put/delete.  PutBatch and ReplAppend carry a list of them as
// [u32 count] count × ([lp key][lp value][u8 tomb]).
struct KvRecord {
  std::string key;
  std::string value;
  bool tombstone = false;
};

// ---- PutBatch --------------------------------------------------------------
// [hdr][u32 dbid][u32 resp_tag][u32 count]
//   count × ([lp key][lp value][u8 tomb])
std::string EncodePutBatch(uint32_t dbid, uint32_t resp_tag,
                           const std::vector<KvRecord>& records,
                           const obs::TraceContext& trace_ctx = {});
bool DecodePutBatch(const Slice& payload, uint32_t* dbid, uint32_t* resp_tag,
                    std::vector<KvRecord>* records,
                    obs::TraceContext* trace_ctx = nullptr);

// ---- PutBatchAck -----------------------------------------------------------
// [hdr][u32 count] count × [i32 status]
//
// One PAPYRUSKV_* code per op, in submission order: a partially failed
// batch surfaces exactly which ops failed (the batch as a whole is still
// acked — retry/timeout semantics are per batch, per-op errors per op).
std::string EncodePutBatchAck(const std::vector<int32_t>& statuses,
                              const obs::TraceContext& trace_ctx = {});
bool DecodePutBatchAck(const Slice& payload, std::vector<int32_t>* statuses,
                       obs::TraceContext* trace_ctx = nullptr);

// ---- GetMulti --------------------------------------------------------------
// [hdr][u32 dbid][u32 resp_tag][u32 caller_group][u32 count]
//   count × ([lp key][u8 flags])
//
// flags bit 0 (kGetFullSearch): search the owner's SSTables even when the
// caller is in the owner's storage group — used by the caller's fallback
// re-query after a failed shared read (§2.7).
inline constexpr uint8_t kGetFullSearch = 0x01;
struct GetMultiOp {
  std::string key;
  bool full_search = false;
};
std::string EncodeGetMulti(uint32_t dbid, uint32_t resp_tag,
                           uint32_t caller_group,
                           const std::vector<GetMultiOp>& ops,
                           const obs::TraceContext& trace_ctx = {});
bool DecodeGetMulti(const Slice& payload, uint32_t* dbid, uint32_t* resp_tag,
                    uint32_t* caller_group, std::vector<GetMultiOp>* ops,
                    obs::TraceContext* trace_ctx = nullptr);

// One key's get result.  `ssids` is the owner's exact live SSTable list
// (newest first) at response time, filled on a same-group memory miss.
// The caller searches only these tables on the shared NVM: a stale reader
// cached from before an owner compaction can never be consulted, so purged
// tombstones cannot resurrect.  Encoded inside GetMultiResp as the body
// u8 found, u8 tombstone, u8 same_group, u64 latest_ssid, u32 nssids,
// nssids × u64, lp value.
struct GetResp {
  bool found = false;
  bool tombstone = false;
  bool same_group = false;
  uint64_t latest_ssid = 0;
  std::vector<uint64_t> ssids;
  std::string value;
};

// ---- GetMultiResp ----------------------------------------------------------
// [hdr][u32 count] count × ([i32 status][lp GetResp body])
struct GetMultiResult {
  int32_t status = PAPYRUSKV_SUCCESS;
  GetResp resp;
};
std::string EncodeGetMultiResp(const std::vector<GetMultiResult>& results,
                               const obs::TraceContext& trace_ctx = {});
bool DecodeGetMultiResp(const Slice& payload,
                        std::vector<GetMultiResult>* results,
                        obs::TraceContext* trace_ctx = nullptr);

// ---- ReplAppend ------------------------------------------------------------
// [hdr][u32 dbid][u32 resp_tag][u32 primary][u64 epoch]
// [u64 first_seq][u64 flushed_through][u8 reset][u32 count]
//   count × ([lp key][lp value][u8 tomb])
//
// A primary's replication stream to one follower: `count` committed ops with
// contiguous sequence numbers first_seq..first_seq+count-1 under `epoch`.
// `reset` marks the first frame of a (re)synchronization: the follower
// discards its shadow state for (dbid, primary), adopts the frame's epoch,
// and applies from first_seq.  `flushed_through` is the primary's flush
// watermark — everything at or below it is on shared NVM, so the follower
// may trim its shadow log to entries above it.
struct ReplAppendMeta {
  uint32_t primary = 0;
  uint64_t epoch = 0;
  uint64_t first_seq = 0;
  uint64_t flushed_through = 0;
  bool reset = false;
};
std::string EncodeReplAppend(uint32_t dbid, uint32_t resp_tag,
                             const ReplAppendMeta& meta,
                             const std::vector<KvRecord>& records,
                             const obs::TraceContext& trace_ctx = {});
bool DecodeReplAppend(const Slice& payload, uint32_t* dbid,
                      uint32_t* resp_tag, ReplAppendMeta* meta,
                      std::vector<KvRecord>* records,
                      obs::TraceContext* trace_ctx = nullptr);

// ---- ReplAppendAck ---------------------------------------------------------
// [hdr][u64 epoch][u64 acked_seq][u8 ok]
//
// ok=1: the follower has applied every op up to and including acked_seq
// under `epoch`.  ok=0 is a NACK — epoch mismatch or sequence gap; `epoch`
// then reports the follower's current epoch and acked_seq its applied
// high-water mark, and the primary must resynchronize with a reset frame
// under a bumped epoch.
std::string EncodeReplAppendAck(uint64_t epoch, uint64_t acked_seq, bool ok,
                                const obs::TraceContext& trace_ctx = {});
bool DecodeReplAppendAck(const Slice& payload, uint64_t* epoch,
                         uint64_t* acked_seq, bool* ok,
                         obs::TraceContext* trace_ctx = nullptr);

// ---- ReplQuery -------------------------------------------------------------
// [hdr][u32 dbid][u32 resp_tag][u32 primary][u8 promote]
//
// Failover election probe for `primary`'s partition.  promote=0 asks the
// follower to report its shadow progress; promote=1 tells the elected
// follower to replay its shadow log tail into its own store and start
// serving the dead primary's hash slots (idempotent).
std::string EncodeReplQuery(uint32_t dbid, uint32_t resp_tag,
                            uint32_t primary, bool promote,
                            const obs::TraceContext& trace_ctx = {});
bool DecodeReplQuery(const Slice& payload, uint32_t* dbid,
                     uint32_t* resp_tag, uint32_t* primary, bool* promote,
                     obs::TraceContext* trace_ctx = nullptr);

// ---- ReplQueryResp ---------------------------------------------------------
// [hdr][u64 epoch][u64 last_seq][u8 in_sync]
//
// The follower's shadow progress for the queried primary: highest applied
// (epoch, seq) and whether it believes its shadow is a gap-free copy of the
// primary's stream (it has never NACKed without a later reset).
std::string EncodeReplQueryResp(uint64_t epoch, uint64_t last_seq,
                                bool in_sync,
                                const obs::TraceContext& trace_ctx = {});
bool DecodeReplQueryResp(const Slice& payload, uint64_t* epoch,
                         uint64_t* last_seq, bool* in_sync,
                         obs::TraceContext* trace_ctx = nullptr);

// ---- ReplRead --------------------------------------------------------------
// [hdr][u32 dbid][u32 resp_tag][u32 primary][lp key]
//
// Read-from-replica: look `key` up in the follower's shadow MemTable for
// `primary`'s partition.  A shadow miss is not NOT_FOUND — the shadow only
// covers the stream since the last reset — so the response distinguishes
// "not served here" (ok=0, caller falls back to the owner) from an
// authoritative hit (ok=1, found/tombstone as usual).
std::string EncodeReplRead(uint32_t dbid, uint32_t resp_tag,
                           uint32_t primary, const Slice& key,
                           const obs::TraceContext& trace_ctx = {});
bool DecodeReplRead(const Slice& payload, uint32_t* dbid, uint32_t* resp_tag,
                    uint32_t* primary, std::string* key,
                    obs::TraceContext* trace_ctx = nullptr);

// ---- ReplReadResp ----------------------------------------------------------
// [hdr][u8 ok][u8 found][u8 tombstone][lp value]
std::string EncodeReplReadResp(bool ok, bool found, bool tombstone,
                               const Slice& value,
                               const obs::TraceContext& trace_ctx = {});
bool DecodeReplReadResp(const Slice& payload, bool* ok, bool* found,
                        bool* tombstone, std::string* value,
                        obs::TraceContext* trace_ctx = nullptr);

}  // namespace papyrus::core
