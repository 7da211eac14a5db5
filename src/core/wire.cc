#include "core/wire.h"

namespace papyrus::core {

namespace {
constexpr uint8_t kTraceFlagSampled = 0x01;

// reserve() bound for a decoded count field: the count is untrusted wire
// data, so cap the pre-allocation by what the remaining payload could
// possibly hold (`per` = minimum encoded bytes per element).  A lying count
// then fails in the element loop instead of throwing bad_alloc up front.
size_t ReserveBound(uint32_t count, const Slice& in, size_t per) {
  const size_t plausible = in.size() / per + 1;
  return count < plausible ? count : plausible;
}

// The frame header (wire.h): [u8 ver][u8 flags] + trace ids when sampled.
void PutHeader(std::string* out, const obs::TraceContext& ctx) {
  out->push_back(static_cast<char>(kBatchVersion));
  out->push_back(static_cast<char>(ctx.valid() ? kTraceFlagSampled : 0));
  if (!ctx.valid()) return;
  PutFixed64(out, ctx.trace_id);
  PutFixed64(out, ctx.span_id);
}

// Consumes the frame header; false on an unknown version or a truncated
// header.  *ctx (when non-null) is left invalid for a frame without one.
bool GetHeader(Slice* in, obs::TraceContext* ctx) {
  if (ctx) *ctx = obs::TraceContext();
  if (in->size() < 2 || static_cast<uint8_t>((*in)[0]) != kBatchVersion) {
    return false;
  }
  const bool sampled = ((*in)[1] & kTraceFlagSampled) != 0;
  in->remove_prefix(2);
  if (!sampled) return true;
  obs::TraceContext decoded;
  if (!GetFixed64(in, &decoded.trace_id) ||
      !GetFixed64(in, &decoded.span_id)) {
    return false;
  }
  decoded.sampled = true;
  if (ctx) *ctx = decoded;
  return true;
}

// [u32 count] count × ([lp key][lp value][u8 tomb])
void PutRecords(std::string* out, const std::vector<KvRecord>& records) {
  PutFixed32(out, static_cast<uint32_t>(records.size()));
  for (const KvRecord& r : records) {
    PutLengthPrefixed(out, r.key);
    PutLengthPrefixed(out, r.value);
    out->push_back(r.tombstone ? 1 : 0);
  }
}

bool GetRecords(Slice* in, std::vector<KvRecord>* records) {
  uint32_t count = 0;
  if (!GetFixed32(in, &count)) return false;
  records->clear();
  records->reserve(ReserveBound(count, *in, 3));
  for (uint32_t i = 0; i < count; ++i) {
    Slice key, value;
    if (!GetLengthPrefixed(in, &key) || !GetLengthPrefixed(in, &value) ||
        in->empty()) {
      return false;
    }
    KvRecord r;
    r.key = key.ToString();
    r.value = value.ToString();
    r.tombstone = (*in)[0] != 0;
    in->remove_prefix(1);
    records->push_back(std::move(r));
  }
  return true;
}

// The per-key GetResp body carried inside GetMultiResp (wire.h).
std::string EncodeGetResp(const GetResp& r) {
  std::string out;
  out.push_back(r.found ? 1 : 0);
  out.push_back(r.tombstone ? 1 : 0);
  out.push_back(r.same_group ? 1 : 0);
  PutFixed64(&out, r.latest_ssid);
  PutFixed32(&out, static_cast<uint32_t>(r.ssids.size()));
  for (uint64_t ssid : r.ssids) PutFixed64(&out, ssid);
  PutLengthPrefixed(&out, r.value);
  return out;
}

bool DecodeGetResp(const Slice& payload, GetResp* r) {
  Slice in = payload;
  if (in.size() < 3) return false;
  r->found = in[0] != 0;
  r->tombstone = in[1] != 0;
  r->same_group = in[2] != 0;
  in.remove_prefix(3);
  uint32_t nssids = 0;
  if (!GetFixed64(&in, &r->latest_ssid) || !GetFixed32(&in, &nssids)) {
    return false;
  }
  r->ssids.reserve(ReserveBound(nssids, in, 8));
  for (uint32_t i = 0; i < nssids; ++i) {
    uint64_t ssid = 0;
    if (!GetFixed64(&in, &ssid)) return false;
    r->ssids.push_back(ssid);
  }
  Slice value;
  if (!GetLengthPrefixed(&in, &value)) return false;
  r->value = value.ToString();
  return in.empty();
}
}  // namespace

std::string EncodePutBatch(uint32_t dbid, uint32_t resp_tag,
                           const std::vector<KvRecord>& records,
                           const obs::TraceContext& trace_ctx) {
  std::string out;
  PutHeader(&out, trace_ctx);
  PutFixed32(&out, dbid);
  PutFixed32(&out, resp_tag);
  PutRecords(&out, records);
  return out;
}

bool DecodePutBatch(const Slice& payload, uint32_t* dbid, uint32_t* resp_tag,
                    std::vector<KvRecord>* records,
                    obs::TraceContext* trace_ctx) {
  Slice in = payload;
  if (!GetHeader(&in, trace_ctx)) return false;
  if (!GetFixed32(&in, dbid) || !GetFixed32(&in, resp_tag) ||
      !GetRecords(&in, records)) {
    return false;
  }
  return in.empty();
}

std::string EncodePutBatchAck(const std::vector<int32_t>& statuses,
                              const obs::TraceContext& trace_ctx) {
  std::string out;
  PutHeader(&out, trace_ctx);
  PutFixed32(&out, static_cast<uint32_t>(statuses.size()));
  for (int32_t s : statuses) PutFixed32(&out, static_cast<uint32_t>(s));
  return out;
}

bool DecodePutBatchAck(const Slice& payload, std::vector<int32_t>* statuses,
                       obs::TraceContext* trace_ctx) {
  Slice in = payload;
  if (!GetHeader(&in, trace_ctx)) return false;
  uint32_t count = 0;
  if (!GetFixed32(&in, &count)) return false;
  statuses->clear();
  statuses->reserve(ReserveBound(count, in, 4));
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t s = 0;
    if (!GetFixed32(&in, &s)) return false;
    statuses->push_back(static_cast<int32_t>(s));
  }
  return in.empty();
}

std::string EncodeGetMulti(uint32_t dbid, uint32_t resp_tag,
                           uint32_t caller_group,
                           const std::vector<GetMultiOp>& ops,
                           const obs::TraceContext& trace_ctx) {
  std::string out;
  PutHeader(&out, trace_ctx);
  PutFixed32(&out, dbid);
  PutFixed32(&out, resp_tag);
  PutFixed32(&out, caller_group);
  PutFixed32(&out, static_cast<uint32_t>(ops.size()));
  for (const GetMultiOp& op : ops) {
    PutLengthPrefixed(&out, op.key);
    out.push_back(op.full_search ? static_cast<char>(kGetFullSearch) : 0);
  }
  return out;
}

bool DecodeGetMulti(const Slice& payload, uint32_t* dbid, uint32_t* resp_tag,
                    uint32_t* caller_group, std::vector<GetMultiOp>* ops,
                    obs::TraceContext* trace_ctx) {
  Slice in = payload;
  if (!GetHeader(&in, trace_ctx)) return false;
  uint32_t count = 0;
  if (!GetFixed32(&in, dbid) || !GetFixed32(&in, resp_tag) ||
      !GetFixed32(&in, caller_group) || !GetFixed32(&in, &count)) {
    return false;
  }
  ops->clear();
  ops->reserve(ReserveBound(count, in, 2));
  for (uint32_t i = 0; i < count; ++i) {
    Slice key;
    if (!GetLengthPrefixed(&in, &key) || in.empty()) return false;
    GetMultiOp op;
    op.key = key.ToString();
    op.full_search = (in[0] & kGetFullSearch) != 0;
    in.remove_prefix(1);
    ops->push_back(std::move(op));
  }
  return in.empty();
}

std::string EncodeGetMultiResp(const std::vector<GetMultiResult>& results,
                               const obs::TraceContext& trace_ctx) {
  std::string out;
  PutHeader(&out, trace_ctx);
  PutFixed32(&out, static_cast<uint32_t>(results.size()));
  for (const GetMultiResult& r : results) {
    PutFixed32(&out, static_cast<uint32_t>(r.status));
    PutLengthPrefixed(&out, EncodeGetResp(r.resp));
  }
  return out;
}

bool DecodeGetMultiResp(const Slice& payload,
                        std::vector<GetMultiResult>* results,
                        obs::TraceContext* trace_ctx) {
  Slice in = payload;
  if (!GetHeader(&in, trace_ctx)) return false;
  uint32_t count = 0;
  if (!GetFixed32(&in, &count)) return false;
  results->clear();
  results->reserve(ReserveBound(count, in, 5));
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t status = 0;
    Slice body;
    if (!GetFixed32(&in, &status) || !GetLengthPrefixed(&in, &body)) {
      return false;
    }
    GetMultiResult r;
    r.status = static_cast<int32_t>(status);
    if (!DecodeGetResp(body, &r.resp)) return false;
    results->push_back(std::move(r));
  }
  return in.empty();
}

std::string EncodeReplAppend(uint32_t dbid, uint32_t resp_tag,
                             const ReplAppendMeta& meta,
                             const std::vector<KvRecord>& records,
                             const obs::TraceContext& trace_ctx) {
  std::string out;
  PutHeader(&out, trace_ctx);
  PutFixed32(&out, dbid);
  PutFixed32(&out, resp_tag);
  PutFixed32(&out, meta.primary);
  PutFixed64(&out, meta.epoch);
  PutFixed64(&out, meta.first_seq);
  PutFixed64(&out, meta.flushed_through);
  out.push_back(meta.reset ? 1 : 0);
  PutRecords(&out, records);
  return out;
}

bool DecodeReplAppend(const Slice& payload, uint32_t* dbid,
                      uint32_t* resp_tag, ReplAppendMeta* meta,
                      std::vector<KvRecord>* records,
                      obs::TraceContext* trace_ctx) {
  Slice in = payload;
  if (!GetHeader(&in, trace_ctx)) return false;
  if (!GetFixed32(&in, dbid) || !GetFixed32(&in, resp_tag) ||
      !GetFixed32(&in, &meta->primary) || !GetFixed64(&in, &meta->epoch) ||
      !GetFixed64(&in, &meta->first_seq) ||
      !GetFixed64(&in, &meta->flushed_through) || in.empty()) {
    return false;
  }
  meta->reset = in[0] != 0;
  in.remove_prefix(1);
  return GetRecords(&in, records) && in.empty();
}

std::string EncodeReplAppendAck(uint64_t epoch, uint64_t acked_seq, bool ok,
                                const obs::TraceContext& trace_ctx) {
  std::string out;
  PutHeader(&out, trace_ctx);
  PutFixed64(&out, epoch);
  PutFixed64(&out, acked_seq);
  out.push_back(ok ? 1 : 0);
  return out;
}

bool DecodeReplAppendAck(const Slice& payload, uint64_t* epoch,
                         uint64_t* acked_seq, bool* ok,
                         obs::TraceContext* trace_ctx) {
  Slice in = payload;
  if (!GetHeader(&in, trace_ctx)) return false;
  if (!GetFixed64(&in, epoch) || !GetFixed64(&in, acked_seq) || in.empty()) {
    return false;
  }
  *ok = in[0] != 0;
  in.remove_prefix(1);
  return in.empty();
}

std::string EncodeReplQuery(uint32_t dbid, uint32_t resp_tag,
                            uint32_t primary, bool promote,
                            const obs::TraceContext& trace_ctx) {
  std::string out;
  PutHeader(&out, trace_ctx);
  PutFixed32(&out, dbid);
  PutFixed32(&out, resp_tag);
  PutFixed32(&out, primary);
  out.push_back(promote ? 1 : 0);
  return out;
}

bool DecodeReplQuery(const Slice& payload, uint32_t* dbid,
                     uint32_t* resp_tag, uint32_t* primary, bool* promote,
                     obs::TraceContext* trace_ctx) {
  Slice in = payload;
  if (!GetHeader(&in, trace_ctx)) return false;
  if (!GetFixed32(&in, dbid) || !GetFixed32(&in, resp_tag) ||
      !GetFixed32(&in, primary) || in.empty()) {
    return false;
  }
  *promote = in[0] != 0;
  in.remove_prefix(1);
  return in.empty();
}

std::string EncodeReplQueryResp(uint64_t epoch, uint64_t last_seq,
                                bool in_sync,
                                const obs::TraceContext& trace_ctx) {
  std::string out;
  PutHeader(&out, trace_ctx);
  PutFixed64(&out, epoch);
  PutFixed64(&out, last_seq);
  out.push_back(in_sync ? 1 : 0);
  return out;
}

bool DecodeReplQueryResp(const Slice& payload, uint64_t* epoch,
                         uint64_t* last_seq, bool* in_sync,
                         obs::TraceContext* trace_ctx) {
  Slice in = payload;
  if (!GetHeader(&in, trace_ctx)) return false;
  if (!GetFixed64(&in, epoch) || !GetFixed64(&in, last_seq) || in.empty()) {
    return false;
  }
  *in_sync = in[0] != 0;
  in.remove_prefix(1);
  return in.empty();
}

std::string EncodeReplRead(uint32_t dbid, uint32_t resp_tag,
                           uint32_t primary, const Slice& key,
                           const obs::TraceContext& trace_ctx) {
  std::string out;
  PutHeader(&out, trace_ctx);
  PutFixed32(&out, dbid);
  PutFixed32(&out, resp_tag);
  PutFixed32(&out, primary);
  PutLengthPrefixed(&out, key);
  return out;
}

bool DecodeReplRead(const Slice& payload, uint32_t* dbid, uint32_t* resp_tag,
                    uint32_t* primary, std::string* key,
                    obs::TraceContext* trace_ctx) {
  Slice in = payload;
  Slice k;
  if (!GetHeader(&in, trace_ctx)) return false;
  if (!GetFixed32(&in, dbid) || !GetFixed32(&in, resp_tag) ||
      !GetFixed32(&in, primary) || !GetLengthPrefixed(&in, &k)) {
    return false;
  }
  *key = k.ToString();
  return in.empty();
}

std::string EncodeReplReadResp(bool ok, bool found, bool tombstone,
                               const Slice& value,
                               const obs::TraceContext& trace_ctx) {
  std::string out;
  PutHeader(&out, trace_ctx);
  out.push_back(ok ? 1 : 0);
  out.push_back(found ? 1 : 0);
  out.push_back(tombstone ? 1 : 0);
  PutLengthPrefixed(&out, value);
  return out;
}

bool DecodeReplReadResp(const Slice& payload, bool* ok, bool* found,
                        bool* tombstone, std::string* value,
                        obs::TraceContext* trace_ctx) {
  Slice in = payload;
  if (!GetHeader(&in, trace_ctx)) return false;
  if (in.size() < 3) return false;
  *ok = in[0] != 0;
  *found = in[1] != 0;
  *tombstone = in[2] != 0;
  in.remove_prefix(3);
  Slice v;
  if (!GetLengthPrefixed(&in, &v)) return false;
  *value = v.ToString();
  return in.empty();
}

}  // namespace papyrus::core
