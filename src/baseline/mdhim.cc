#include "baseline/mdhim.h"

#include "common/coding.h"
#include "common/hash.h"
#include "core/layout.h"
#include "sim/storage.h"

namespace papyrus::baseline {

namespace {

enum MdhimOp : int {
  kMdhimPut = 1,
  kMdhimDelete = 2,
  kMdhimGet = 3,
  kMdhimShutdown = 4,
};

constexpr int kMdhimReplyTag = 1;

// Request: [lp key][lp value]; response: [u8 ok][lp value].
std::string EncodeReq(const Slice& key, const Slice& value) {
  std::string out;
  PutLengthPrefixed(&out, key);
  PutLengthPrefixed(&out, value);
  return out;
}

bool DecodeReq(const Slice& payload, std::string* key, std::string* value) {
  Slice in = payload;
  Slice k, v;
  if (!GetLengthPrefixed(&in, &k) || !GetLengthPrefixed(&in, &v)) {
    return false;
  }
  // The unmarshal copy: the range server owns fresh allocations — layer
  // boundary cost the paper describes.
  *key = k.ToString();
  *value = v.ToString();
  return in.empty();
}

std::string EncodeResp(bool ok, const Slice& value) {
  std::string out;
  out.push_back(ok ? 1 : 0);
  PutLengthPrefixed(&out, value);
  return out;
}

bool DecodeResp(const Slice& payload, bool* ok, std::string* value) {
  Slice in = payload;
  if (in.empty()) return false;
  *ok = in[0] != 0;
  in.remove_prefix(1);
  Slice v;
  if (!GetLengthPrefixed(&in, &v)) return false;
  *value = v.ToString();
  return in.empty();
}

}  // namespace

Mdhim::Mdhim(net::RankContext& ctx)
    : ctx_(ctx), req_comm_(ctx.comm.Dup()), resp_comm_(ctx.comm.Dup()) {}

Status Mdhim::Open(net::RankContext& ctx, const std::string& dir_spec,
                   const MdhimOptions& opt, std::unique_ptr<Mdhim>* out) {
  sim::DeviceClass cls;
  std::string root;
  core::ParseRepositorySpec(dir_spec, &cls, &root);
  sim::DeviceRegistry::Instance().GetOrCreate(root, cls);

  std::unique_ptr<Mdhim> db(new Mdhim(ctx));
  const std::string dir = root + "/mdhim/rank" + std::to_string(ctx.rank);
  Status s = sim::Storage::CreateDirs(dir);
  if (!s.ok()) return s;
  s = MiniDb::Open(dir, opt.store, &db->store_);
  if (!s.ok()) return s;
  db->server_ = std::thread([raw = db.get()] { raw->RangeServerLoop(); });
  ctx.comm.Barrier();  // all range servers up before anyone operates
  *out = std::move(db);
  return Status::OK();
}

Mdhim::~Mdhim() {
  // Best-effort: a destructor cannot surface the close status.
  if (!closed_) Close().IgnoreError();
}

int Mdhim::OwnerOf(const Slice& key) const {
  return static_cast<int>(Fnv1a64(key) %
                          static_cast<uint64_t>(ctx_.size()));
}

void Mdhim::RangeServerLoop() {
  for (;;) {
    // Baseline model, not production: the server loop ends via a
    // self-addressed shutdown message, so this receive cannot orphan.
    // analyze:allow-proto-deadlock: baseline runs with no fault injection;
    // shutdown arrives as a loopback message that cannot be lost
    net::Message m = req_comm_.Recv(net::kAnySource, net::kAnyTag);
    if (m.tag == kMdhimShutdown) return;
    std::string key, value;
    if (!DecodeReq(m.payload, &key, &value)) continue;
    switch (m.tag) {
      case kMdhimPut: {
        const Status s = store_->Put(key, value);
        resp_comm_.Send(m.src, kMdhimReplyTag, EncodeResp(s.ok(), Slice()));
        break;
      }
      case kMdhimDelete: {
        const Status s = store_->Delete(key);
        resp_comm_.Send(m.src, kMdhimReplyTag, EncodeResp(s.ok(), Slice()));
        break;
      }
      case kMdhimGet: {
        std::string result;
        const Status s = store_->Get(key, &result);
        resp_comm_.Send(m.src, kMdhimReplyTag, EncodeResp(s.ok(), result));
        break;
      }
      default:
        break;
    }
  }
}

Status Mdhim::RoundTrip(int owner, int op, const Slice& key,
                        const Slice& value, std::string* result) {
  // Marshal into the comm layer's buffer even for self-addressed requests —
  // the layered design always pays this copy.
  req_comm_.Send(owner, op, EncodeReq(key, value));
  // Baseline model: mdhim's reference semantics are a blocking RPC; its
  // server thread lives for the whole run, so the reply always arrives.
  // analyze:allow-proto-deadlock: baseline runs with no fault injection
  // and the server thread outlives every client request
  net::Message resp = resp_comm_.Recv(owner, kMdhimReplyTag);
  bool ok = false;
  std::string payload;
  if (!DecodeResp(resp.payload, &ok, &payload)) {
    return Status::Corrupted("mdhim: bad response");
  }
  if (result) *result = std::move(payload);
  return ok ? Status::OK() : Status::NotFound();
}

Status Mdhim::Put(const Slice& key, const Slice& value) {
  if (key.empty()) return Status::InvalidArg("empty key");
  return RoundTrip(OwnerOf(key), kMdhimPut, key, value, nullptr);
}

Status Mdhim::Delete(const Slice& key) {
  if (key.empty()) return Status::InvalidArg("empty key");
  return RoundTrip(OwnerOf(key), kMdhimDelete, key, Slice(), nullptr);
}

Status Mdhim::Get(const Slice& key, std::string* value) {
  if (key.empty()) return Status::InvalidArg("empty key");
  return RoundTrip(OwnerOf(key), kMdhimGet, key, Slice(), value);
}

Status Mdhim::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  ctx_.comm.Barrier();  // no in-flight requests anywhere
  req_comm_.Send(ctx_.rank, kMdhimShutdown, Slice());
  server_.join();
  Status s = store_->Flush();
  ctx_.comm.Barrier();
  return s;
}

}  // namespace papyrus::baseline
