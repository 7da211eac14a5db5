// Fixture: must stay clean — symmetric Encode/Decode pair with the
// decoded count capped through ReserveBound before pre-allocation.
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fixture {

struct Slice {
  bool empty() const;
  void remove_prefix(size_t n);
};

void PutFixed32(std::string* out, uint32_t v);
void PutFixed64(std::string* out, uint64_t v);
void PutLengthPrefixed(std::string* out, const std::string& s);
bool GetFixed32(Slice* in, uint32_t* v);
bool GetFixed64(Slice* in, uint64_t* v);
bool GetLengthPrefixed(Slice* in, std::string* s);
size_t ReserveBound(uint64_t count, const Slice& in, size_t per);

struct Req {
  uint32_t dbid;
  std::string key;
  std::vector<uint64_t> ids;
};

void EncodeReq(const Req& r, std::string* outp) {
  std::string out;
  PutFixed32(&out, r.dbid);
  PutLengthPrefixed(&out, r.key);
  PutFixed32(&out, static_cast<uint32_t>(r.ids.size()));
  for (uint64_t id : r.ids) PutFixed64(&out, id);
  outp->assign(out);
}

bool DecodeReq(Slice in, Req* r) {
  uint32_t n = 0;
  if (!GetFixed32(&in, &r->dbid)) return false;
  if (!GetLengthPrefixed(&in, &r->key)) return false;
  if (!GetFixed32(&in, &n)) return false;
  r->ids.reserve(ReserveBound(n, in, 8));
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t v = 0;
    if (!GetFixed64(&in, &v)) return false;
    r->ids.push_back(v);
  }
  return true;
}

// The frame-header and record-list helpers each count as one field.
void PutHeader(std::string* out);
bool GetHeader(Slice* in);
void PutRecords(std::string* out, const std::vector<Req>& records);
bool GetRecords(Slice* in, std::vector<Req>* records);

void EncodeBatch(const std::vector<Req>& records, std::string* outp) {
  std::string out;
  PutHeader(&out);
  PutRecords(&out, records);
  outp->assign(out);
}

bool DecodeBatch(Slice in, std::vector<Req>* records) {
  return GetHeader(&in) && GetRecords(&in, records);
}

// analyze:allow-codec-symmetry: the trailing byte is padding the decoder
// skips by frame length, not a field
void EncodePadded(uint32_t v, std::string* outp) {
  std::string out;
  PutFixed32(&out, v);
  out.push_back(0);
  outp->assign(out);
}

bool DecodePadded(Slice in, uint32_t* v) { return GetFixed32(&in, v); }

}  // namespace fixture
