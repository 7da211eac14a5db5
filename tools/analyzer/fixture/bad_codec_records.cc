// Fixture: trips codec-symmetry — the encoder writes the shared record
// list after the header, but its decoder skips it, so the two sides only
// look symmetric if the helpers drop out of the field sequence.
#include <cstdint>
#include <string>
#include <vector>

namespace fixture {

struct Slice {};
struct KvRecord {
  std::string key;
  std::string value;
  bool tombstone = false;
};

void PutHeader(std::string* out);
bool GetHeader(Slice* in);
void PutRecords(std::string* out, const std::vector<KvRecord>& records);
bool GetRecords(Slice* in, std::vector<KvRecord>* records);
void PutFixed32(std::string* out, uint32_t v);
bool GetFixed32(Slice* in, uint32_t* v);

std::string EncodeBatch(uint32_t dbid, const std::vector<KvRecord>& records) {
  std::string out;
  PutHeader(&out);
  PutFixed32(&out, dbid);
  PutRecords(&out, records);
  return out;
}

bool DecodeBatch(Slice in, uint32_t* dbid) {
  // BAD: the record list the encoder wrote is never consumed.
  return GetHeader(&in) && GetFixed32(&in, dbid);
}

}  // namespace fixture
