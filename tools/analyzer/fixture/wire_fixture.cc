// Fixture for the wire-version rule: EncodeFrame is a versioned frame
// codec (it writes the frame header, which carries kBatchVersion).  The
// canned diffs bad_wire_version.diff / good_wire_version.diff edit it with
// and without touching the version byte.
#include <cstdint>
#include <string>

namespace fixture {

constexpr uint8_t kBatchVersion = 3;
void PutHeader(std::string* out);  // writes kBatchVersion first
void PutFixed32(std::string* out, uint32_t v);

void EncodeFrame(uint32_t dbid, std::string* out) {
  PutHeader(out);
  PutFixed32(out, dbid);
  PutFixed32(out, 0);
}

}  // namespace fixture
