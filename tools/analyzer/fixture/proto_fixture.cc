// Fixture: a coherent miniature wire protocol for the proto-spec-drift
// check.  With good_proto_spec.json (generated from this file via
// protocol_model.build_spec) every check is clean; with
// bad_proto_spec.json (a stale copy that still names a removed opcode)
// proto-spec-drift must trip.
#include <string>

namespace fixture {

enum WireOp : int {
  kOpWrite = 1,
  kOpRead = 2,
};

inline constexpr int kOpMax = kOpRead;

inline constexpr int kDynamicRespTagBase = 100;

struct Slice {};
struct Message {
  int tag = 0;
  Slice payload;
};

class Comm {
 public:
  void Send(int dst, int tag, const Slice& payload);
  bool RecvFor(int src, int tag, long timeout_us, Message* out);
};

// [u32 dbid][u32 resp_tag][lp key][lp value]
std::string EncodeWrite(int dbid, int resp_tag, const Slice& kv);
bool DecodeWrite(const Slice& in, int* dbid, int* resp_tag);

// [u32 dbid][u32 resp_tag][lp key]
std::string EncodeRead(int dbid, int resp_tag, const Slice& key);
bool DecodeRead(const Slice& in, int* dbid, int* resp_tag);

class Node {
 public:
  void Write(int dst) {
    int tag = AllocRespTag();
    Slice payload = Encoded(EncodeWrite(0, tag, Slice()));
    Message ack;
    bool acked = false;
    for (int attempt = 0; attempt < 3 && !acked; ++attempt) {
      req_comm_.Send(dst, kOpWrite, payload);
      acked = resp_comm_.RecvFor(dst, tag, 1000, &ack);
    }
  }

  void Read(int dst) {
    int tag = AllocRespTag();
    req_comm_.Send(dst, kOpRead, Encoded(EncodeRead(0, tag, Slice())));
    Message resp;
    resp_comm_.RecvFor(dst, tag, 1000, &resp);
  }

  void HandlerLoop() {
    Message m;
    while (req_comm_.RecvFor(-1, -1, 1000, &m)) {
      switch (m.tag) {
        case kOpWrite:
          HandleWrite(m);
          break;
        case kOpRead:
          HandleRead(m);
          break;
        default:
          break;
      }
    }
  }

 private:
  void HandleWrite(const Message& m) {
    int dbid = 0, resp_tag = 0;
    DecodeWrite(m.payload, &dbid, &resp_tag);
    resp_comm_.Send(m.tag, resp_tag, Slice());
  }
  void HandleRead(const Message& m) {
    int dbid = 0, resp_tag = 0;
    DecodeRead(m.payload, &dbid, &resp_tag);
    resp_comm_.Send(m.tag, resp_tag, Slice());
  }
  int AllocRespTag();
  Slice Encoded(const std::string& s);

  Comm req_comm_;
  Comm resp_comm_;
};

}  // namespace fixture
