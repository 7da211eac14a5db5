// Fixture: proto-resp-tag must trip — a request frame retried in a bounded
// loop carries a constant resp_tag instead of one from AllocRespTag(), so a
// late reply to the first attempt aliases the retry's reply.
#include <string>

namespace fixture {

enum WireOp : int {
  kOpStore = 1,
  kOpFetch = 2,
};

inline constexpr int kOpMax = kOpFetch;
inline constexpr int kDynamicRespTagBase = 100;
inline constexpr int kStoreAckTag = 7;

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

std::string EncodeStore(int dbid, int resp_tag);
bool DecodeStore(const Slice& in, int* dbid, int* resp_tag);

class Node {
 public:
  void StoreWithRetry(int dst) {
    Slice payload = Encoded(EncodeStore(0, kStoreAckTag));
    Message ack;
    bool acked = false;
    for (int attempt = 0; attempt < 3 && !acked; ++attempt) {
      req_comm_.Send(dst, kOpStore, payload);
      acked = resp_comm_.RecvFor(dst, kStoreAckTag, 1000, &ack);
    }
  }

  void HandlerLoop() {
    Message m;
    while (req_comm_.RecvFor(-1, -1, 1000, &m)) {
      switch (m.tag) {
        case kOpStore:
          HandleStore(m);
          break;
        case kOpFetch:
          HandleFetch(m);
          break;
        default:
          break;
      }
    }
  }

  void Fetch(int dst) { req_comm_.Send(dst, kOpFetch, Slice()); }

 private:
  void HandleStore(const Message& m) {
    int dbid = 0, resp_tag = 0;
    DecodeStore(m.payload, &dbid, &resp_tag);
  }
  void HandleFetch(const Message& m);
  Slice Encoded(const std::string& s);

  Comm req_comm_;
  Comm resp_comm_;
};

}  // namespace fixture
