// Fixture: must stay clean — every would-be protocol finding carries an
// analyze:allow-<rule> escape with its why.  A regression that stops
// honoring the protocol escapes turns this file red.
#include <string>

namespace fixture {

enum WireOp : int {
  kOpApply = 1,
  // analyze:allow-proto-handler: reserved for the next wire version;
  // mixed-version peers may already name it
  kOpReserved = 2,
};

inline constexpr int kOpMax = kOpReserved;

inline constexpr int kDynamicRespTagBase = 100;

struct Slice {};
struct Message {
  int tag = 0;
  Slice payload;
};

class Comm {
 public:
  void Send(int dst, int tag, const Slice& payload);
  Message Recv(int src, int tag);
  bool RecvFor(int src, int tag, long timeout_us, Message* out);
  void Barrier();
  void Allgather(const Slice& mine, Slice* all);
};

// [u32 dbid][u32 resp_tag][lp record]
std::string EncodeApply(int dbid, int resp_tag, const Slice& rec);
bool DecodeApply(const Slice& in, int* dbid, int* resp_tag);

class Node {
 public:
  void Apply(int dst) {
    int tag = AllocRespTag();
    req_comm_.Send(dst, kOpApply, Encoded(EncodeApply(0, tag, Slice())));
    Message ack;
    resp_comm_.RecvFor(dst, tag, 1000, &ack);
  }

  void Probe(int dst) {
    // analyze:allow-proto-resp-tag: a probe is never awaited, so its
    // constant tag cannot alias a reply
    req_comm_.Send(dst, kOpApply, Encoded(EncodeApply(0, 0, Slice())));
  }

  void HandlerLoop() {
    Message m;
    while (req_comm_.RecvFor(-1, -1, 1000, &m)) {
      switch (m.tag) {
        case kOpApply:
          HandleApply(m);
          break;
        // analyze:allow-proto-handler: serviced for mixed-version peers
        // only; new code never sends it
        case kOpReserved:
          break;
        default:
          break;
      }
    }
  }

  Message DrainLoopback(int tag) {
    // The message is self-addressed on the loopback path (never dropped),
    // so the wait is bounded by construction.
    // analyze:allow-proto-deadlock: loopback-only — the send above cannot
    // be lost, so this recv always completes
    return resp_comm_.Recv(0, tag);
  }

  void SurvivorSync(int rank) {
    Slice mine, all;
    // A crashed rank's survivors run the same collective sequence as the
    // main path; the branch only changes the payload they contribute.
    // analyze:allow-proto-deadlock: both sides pair Barrier+Allgather in
    // the same order; the branch differs only in payload staging
    if (rank == 0) {
      comm_.Barrier();
      comm_.Allgather(mine, &all);
      comm_.Barrier();
    } else {
      comm_.Barrier();
      comm_.Allgather(mine, &all);
    }
  }

 private:
  void HandleApply(const Message& m) {
    int dbid = 0, resp_tag = 0;
    DecodeApply(m.payload, &dbid, &resp_tag);
    resp_comm_.Send(m.tag, resp_tag, Slice());
  }
  int AllocRespTag();
  Slice Encoded(const std::string& s);

  Comm req_comm_;
  Comm resp_comm_;
  Comm comm_;
};

}  // namespace fixture
