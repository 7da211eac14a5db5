// Flight recorder: a per-rank lock-free ring of recent annotated events
// (the only lock-free ring in obs/), dumped automatically when a fault path
// fires so every timeout, quarantine or simulated crash ships its own
// diagnosis.
//
// Unlike the trace buffer (which needs PAPYRUSKV_OBS and records full
// spans), the flight recorder is always recording: each Record() is one
// atomic ticket claim plus a handful of relaxed stores, cheap enough for
// the RPC/retry/flush paths it annotates.  Nothing is written anywhere
// until TriggerDump() fires, which renders the surviving window as
// flight-v1 JSON:
//
//   { "papyruskv": "flight-v1", "rank": 2, "reason": "request timeout",
//     "events": [ { "seq": N, "ts_us": T, "kind": "retry",
//                   "what": "get_req", "a": 1, "b": 3, "trace": "0x..." },
//                 ... ] }
//
// `a`/`b` are per-kind integers (typically peer rank and opcode/attempt);
// `trace` links the event to the distributed trace when one was active.
// The dump destination is flight.rank<k>.json in the PAPYRUSKV_OBS
// directory, written through obs::WriteTextFile like the stats and trace
// dumps; with the switch unset TriggerDump is a no-op.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"

namespace papyrus::obs {

enum class FlightKind : uint8_t {
  kOpBegin = 0,    // RPC issued: what=op name, a=peer, b=attempt budget
  kOpEnd,          // RPC acked: what=op name, a=peer
  kRetry,          // RPC attempt re-sent: a=peer, b=attempt number
  kTimeout,        // RPC abandoned after all retries: a=peer, b=attempts
  kSuspect,        // peer marked suspect: a=peer
  kFailpoint,      // failpoint fired: what=point name
  kFlush,          // MemTable flush on the compaction thread: a=db id
  kCompaction,     // merge compaction ran: a=db id, b=tables merged away
  kCrash,          // simulated rank crash (volatile state dropped)
  kQuarantine,     // SSTable quarantined after unrepairable corruption: a=ssid
  kReplResync,     // replication stream resynchronized: a=follower, b=epoch
  kDegraded,       // replication below quorum, acks proceed: a=db id, b=live
  kPromote,        // follower promoted for a dead primary: a=primary, b=seq
};

const char* FlightKindName(FlightKind kind);

class FlightRecorder {
 public:
  struct Event {
    uint64_t seq = 0;
    uint64_t ts_us = 0;
    FlightKind kind = FlightKind::kOpBegin;
    const char* what = "";  // static string (op/point name)
    int64_t a = 0;
    int64_t b = 0;
    uint64_t trace_id = 0;  // active TraceContext, 0 when none
  };

  explicit FlightRecorder(size_t capacity = 1024);

  // Lock-free, wait-free: claims the next ring ticket and publishes the
  // payload.  `what` must be a static string (it is stored by pointer).
  // A reader racing a wrap may observe a torn slot; Snapshot() detects and
  // skips it — acceptable for a diagnostic ring, never for correctness.
  void Record(FlightKind kind, const char* what, int64_t a = 0, int64_t b = 0,
              uint64_t trace_id = 0);

  // Where TriggerDump writes; empty path disables dumping.
  void ConfigureDump(std::string path, int rank);
  const std::string& dump_path() const { return dump_path_; }

  // Surviving events, oldest first, torn slots skipped.
  std::vector<Event> Snapshot() const;

  // Renders the current window as flight-v1 JSON at the configured path.
  // Rare-path (mutex-serialized against concurrent triggers); no-op
  // without a configured destination.
  Status TriggerDump(const char* reason);

  uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    // seq 0 = never written.  The writer clears seq, stores the payload,
    // then publishes seq (release); the reader validates seq before/after
    // reading the payload.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> ts_us{0};
    std::atomic<uint8_t> kind{0};
    std::atomic<const char*> what{nullptr};
    std::atomic<int64_t> a{0};
    std::atomic<int64_t> b{0};
    std::atomic<uint64_t> trace_id{0};
  };

  const size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};

  // Dump-path state: set once at runtime construction, read by triggers.
  std::string dump_path_;
  int rank_ = 0;
  // Leaf lock: serializes rare TriggerDump calls only; never taken on the
  // Record path.
  Mutex dump_mu_{"flight_dump_mu"};
  uint64_t dumps_ GUARDED_BY(dump_mu_) = 0;
};

// The calling thread's flight recorder (installed per rank alongside the
// metrics registry); null outside a runtime.
FlightRecorder* CurrentFlight();
void SetCurrentFlight(FlightRecorder* f);

}  // namespace papyrus::obs
