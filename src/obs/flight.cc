#include "obs/flight.h"

#include <algorithm>
#include <cstdio>

#include "common/timer.h"
#include "obs/export.h"
#include "obs/trace.h"

namespace papyrus::obs {

namespace {
thread_local FlightRecorder* tls_flight = nullptr;
}  // namespace

const char* FlightKindName(FlightKind kind) {
  switch (kind) {
    case FlightKind::kOpBegin: return "op_begin";
    case FlightKind::kOpEnd: return "op_end";
    case FlightKind::kRetry: return "retry";
    case FlightKind::kTimeout: return "timeout";
    case FlightKind::kSuspect: return "suspect";
    case FlightKind::kFailpoint: return "failpoint";
    case FlightKind::kFlush: return "flush";
    case FlightKind::kCompaction: return "compaction";
    case FlightKind::kCrash: return "crash";
    case FlightKind::kQuarantine: return "quarantine";
    case FlightKind::kReplResync: return "repl_resync";
    case FlightKind::kDegraded: return "degraded";
    case FlightKind::kPromote: return "promote";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(std::max<size_t>(8, capacity)),
      slots_(new Slot[std::max<size_t>(8, capacity)]) {}

void FlightRecorder::Record(FlightKind kind, const char* what, int64_t a,
                            int64_t b, uint64_t trace_id) {
  if (trace_id == 0) trace_id = CurrentTraceContext().trace_id;
  const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& s = slots_[seq % capacity_];
  // Invalidate, publish payload, then re-publish seq: a reader that sees a
  // stable nonzero seq across its payload read got a consistent slot.
  s.seq.store(0, std::memory_order_release);
  s.ts_us.store(NowMicros(), std::memory_order_relaxed);
  s.kind.store(static_cast<uint8_t>(kind), std::memory_order_relaxed);
  s.what.store(what ? what : "", std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  s.trace_id.store(trace_id, std::memory_order_relaxed);
  s.seq.store(seq, std::memory_order_release);
}

void FlightRecorder::ConfigureDump(std::string path, int rank) {
  dump_path_ = std::move(path);
  rank_ = rank;
}

std::vector<FlightRecorder::Event> FlightRecorder::Snapshot() const {
  std::vector<Event> out;
  const uint64_t hi = next_.load(std::memory_order_acquire);
  const uint64_t lo = hi > capacity_ ? hi - capacity_ + 1 : 1;
  out.reserve(hi - lo + 1);
  for (uint64_t seq = lo; seq <= hi; ++seq) {
    const Slot& s = slots_[seq % capacity_];
    if (s.seq.load(std::memory_order_acquire) != seq) continue;
    Event ev;
    ev.seq = seq;
    ev.ts_us = s.ts_us.load(std::memory_order_relaxed);
    ev.kind = static_cast<FlightKind>(s.kind.load(std::memory_order_relaxed));
    const char* what = s.what.load(std::memory_order_relaxed);
    ev.what = what ? what : "";
    ev.a = s.a.load(std::memory_order_relaxed);
    ev.b = s.b.load(std::memory_order_relaxed);
    ev.trace_id = s.trace_id.load(std::memory_order_relaxed);
    // A writer may have lapped us mid-read; only keep stable slots.
    if (s.seq.load(std::memory_order_acquire) != seq) continue;
    out.push_back(ev);
  }
  return out;
}

Status FlightRecorder::TriggerDump(const char* reason) {
  if (dump_path_.empty()) return Status::OK();
  const std::vector<Event> events = Snapshot();

  std::string out;
  out.reserve(events.size() * 128 + 256);
  char buf[256];
  snprintf(buf, sizeof(buf),
           "{\"papyruskv\": \"flight-v1\", \"rank\": %d, \"reason\": \"%s\","
           "\n \"events\": [",
           rank_, reason ? reason : "");
  out += buf;
  bool first = true;
  for (const Event& ev : events) {
    if (!first) out += ",";
    first = false;
    snprintf(buf, sizeof(buf),
             "\n  {\"seq\": %llu, \"ts_us\": %llu, \"kind\": \"%s\", "
             "\"what\": \"%s\", \"a\": %lld, \"b\": %lld, "
             "\"trace\": \"0x%llx\"}",
             static_cast<unsigned long long>(ev.seq),
             static_cast<unsigned long long>(ev.ts_us),
             FlightKindName(ev.kind), ev.what, static_cast<long long>(ev.a),
             static_cast<long long>(ev.b),
             static_cast<unsigned long long>(ev.trace_id));
    out += buf;
  }
  out += "\n]}\n";

  MutexLock lock(&dump_mu_);
  ++dumps_;
  return WriteTextFile(dump_path_, out);
}

FlightRecorder* CurrentFlight() { return tls_flight; }
void SetCurrentFlight(FlightRecorder* f) { tls_flight = f; }

}  // namespace papyrus::obs
