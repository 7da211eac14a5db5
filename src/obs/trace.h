// Lightweight trace-event recording (Chrome trace_event JSON format) and
// the cross-rank causal-tracing layer on top of it.
//
// Each rank's runtime owns one fixed-capacity ring of complete ("ph":"X")
// events — flush, migration, compaction, checkpoint/restart, plus (when an
// operation context is active) per-operation request spans — cheap enough
// to leave compiled in and gated at runtime by PAPYRUSKV_OBS=<dir>.  When
// the ring wraps, the oldest events are overwritten and counted as dropped.
// Span names and categories are static strings, stored by pointer, so
// recording never allocates.
//
// Causal tracing: every public put/get/delete allocates a TraceContext
// (64-bit trace id + the id of the span currently on top of the calling
// thread).  The context rides the wire protocol (core/wire.h) so the
// owner-side handler records its service span as a *child* of the caller's
// RPC span, linked by Perfetto flow events ("ph":"s"/"f").  The per-rank
// files merge into one timeline with `papyrus_inspect --trace-merge`
// (timestamps are absolute NowMicros — one steady clock shared by all
// emulated ranks).
//
// The output loads directly into chrome://tracing / Perfetto: one process
// per rank, one named thread lane per recording thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/timer.h"

namespace papyrus::obs {

// The causal identity of one in-flight operation.  `span_id` names the
// span that is current on the owning thread; a child created under it (or a
// remote handler decoding it off the wire) records it as its parent.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool sampled = false;
  bool valid() const { return sampled && trace_id != 0; }
};

// The calling thread's active context (invalid when no OpSpan is open).
TraceContext CurrentTraceContext();

struct TraceEvent {
  const char* name = "";  // static string (span name: put, flush, ...)
  const char* cat = "";   // static string (category: store, net, kv)
  uint64_t ts_us = 0;    // span start, microseconds (absolute NowMicros)
  uint64_t dur_us = 0;
  uint64_t tid = 0;
  // Causal identity (0 = plain span outside any operation).
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  // Cross-rank flow link: kFlowOut on the caller's RPC span, kFlowIn on the
  // owner's handler span; both carry the caller span's id as flow_id.
  enum Flow : uint8_t { kFlowNone = 0, kFlowOut = 1, kFlowIn = 2 };
  uint8_t flow = kFlowNone;
  uint64_t flow_id = 0;
};

class TraceBuffer {
 public:
  explicit TraceBuffer(size_t capacity = 8192);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // Salts span/trace ids with the owning rank so ids allocated by different
  // ranks can never collide in a merged timeline.
  void SetRank(int rank) {
    rank_salt_.store((static_cast<uint64_t>(rank) + 1) << 48,
                     std::memory_order_relaxed);
  }
  // Process-unique id: rank salt | per-buffer counter.  Never returns 0.
  uint64_t NextSpanId() {
    return rank_salt_.load(std::memory_order_relaxed) |
           (id_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  }

  // Names the calling thread's lane in the exported trace ("app",
  // "handler", "async", ...).  Idempotent; cheap enough to call from
  // every thread adoption.
  void SetThreadName(const char* name);

  // Root-span sampling for the local fast path: a *root* OpSpan in the
  // "kv" category (a put/get/delete that is not already inside a trace) is
  // recorded once every `n` per thread.  Everything with a parent — and
  // every root in the net/store categories, i.e. every RPC, handler,
  // flush and compaction — is always recorded, so remote operations keep
  // their full causal chain while micro-second local hits don't pay a
  // ~0.3us recording tax 8192-ring slots' worth of times per wrap.
  // n <= 1 records everything; the runtime fixes n = 64 (E12b).
  void SetKvSampleEvery(uint32_t n) {
    kv_sample_every_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  }
  uint32_t kv_sample_every() const {
    return kv_sample_every_.load(std::memory_order_relaxed);
  }

  // Records a complete span.  No-op while disabled.  Overwrites the oldest
  // event when full.  Only src/obs/ may call this directly (analyzer rule
  // trace-add): everything else goes through TraceSpan / OpSpan so spans
  // carry contexts consistently.
  void Add(const char* name, const char* cat, uint64_t ts_us,
           uint64_t dur_us);
  // Full-fidelity variant used by OpSpan (tid is filled in here).
  void AddEvent(TraceEvent ev);

  size_t size() const;
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  // Events in recording order (oldest first).
  std::vector<TraceEvent> Events() const;

  // Writes {"traceEvents": [...]} with pid = rank: thread-name metadata
  // ("ph":"M"), the dropped-event count as a counter ("ph":"C"), every
  // recorded span ("ph":"X", absolute timestamps, trace/span/parent ids in
  // args), and flow start/finish events ("ph":"s"/"f") for cross-rank
  // links.
  Status WriteChromeTrace(const std::string& path, int rank) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> rank_salt_{0};
  std::atomic<uint64_t> id_seq_{0};
  std::atomic<uint32_t> kv_sample_every_{1};
  // Leaf lock: guards the ring and the thread-name registry; capacity_ is
  // set once in the constructor and read-only afterwards.
  mutable Mutex mu_{"trace_mu"};
  size_t capacity_;
  size_t next_ GUARDED_BY(mu_) = 0;  // ring write cursor
  bool wrapped_ GUARDED_BY(mu_) = false;
  std::vector<TraceEvent> ring_ GUARDED_BY(mu_);
  std::map<uint64_t, std::string> thread_names_ GUARDED_BY(mu_);
};

// The calling thread's trace buffer (installed per rank alongside the
// metrics registry); null when tracing is not set up.
TraceBuffer* CurrentTrace();
void SetCurrentTrace(TraceBuffer* t);

// RAII span: records [construction, destruction) into the buffer if the
// buffer exists and is enabled at construction time.  Plain span — no
// context allocation; use OpSpan for anything that is part of an
// operation's causal chain.
class TraceSpan {
 public:
  TraceSpan(TraceBuffer* buf, const char* cat, const char* name)
      : buf_(buf && buf->enabled() ? buf : nullptr), name_(name), cat_(cat) {
    if (buf_) start_ = NowMicros();
  }
  TraceSpan(const char* cat, const char* name)
      : TraceSpan(CurrentTrace(), cat, name) {}
  ~TraceSpan() {
    if (buf_) buf_->Add(name_, cat_, start_, NowMicros() - start_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceBuffer* buf_;
  const char* name_;
  const char* cat_;
  uint64_t start_ = 0;
};

// RAII operation span: the unit of causal tracing.
//
//   * On a thread with no active context it starts a new trace (the
//     papyruskv_put/get entry points are such roots).
//   * On a thread with an active context it records a child span.
//   * The remote-parent constructor adopts a context decoded off the wire
//     (the owner-side handler) and draws the incoming flow arrow.
//   * MarkFlowOut() on a caller-side RPC span draws the outgoing arrow;
//     context() is what the caller encodes into the request.
//
// While an OpSpan is open it is the thread's CurrentTraceContext(); the
// previous context is restored on destruction.  Inert (one TLS load and a
// branch) when tracing is disabled.
class OpSpan {
 public:
  // kScoped installs the span as the thread's current context for its
  // lifetime (strictly nested spans).  kDetached records a child of the
  // current context without becoming current — for overlapping siblings
  // (e.g. a pipeline cycle's in-flight frames) that end out of order.
  enum Mode { kScoped, kDetached };

  OpSpan(const char* cat, const char* name, Mode mode = kScoped);
  OpSpan(const char* cat, const char* name, const TraceContext& remote_parent);
  ~OpSpan();
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

  // Marks this span as the source of a cross-rank flow (call on the
  // caller's RPC span before sending the request carrying context()).
  void MarkFlowOut() {
    if (buf_) {
      flow_ = TraceEvent::kFlowOut;
      flow_id_ = ctx_.span_id;
    }
  }
  // The context a request should carry: this span as the remote parent.
  TraceContext context() const { return ctx_; }
  bool active() const { return buf_ != nullptr; }

 private:
  void Begin(const char* cat, const char* name,
             const TraceContext& remote_parent, bool has_remote, Mode mode);

  TraceBuffer* buf_ = nullptr;
  const char* name_ = "";
  const char* cat_ = "";
  uint64_t start_ = 0;
  TraceContext ctx_;        // this span's identity while open
  TraceContext saved_;      // previous TLS context, restored in dtor
  uint64_t parent_span_ = 0;
  uint64_t flow_id_ = 0;
  uint8_t flow_ = TraceEvent::kFlowNone;
  bool scoped_ = true;
};

// Records an already-measured interval as a child of the calling thread's
// current context (e.g. a queue-wait computed from a message's delivery
// timestamp after the fact).  No-op without an enabled buffer.
void RecordSpan(const char* cat, const char* name, uint64_t ts_us,
                uint64_t dur_us);

}  // namespace papyrus::obs
