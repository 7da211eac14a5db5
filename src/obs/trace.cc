#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

#include "obs/export.h"

namespace papyrus::obs {

namespace {

thread_local TraceBuffer* tls_trace = nullptr;
thread_local TraceContext tls_ctx;
thread_local uint32_t tls_kv_ticks = 0;  // root-sampling counter

uint64_t SelfTid() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff;
}

void AppendHexId(std::string* out, uint64_t id) {
  char buf[24];
  snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(id));
  *out += buf;
}

}  // namespace

TraceBuffer::TraceBuffer(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {
  ring_.reserve(capacity_);
}

void TraceBuffer::SetThreadName(const char* name) {
  if (!name) return;
  const uint64_t tid = SelfTid();
  MutexLock lock(&mu_);
  thread_names_[tid] = name;
}

void TraceBuffer::Add(const char* name, const char* cat, uint64_t ts_us,
                      uint64_t dur_us) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  // Spans recorded through the plain path still belong to whatever
  // operation is active on this thread, so the merged timeline can nest
  // them (flush/compaction spans usually have no context — that is fine).
  const TraceContext& ctx = tls_ctx;
  if (ctx.valid()) {
    ev.trace_id = ctx.trace_id;
    ev.parent_span_id = ctx.span_id;
  }
  AddEvent(std::move(ev));
}

void TraceBuffer::AddEvent(TraceEvent ev) {
  if (!enabled()) return;
  ev.tid = SelfTid();
  MutexLock lock(&mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
  } else {
    ring_[next_] = std::move(ev);
    wrapped_ = true;
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  next_ = (next_ + 1) % capacity_;
}

size_t TraceBuffer::size() const {
  MutexLock lock(&mu_);
  return ring_.size();
}

std::vector<TraceEvent> TraceBuffer::Events() const {
  MutexLock lock(&mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (wrapped_) {
    // Oldest-first: the slot at next_ holds the oldest surviving event.
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % ring_.size()]);
    }
  } else {
    out = ring_;
  }
  return out;
}

Status TraceBuffer::WriteChromeTrace(const std::string& path,
                                     int rank) const {
  const std::vector<TraceEvent> events = Events();
  std::map<uint64_t, std::string> names;
  {
    MutexLock lock(&mu_);
    names = thread_names_;
  }

  std::string out;
  out.reserve(events.size() * 160 + 512);
  out += "{\"traceEvents\": [";
  bool first = true;
  auto emit = [&](const char* text) {
    if (!first) out += ",";
    first = false;
    out += "\n";
    out += text;
  };
  char buf[320];

  // Lane metadata: the process is the rank, each recording thread gets its
  // role name instead of a raw tid hash.
  snprintf(buf, sizeof(buf),
           "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, "
           "\"args\": {\"name\": \"rank %d\"}}",
           rank, rank);
  emit(buf);
  for (const auto& [tid, tname] : names) {
    snprintf(buf, sizeof(buf),
             "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %d, "
             "\"tid\": %llu, \"args\": {\"name\": \"%s\"}}",
             rank, static_cast<unsigned long long>(tid), tname.c_str());
    emit(buf);
  }

  // Timestamps are absolute NowMicros: every emulated rank shares one
  // steady clock, so per-rank files concatenate into one consistent
  // timeline (papyrus_inspect --trace-merge relies on this).
  uint64_t last_ts = 0;
  for (const auto& ev : events) {
    last_ts = std::max(last_ts, ev.ts_us + ev.dur_us);
    std::string line;
    snprintf(buf, sizeof(buf),
             "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
             "\"ts\": %llu, \"dur\": %llu, \"pid\": %d, \"tid\": %llu",
             ev.name, ev.cat,
             static_cast<unsigned long long>(ev.ts_us),
             static_cast<unsigned long long>(ev.dur_us), rank,
             static_cast<unsigned long long>(ev.tid));
    line = buf;
    if (ev.trace_id != 0) {
      line += ", \"args\": {\"trace\": \"";
      AppendHexId(&line, ev.trace_id);
      line += "\", \"span\": \"";
      AppendHexId(&line, ev.span_id);
      line += "\", \"parent\": \"";
      AppendHexId(&line, ev.parent_span_id);
      line += "\"}";
    }
    line += "}";
    emit(line.c_str());

    if (ev.flow != TraceEvent::kFlowNone && ev.flow_id != 0) {
      // Flow arrow: "s" inside the caller's RPC span, "f" (bp:"e") binding
      // to the owner's handler span.  Same cat/name/id joins the pair.
      std::string id;
      AppendHexId(&id, ev.flow_id);
      snprintf(buf, sizeof(buf),
               "{\"name\": \"rpc\", \"cat\": \"flow\", \"ph\": \"%s\", "
               "%s\"ts\": %llu, \"pid\": %d, \"tid\": %llu, \"id\": \"%s\"}",
               ev.flow == TraceEvent::kFlowOut ? "s" : "f",
               ev.flow == TraceEvent::kFlowOut ? "" : "\"bp\": \"e\", ",
               static_cast<unsigned long long>(ev.ts_us), rank,
               static_cast<unsigned long long>(ev.tid), id.c_str());
      emit(buf);
    }
  }

  // Surface the ring's loss instead of silently truncating history.
  snprintf(buf, sizeof(buf),
           "{\"name\": \"trace.dropped\", \"ph\": \"C\", \"ts\": %llu, "
           "\"pid\": %d, \"tid\": 0, \"args\": {\"events\": %llu}}",
           static_cast<unsigned long long>(last_ts), rank,
           static_cast<unsigned long long>(dropped()));
  emit(buf);

  out += "\n]}\n";
  return WriteTextFile(path, out);
}

TraceBuffer* CurrentTrace() { return tls_trace; }
void SetCurrentTrace(TraceBuffer* t) { tls_trace = t; }

TraceContext CurrentTraceContext() { return tls_ctx; }

// ---------------------------------------------------------------------------
// OpSpan
// ---------------------------------------------------------------------------

OpSpan::OpSpan(const char* cat, const char* name, Mode mode) {
  Begin(cat, name, TraceContext(), /*has_remote=*/false, mode);
}

OpSpan::OpSpan(const char* cat, const char* name,
               const TraceContext& remote_parent) {
  Begin(cat, name, remote_parent, /*has_remote=*/true, kScoped);
}

void OpSpan::Begin(const char* cat, const char* name,
                   const TraceContext& remote_parent, bool has_remote,
                   Mode mode) {
  TraceBuffer* buf = tls_trace;
  if (!buf || !buf->enabled()) return;
  const bool is_root =
      !(has_remote && remote_parent.valid()) && !tls_ctx.valid();
  if (is_root && cat[0] == 'k' && cat[1] == 'v' && cat[2] == '\0') {
    // Local kv fast path: record one root in kv_sample_every (children of
    // a skipped root see no context and fall through to their own rules,
    // so RPC spans under an unsampled put/get still record as net roots).
    const uint32_t every = buf->kv_sample_every();
    if (every > 1 && ++tls_kv_ticks % every != 0) return;
  }
  buf_ = buf;
  name_ = name;
  cat_ = cat;
  scoped_ = mode == kScoped;
  saved_ = tls_ctx;
  if (has_remote && remote_parent.valid()) {
    // Owner-side handler span: child of the caller's RPC span, with the
    // incoming flow arrow drawn from it.
    ctx_.trace_id = remote_parent.trace_id;
    parent_span_ = remote_parent.span_id;
    flow_ = TraceEvent::kFlowIn;
    flow_id_ = remote_parent.span_id;
  } else if (saved_.valid()) {
    ctx_.trace_id = saved_.trace_id;
    parent_span_ = saved_.span_id;
  } else {
    ctx_.trace_id = buf->NextSpanId();  // new root: fresh trace
  }
  ctx_.span_id = buf->NextSpanId();
  ctx_.sampled = true;
  // Detached siblings (a cycle's frames in flight) end out of order, so
  // they read their parent off the thread but never become it.
  if (scoped_) tls_ctx = ctx_;
  start_ = NowMicros();
}

OpSpan::~OpSpan() {
  if (!buf_) return;
  if (scoped_) tls_ctx = saved_;
  TraceEvent ev;
  ev.name = name_;
  ev.cat = cat_;
  ev.ts_us = start_;
  ev.dur_us = NowMicros() - start_;
  ev.trace_id = ctx_.trace_id;
  ev.span_id = ctx_.span_id;
  ev.parent_span_id = parent_span_;
  ev.flow = flow_;
  ev.flow_id = flow_id_;
  buf_->AddEvent(std::move(ev));
}

void RecordSpan(const char* cat, const char* name, uint64_t ts_us,
                uint64_t dur_us) {
  TraceBuffer* buf = tls_trace;
  if (!buf || !buf->enabled()) return;
  buf->Add(name, cat, ts_us, dur_us);
}

}  // namespace papyrus::obs
