#include "obs/timeline.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/timer.h"
#include "obs/export.h"

namespace papyrus::obs {

namespace {

void AppendEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

void AppendNameArray(std::string* out, const char* key,
                     const std::vector<std::string>& names) {
  *out += "\"";
  *out += key;
  *out += "\": [";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i) *out += ", ";
    *out += "\"";
    AppendEscaped(out, names[i]);
    *out += "\"";
  }
  *out += "]";
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

void AppendI64(std::string* out, int64_t v) {
  char buf[24];
  snprintf(buf, sizeof(buf), "%" PRId64, v);
  *out += buf;
}

bool ReadNames(const JsonValue* v, std::vector<std::string>* out) {
  if (!v || v->type != JsonValue::Type::kArray) return false;
  for (const JsonValue& e : v->array) {
    if (e.type != JsonValue::Type::kString) return false;
    out->push_back(e.str);
  }
  return true;
}

uint64_t NumU64(const JsonValue* v) {
  return v && v->type == JsonValue::Type::kNumber
             ? static_cast<uint64_t>(v->number)
             : 0;
}

int64_t NumI64(const JsonValue* v) {
  return v && v->type == JsonValue::Type::kNumber
             ? static_cast<int64_t>(v->number)
             : 0;
}

// The sample payload rendered inline in both the per-rank and the merged
// documents: "c"/"g"/"h" keyed series in schema order.
void AppendSampleBody(std::string* out, const TimelineSample& s) {
  *out += "\"t_us\": ";
  AppendU64(out, s.t_us);
  *out += ", \"dt_us\": ";
  AppendU64(out, s.dt_us);
  *out += ", \"c\": [";
  for (size_t i = 0; i < s.counters.size(); ++i) {
    if (i) *out += ", ";
    AppendU64(out, s.counters[i]);
  }
  *out += "], \"g\": [";
  for (size_t i = 0; i < s.gauges.size(); ++i) {
    if (i) *out += ", ";
    AppendI64(out, s.gauges[i]);
  }
  *out += "], \"h\": [";
  for (size_t i = 0; i < s.hists.size(); ++i) {
    if (i) *out += ", ";
    *out += "[";
    AppendU64(out, s.hists[i].count);
    *out += ", ";
    AppendU64(out, s.hists[i].p50);
    *out += ", ";
    AppendU64(out, s.hists[i].p99);
    *out += "]";
  }
  *out += "]";
}

bool ParseSampleBody(const JsonValue& v, TimelineSample* s) {
  s->t_us = NumU64(v.Find("t_us"));
  s->dt_us = NumU64(v.Find("dt_us"));
  const JsonValue* c = v.Find("c");
  const JsonValue* g = v.Find("g");
  const JsonValue* h = v.Find("h");
  if (!c || !g || !h) return false;
  for (const JsonValue& e : c->array) {
    s->counters.push_back(static_cast<uint64_t>(e.number));
  }
  for (const JsonValue& e : g->array) {
    s->gauges.push_back(static_cast<int64_t>(e.number));
  }
  for (const JsonValue& e : h->array) {
    if (e.array.size() != 3) return false;
    TimelineSample::HistWindow w;
    w.count = static_cast<uint64_t>(e.array[0].number);
    w.p50 = static_cast<uint64_t>(e.array[1].number);
    w.p99 = static_cast<uint64_t>(e.array[2].number);
    s->hists.push_back(w);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

TimelineSchema TimelineSchema::Default() {
  TimelineSchema s;
  s.counters = {
      "async.frames",     "async.op_errors", "fault.rank_crash",
      "net.peer.suspects", "net.req.retries", "net.req.timeouts",
      "repl.appends",     "repl.degraded",   "repl.resyncs",
  };
  s.gauges = {
      "async.inflight",          "async.queue_depth",
      "net.flush_queue_depth",   "net.migration_queue_depth",
      "repl.degraded_now",       "repl.lag_ops",
  };
  s.histograms = {
      "async.get_op_us", "async.put_op_us", "kv.delete_us",
      "kv.get_us",       "kv.put_us",       "net.handler_service_us",
  };
  return s;
}

int SeriesIndex(const std::vector<std::string>& names, std::string_view name) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

// ---------------------------------------------------------------------------
// TimelineSampler
// ---------------------------------------------------------------------------

TimelineSampler::~TimelineSampler() { Stop(); }

void TimelineSampler::Configure(TimelineSchema schema, uint64_t interval_us,
                                size_t capacity) {
  schema_ = std::move(schema);
  interval_us_ = interval_us;
  capacity_ = std::max<size_t>(capacity, 2);
  counters_.clear();
  gauges_.clear();
  hists_.clear();
  for (const std::string& n : schema_.counters) {
    counters_.push_back(&reg_->GetCounter(n));
  }
  for (const std::string& n : schema_.gauges) {
    gauges_.push_back(&reg_->GetGauge(n));
  }
  for (const std::string& n : schema_.histograms) {
    hists_.push_back(&reg_->GetHistogram(n));
  }
  prev_counters_.assign(counters_.size(), 0);
  prev_hists_.assign(hists_.size(), HistogramData{});
  prev_t_us_ = NowMicros();
  stride_ = kSlotHeader + counters_.size() + gauges_.size() + 3 * hists_.size();
  ring_ = std::make_unique<std::atomic<uint64_t>[]>(capacity_ * stride_);
  next_.store(0, std::memory_order_relaxed);
}

void TimelineSampler::Start(std::function<void()> on_thread_start) {
  if (!enabled() || running_) return;
  on_thread_start_ = std::move(on_thread_start);
  {
    MutexLock lock(&mu_);
    stop_ = false;
  }
  prev_t_us_ = NowMicros();
  running_ = true;
  thread_ = std::thread([this] { SamplerLoop(); });
}

void TimelineSampler::Stop() {
  if (!running_) return;
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  thread_.join();
  running_ = false;
  // Tail flush: the partial window since the last tick carries the run's
  // final operations — without it a run shorter than one interval would
  // export an empty series.
  SampleOnce();
}

void TimelineSampler::SamplerLoop() {
  if (on_thread_start_) on_thread_start_();
  for (;;) {
    {
      MutexLock lock(&mu_);
      // Bounded wait only (CondVar::WaitForMicros): the analyzer walks
      // SampleOnce, and this loop holds mu_ solely for the interval wait —
      // never across a tick.
      if (!stop_) cv_.WaitForMicros(&mu_, interval_us_);
      if (stop_) return;
    }
    SampleOnce();
  }
}

void TimelineSampler::SampleOnce() {
  const uint64_t now = NowMicros();
  const uint64_t dt = now >= prev_t_us_ ? now - prev_t_us_ : 0;
  const uint64_t ticket = next_.load(std::memory_order_relaxed);
  std::atomic<uint64_t>* slot = &ring_[(ticket % capacity_) * stride_];
  slot[0].store(0, std::memory_order_release);  // invalidate for readers
  slot[1].store(now, std::memory_order_relaxed);
  slot[2].store(dt, std::memory_order_relaxed);
  size_t w = kSlotHeader;
  for (size_t i = 0; i < counters_.size(); ++i) {
    const uint64_t cur = counters_[i]->Value();
    const uint64_t prev = prev_counters_[i];
    // Monotone-safe against papyruskv_stats_reset: a counter observed
    // below its baseline was restarted at zero mid-window, so the delta
    // restarts too instead of underflowing into a 2^64 spike.
    slot[w++].store(cur >= prev ? cur - prev : cur,
                    std::memory_order_relaxed);
    prev_counters_[i] = cur;
  }
  for (size_t i = 0; i < gauges_.size(); ++i) {
    slot[w++].store(static_cast<uint64_t>(gauges_[i]->Value()),
                    std::memory_order_relaxed);
  }
  for (size_t i = 0; i < hists_.size(); ++i) {
    const HistogramData cur = hists_[i]->Snapshot();
    HistogramData& prev = prev_hists_[i];
    HistogramData win;
    size_t top = 0;
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
      const uint64_t d = cur.buckets[b] >= prev.buckets[b]
                             ? cur.buckets[b] - prev.buckets[b]
                             : cur.buckets[b];
      win.buckets[b] = d;
      win.count += d;
      if (d) top = b;
    }
    // The window min/max are not tracked exactly; bucket edges bound the
    // interpolation instead (min 0 disables the lower clamp).
    win.min = 0;
    win.max = HistogramBucketUpper(top);
    slot[w++].store(win.count, std::memory_order_relaxed);
    slot[w++].store(
        win.count ? static_cast<uint64_t>(win.Percentile(50)) : 0,
        std::memory_order_relaxed);
    slot[w++].store(
        win.count ? static_cast<uint64_t>(win.Percentile(99)) : 0,
        std::memory_order_relaxed);
    prev = cur;
  }
  prev_t_us_ = now;
  slot[0].store(ticket + 1, std::memory_order_release);  // publish
  next_.store(ticket + 1, std::memory_order_release);
}

bool TimelineSampler::ReadSlot(uint64_t ticket, TimelineSample* out) const {
  const std::atomic<uint64_t>* slot = &ring_[(ticket % capacity_) * stride_];
  if (slot[0].load(std::memory_order_acquire) != ticket + 1) return false;
  out->seq = ticket + 1;
  out->t_us = slot[1].load(std::memory_order_relaxed);
  out->dt_us = slot[2].load(std::memory_order_relaxed);
  size_t w = kSlotHeader;
  out->counters.resize(counters_.size());
  for (size_t i = 0; i < counters_.size(); ++i) {
    out->counters[i] = slot[w++].load(std::memory_order_relaxed);
  }
  out->gauges.resize(gauges_.size());
  for (size_t i = 0; i < gauges_.size(); ++i) {
    out->gauges[i] =
        static_cast<int64_t>(slot[w++].load(std::memory_order_relaxed));
  }
  out->hists.resize(hists_.size());
  for (size_t i = 0; i < hists_.size(); ++i) {
    out->hists[i].count = slot[w++].load(std::memory_order_relaxed);
    out->hists[i].p50 = slot[w++].load(std::memory_order_relaxed);
    out->hists[i].p99 = slot[w++].load(std::memory_order_relaxed);
  }
  // A wrap during the reads above rewrote the slot; the seq re-check
  // detects the tear (same protocol as the flight recorder).
  return slot[0].load(std::memory_order_acquire) == ticket + 1;
}

bool TimelineSampler::Latest(TimelineSample* out) const {
  const uint64_t next = next_.load(std::memory_order_acquire);
  if (next == 0 || !ring_) return false;
  return ReadSlot(next - 1, out);
}

std::vector<TimelineSample> TimelineSampler::Samples() const {
  std::vector<TimelineSample> out;
  if (!ring_) return out;
  const uint64_t next = next_.load(std::memory_order_acquire);
  const uint64_t first = next > capacity_ ? next - capacity_ : 0;
  for (uint64_t t = first; t < next; ++t) {
    TimelineSample s;
    if (ReadSlot(t, &s)) out.push_back(std::move(s));
  }
  return out;
}

TimelineDoc TimelineSampler::Doc(int rank, int nranks) const {
  TimelineDoc d;
  d.rank = rank;
  d.nranks = nranks;
  d.interval_us = interval_us_;
  d.samples_taken = samples_taken();
  d.dropped = d.samples_taken > capacity_ ? d.samples_taken - capacity_ : 0;
  d.schema = schema_;
  d.samples = Samples();
  return d;
}

// ---------------------------------------------------------------------------
// timeline-v1 JSON
// ---------------------------------------------------------------------------

std::string TimelineDocToJson(const TimelineDoc& doc) {
  std::string out;
  out.reserve(256 + doc.samples.size() * (16 * doc.schema.TotalSeries() + 64));
  char buf[160];
  snprintf(buf, sizeof(buf),
           "{\"papyruskv\": \"timeline-v1\", \"rank\": %d, \"nranks\": %d,\n"
           " \"interval_us\": %" PRIu64 ", \"samples_taken\": %" PRIu64
           ", \"dropped\": %" PRIu64 ",\n ",
           doc.rank, doc.nranks, doc.interval_us, doc.samples_taken,
           doc.dropped);
  out += buf;
  AppendNameArray(&out, "counters", doc.schema.counters);
  out += ",\n ";
  AppendNameArray(&out, "gauges", doc.schema.gauges);
  out += ",\n ";
  AppendNameArray(&out, "histograms", doc.schema.histograms);
  out += ",\n \"samples\": [";
  for (size_t i = 0; i < doc.samples.size(); ++i) {
    out += i ? ",\n  {" : "\n  {";
    AppendSampleBody(&out, doc.samples[i]);
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

bool ParseTimelineJson(const std::string& text, TimelineDoc* out) {
  JsonValue v;
  if (!ParseJson(text, &v)) return false;
  const JsonValue* magic = v.Find("papyruskv");
  if (!magic || magic->str != "timeline-v1") return false;
  out->rank = static_cast<int>(NumI64(v.Find("rank")));
  out->nranks = static_cast<int>(NumI64(v.Find("nranks")));
  out->interval_us = NumU64(v.Find("interval_us"));
  out->samples_taken = NumU64(v.Find("samples_taken"));
  out->dropped = NumU64(v.Find("dropped"));
  if (!ReadNames(v.Find("counters"), &out->schema.counters) ||
      !ReadNames(v.Find("gauges"), &out->schema.gauges) ||
      !ReadNames(v.Find("histograms"), &out->schema.histograms)) {
    return false;
  }
  const JsonValue* samples = v.Find("samples");
  if (!samples || samples->type != JsonValue::Type::kArray) return false;
  uint64_t seq = 0;
  for (const JsonValue& e : samples->array) {
    TimelineSample s;
    if (!ParseSampleBody(e, &s)) return false;
    if (s.counters.size() != out->schema.counters.size() ||
        s.gauges.size() != out->schema.gauges.size() ||
        s.hists.size() != out->schema.histograms.size()) {
      return false;
    }
    s.seq = ++seq;
    out->samples.push_back(std::move(s));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Flight overlay
// ---------------------------------------------------------------------------

bool ParseFlightEvents(const std::string& text,
                       std::vector<TimelineEvent>* out) {
  JsonValue v;
  if (!ParseJson(text, &v)) return false;
  const JsonValue* magic = v.Find("papyruskv");
  if (!magic || magic->str != "flight-v1") return false;
  const int rank = static_cast<int>(NumI64(v.Find("rank")));
  const JsonValue* events = v.Find("events");
  if (!events || events->type != JsonValue::Type::kArray) return false;
  for (const JsonValue& e : events->array) {
    TimelineEvent ev;
    ev.rank = rank;
    ev.ts_us = NumU64(e.Find("ts_us"));
    const JsonValue* kind = e.Find("kind");
    const JsonValue* what = e.Find("what");
    ev.kind = kind ? kind->str : "";
    ev.what = what ? what->str : "";
    ev.a = NumI64(e.Find("a"));
    ev.b = NumI64(e.Find("b"));
    out->push_back(std::move(ev));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

namespace {

bool SchemaEquals(const TimelineSchema& a, const TimelineSchema& b) {
  return a.counters == b.counters && a.gauges == b.gauges &&
         a.histograms == b.histograms;
}

// Two samples landing in one grid window (drifted sampler): deltas sum,
// the later sample's gauge levels win, histogram percentiles combine
// count-weighted.
void CombineCells(TimelineSample* a, const TimelineSample& b) {
  const bool b_later = b.t_us >= a->t_us;
  for (size_t i = 0; i < a->counters.size() && i < b.counters.size(); ++i) {
    a->counters[i] += b.counters[i];
  }
  if (b_later) a->gauges = b.gauges;
  for (size_t i = 0; i < a->hists.size() && i < b.hists.size(); ++i) {
    TimelineSample::HistWindow& ha = a->hists[i];
    const TimelineSample::HistWindow& hb = b.hists[i];
    const uint64_t total = ha.count + hb.count;
    if (total) {
      ha.p50 = (ha.p50 * ha.count + hb.p50 * hb.count) / total;
      ha.p99 = (ha.p99 * ha.count + hb.p99 * hb.count) / total;
    }
    ha.count = total;
  }
  a->dt_us += b.dt_us;
  a->t_us = std::max(a->t_us, b.t_us);
}

// The lanes table plots op throughput: the kv.* histogram windows when the
// schema has them, every histogram otherwise.
std::vector<size_t> RateHistIndices(const TimelineSchema& schema) {
  std::vector<size_t> idx;
  for (size_t i = 0; i < schema.histograms.size(); ++i) {
    if (schema.histograms[i].rfind("kv.", 0) == 0) idx.push_back(i);
  }
  if (idx.empty()) {
    for (size_t i = 0; i < schema.histograms.size(); ++i) idx.push_back(i);
  }
  return idx;
}

}  // namespace

MergedTimeline MergeTimelines(const std::vector<TimelineDoc>& docs,
                              std::vector<TimelineEvent> events) {
  MergedTimeline m;
  std::sort(events.begin(), events.end(),
            [](const TimelineEvent& a, const TimelineEvent& b) {
              return a.ts_us != b.ts_us ? a.ts_us < b.ts_us
                                        : a.rank < b.rank;
            });
  m.events = std::move(events);
  if (docs.empty()) return m;
  m.schema = docs[0].schema;

  uint64_t t0 = ~uint64_t{0};
  uint64_t w = 0;
  for (const TimelineDoc& d : docs) {
    if (!SchemaEquals(d.schema, m.schema)) continue;
    w = std::max(w, d.interval_us);
    for (const TimelineSample& s : d.samples) {
      t0 = std::min(t0, s.t_us >= s.dt_us ? s.t_us - s.dt_us : 0);
    }
  }
  if (t0 == ~uint64_t{0}) t0 = 0;
  if (w == 0) w = 1;
  m.t0_us = t0;
  m.window_us = w;

  for (const TimelineDoc& d : docs) {
    if (!SchemaEquals(d.schema, m.schema)) continue;  // mismatched run
    MergedTimeline::Lane lane;
    lane.rank = d.rank;
    for (const TimelineSample& s : d.samples) {
      // Windows are keyed by the sample's midpoint so jitter around a
      // boundary does not shift a full window of ops into its neighbor.
      const uint64_t mid = s.t_us - s.dt_us / 2;
      const size_t win = mid > t0 ? static_cast<size_t>((mid - t0) / w) : 0;
      if (win >= lane.cells.size()) {
        lane.cells.resize(win + 1);
        lane.present.resize(win + 1, 0);
      }
      if (lane.present[win]) {
        CombineCells(&lane.cells[win], s);
      } else {
        lane.cells[win] = s;
        lane.present[win] = 1;
      }
    }
    m.windows = std::max(m.windows, lane.cells.size());
    m.lanes.push_back(std::move(lane));
  }
  for (MergedTimeline::Lane& lane : m.lanes) {
    lane.cells.resize(m.windows);
    lane.present.resize(m.windows, 0);
  }
  std::sort(m.lanes.begin(), m.lanes.end(),
            [](const MergedTimeline::Lane& a, const MergedTimeline::Lane& b) {
              return a.rank < b.rank;
            });
  return m;
}

std::string MergedTimelineToJson(const MergedTimeline& m) {
  std::string out;
  char buf[160];
  snprintf(buf, sizeof(buf),
           "{\"papyruskv\": \"timeline-merged-v1\", \"nranks\": %zu,\n"
           " \"t0_us\": %" PRIu64 ", \"window_us\": %" PRIu64
           ", \"windows\": %zu,\n ",
           m.lanes.size(), m.t0_us, m.window_us, m.windows);
  out += buf;
  AppendNameArray(&out, "counters", m.schema.counters);
  out += ",\n ";
  AppendNameArray(&out, "gauges", m.schema.gauges);
  out += ",\n ";
  AppendNameArray(&out, "histograms", m.schema.histograms);
  out += ",\n \"lanes\": [";
  for (size_t li = 0; li < m.lanes.size(); ++li) {
    const MergedTimeline::Lane& lane = m.lanes[li];
    out += li ? ",\n  {" : "\n  {";
    snprintf(buf, sizeof(buf), "\"rank\": %d, \"samples\": [", lane.rank);
    out += buf;
    bool first = true;
    for (size_t wi = 0; wi < lane.cells.size(); ++wi) {
      if (!lane.present[wi]) continue;
      out += first ? "\n   {" : ",\n   {";
      first = false;
      snprintf(buf, sizeof(buf), "\"w\": %zu, ", wi);
      out += buf;
      AppendSampleBody(&out, lane.cells[wi]);
      out += "}";
    }
    out += first ? "]}" : "\n  ]}";
  }
  out += "\n ],\n \"events\": [";
  for (size_t i = 0; i < m.events.size(); ++i) {
    const TimelineEvent& e = m.events[i];
    const uint64_t win =
        e.ts_us > m.t0_us ? (e.ts_us - m.t0_us) / m.window_us : 0;
    out += i ? ",\n  {" : "\n  {";
    snprintf(buf, sizeof(buf),
             "\"w\": %" PRIu64 ", \"rank\": %d, \"ts_us\": %" PRIu64
             ", \"kind\": \"",
             win, e.rank, e.ts_us);
    out += buf;
    AppendEscaped(&out, e.kind);
    out += "\", \"what\": \"";
    AppendEscaped(&out, e.what);
    out += "\", \"a\": ";
    AppendI64(&out, e.a);
    out += ", \"b\": ";
    AppendI64(&out, e.b);
    out += "}";
  }
  out += m.events.empty() ? "]}\n" : "\n ]}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

std::vector<double> WindowOpsPerSec(const MergedTimeline& m) {
  std::vector<double> rates(m.windows, 0.0);
  const std::vector<size_t> idx = RateHistIndices(m.schema);
  for (const MergedTimeline::Lane& lane : m.lanes) {
    for (size_t w = 0; w < m.windows; ++w) {
      if (!lane.present[w] || lane.cells[w].dt_us == 0) continue;
      uint64_t ops = 0;
      for (size_t i : idx) ops += lane.cells[w].hists[i].count;
      rates[w] += static_cast<double>(ops) * 1e6 /
                  static_cast<double>(lane.cells[w].dt_us);
    }
  }
  return rates;
}

std::string RenderTimelineTables(const MergedTimeline& m) {
  std::string out;
  char buf[256];
  snprintf(buf, sizeof(buf),
           "merged timeline: %zu rank(s), %.1f ms windows x %zu\n",
           m.lanes.size(), static_cast<double>(m.window_us) / 1e3, m.windows);
  out += buf;
  if (m.windows == 0 || m.lanes.empty()) {
    out += "(no samples — was PAPYRUSKV_OBS set?)\n";
    return out;
  }
  const std::vector<size_t> idx = RateHistIndices(m.schema);

  // Events bucketed into windows (clamped to the grid).
  std::vector<std::string> win_events(m.windows);
  for (const TimelineEvent& e : m.events) {
    uint64_t w = e.ts_us > m.t0_us ? (e.ts_us - m.t0_us) / m.window_us : 0;
    if (w >= m.windows) w = m.windows - 1;
    std::string& dst = win_events[w];
    if (!dst.empty()) dst += " ";
    snprintf(buf, sizeof(buf), "r%d:%s", e.rank, e.kind.c_str());
    dst += buf;
    if (e.b != 0) {
      snprintf(buf, sizeof(buf), "(%lld,%lld)", static_cast<long long>(e.a),
               static_cast<long long>(e.b));
      dst += buf;
    } else if (e.a != 0) {
      snprintf(buf, sizeof(buf), "(%lld)", static_cast<long long>(e.a));
      dst += buf;
    }
  }

  // Lane table: per-rank kop/s over the rate histograms, aggregate
  // percentiles count-weighted across ranks (approximate: the ring stores
  // per-window percentiles, not buckets).
  out += "\n  win    t(ms)";
  for (const MergedTimeline::Lane& lane : m.lanes) {
    snprintf(buf, sizeof(buf), "  r%-2d kop/s", lane.rank);
    out += buf;
  }
  out += "      total   ~p50us   ~p99us  events\n";
  for (size_t w = 0; w < m.windows; ++w) {
    snprintf(buf, sizeof(buf), "%5zu %8.1f",
             w, static_cast<double>(w * m.window_us) / 1e3);
    out += buf;
    double total = 0;
    uint64_t ops_total = 0;
    double p50_acc = 0, p99_acc = 0;
    for (const MergedTimeline::Lane& lane : m.lanes) {
      if (!lane.present[w] || lane.cells[w].dt_us == 0) {
        snprintf(buf, sizeof(buf), "  %9s", "-");
        out += buf;
        continue;
      }
      uint64_t ops = 0;
      for (size_t i : idx) {
        const TimelineSample::HistWindow& h = lane.cells[w].hists[i];
        ops += h.count;
        p50_acc += static_cast<double>(h.p50) * static_cast<double>(h.count);
        p99_acc += static_cast<double>(h.p99) * static_cast<double>(h.count);
      }
      ops_total += ops;
      const double rate = static_cast<double>(ops) * 1e6 /
                          static_cast<double>(lane.cells[w].dt_us) / 1e3;
      total += rate;
      snprintf(buf, sizeof(buf), "  %9.1f", rate);
      out += buf;
    }
    const double denom = ops_total ? static_cast<double>(ops_total) : 1;
    snprintf(buf, sizeof(buf), "  %9.1f %8.0f %8.0f  %s\n", total,
             p50_acc / denom, p99_acc / denom, win_events[w].c_str());
    out += buf;
  }

  // Transient summary per series: total movement, worst window, where —
  // the numbers a bench asserts a bound on.
  bool header = false;
  for (size_t ci = 0; ci < m.schema.counters.size(); ++ci) {
    uint64_t total = 0, worst = 0;
    size_t worst_w = 0;
    for (size_t w = 0; w < m.windows; ++w) {
      uint64_t win = 0;
      for (const MergedTimeline::Lane& lane : m.lanes) {
        if (lane.present[w]) win += lane.cells[w].counters[ci];
      }
      total += win;
      if (win > worst) {
        worst = win;
        worst_w = w;
      }
    }
    if (!total) continue;
    if (!header) {
      out += "\n  counter deltas (summed over ranks)      total    max/win"
             "   at win\n";
      header = true;
    }
    snprintf(buf, sizeof(buf), "  %-38s %7" PRIu64 " %10" PRIu64 " %8zu\n",
             m.schema.counters[ci].c_str(), total, worst, worst_w);
    out += buf;
  }
  header = false;
  for (size_t gi = 0; gi < m.schema.gauges.size(); ++gi) {
    int64_t peak = 0;
    size_t peak_w = 0;
    bool any = false;
    for (size_t w = 0; w < m.windows; ++w) {
      for (const MergedTimeline::Lane& lane : m.lanes) {
        if (!lane.present[w]) continue;
        const int64_t v = lane.cells[w].gauges[gi];
        if (v != 0) any = true;
        if (v > peak) {
          peak = v;
          peak_w = w;
        }
      }
    }
    if (!any) continue;
    if (!header) {
      out += "\n  gauge peaks (max over ranks)                      peak"
             "   at win\n";
      header = true;
    }
    snprintf(buf, sizeof(buf), "  %-38s %14lld %8zu\n",
             m.schema.gauges[gi].c_str(), static_cast<long long>(peak),
             peak_w);
    out += buf;
  }

  if (!m.events.empty()) {
    out += "\n  events:\n";
    for (const TimelineEvent& e : m.events) {
      snprintf(buf, sizeof(buf),
               "  %+10.1fms  r%d %-10s %-14s a=%lld b=%lld\n",
               (static_cast<double>(e.ts_us) -
                static_cast<double>(m.t0_us)) / 1e3,
               e.rank, e.kind.c_str(), e.what.c_str(),
               static_cast<long long>(e.a), static_cast<long long>(e.b));
      out += buf;
    }
  }
  return out;
}

}  // namespace papyrus::obs
