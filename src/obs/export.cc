#include "obs/export.h"

#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace papyrus::obs {

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string Num(double v) {
  char buf[64];
  // Integral values print without a fraction so counters stay exact.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// JSON dump
// ---------------------------------------------------------------------------

std::string SnapshotToJson(const Snapshot& snap, const StatsMeta& meta) {
  std::string out;
  out.reserve(4096);
  out += "{\n";
  out += "  \"papyruskv\": \"stats-v1\",\n";
  out += "  \"rank\": " + std::to_string(meta.rank) + ",\n";
  out += "  \"nranks\": " + std::to_string(meta.nranks) + ",\n";
  out += std::string("  \"aggregated\": ") +
         (meta.aggregated ? "true" : "false") + ",\n";

  out += "  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendEscaped(&out, name);
    out += ": " + std::to_string(v);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendEscaped(&out, name);
    out += ": " + std::to_string(v);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendEscaped(&out, name);
    out += ": { \"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + std::to_string(h.sum);
    out += ", \"min\": " + std::to_string(h.min);
    out += ", \"max\": " + std::to_string(h.max);
    out += ", \"mean\": " + Num(h.Mean());
    out += ", \"p50\": " + Num(h.Percentile(50));
    out += ", \"p95\": " + Num(h.Percentile(95));
    out += ", \"p99\": " + Num(h.Percentile(99));
    out += ", \"buckets\": [";
    bool bfirst = true;
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!bfirst) out += ", ";
      bfirst = false;
      out += "[" + std::to_string(HistogramBucketUpper(b)) + ", " +
             std::to_string(h.buckets[b]) + "]";
    }
    out += "] }";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string StatsPathForRank(const std::string& path, int rank) {
  const std::string suffix = ".rank" + std::to_string(rank);
  const size_t dot = path.rfind(".json");
  if (dot != std::string::npos && dot == path.size() - 5) {
    return path.substr(0, dot) + suffix + ".json";
  }
  return path + suffix;
}

Status WriteTextFile(const std::string& path, const std::string& contents) {
  FILE* f = fopen(path.c_str(), "w");
  if (!f) return Status::IOError("cannot open " + path);
  const size_t n = fwrite(contents.data(), 1, contents.size(), f);
  fclose(f);
  if (n != contents.size()) return Status::IOError("short write " + path);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Minimal JSON reader
// ---------------------------------------------------------------------------

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(JsonValue* out) {
    if (!Value(out)) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Literal(const char* lit) {
    const size_t n = strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool Value(JsonValue* out) {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object(out);
      case '[': return Array(out);
      case '"':
        out->type = JsonValue::Type::kString;
        return String(&out->str);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->boolean = false;
        return Literal("false");
      case 'n':
        out->type = JsonValue::Type::kNull;
        return Literal("null");
      default: return Number(out);
    }
  }

  bool Object(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (!String(&key)) return false;
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      JsonValue v;
      if (!Value(&v)) return false;
      out->object.emplace(std::move(key), std::move(v));
      SkipWs();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue v;
      if (!Value(&v)) return false;
      out->array.push_back(std::move(v));
      SkipWs();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          const unsigned code =
              strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // Dumps only escape control characters; anything else is kept as
          // a replacement byte rather than full UTF-8 encoding.
          out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  bool Number(JsonValue* out) {
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    out->number = strtod(start, &end);
    if (end == start) return false;
    out->type = JsonValue::Type::kNumber;
    out->str.assign(start, static_cast<size_t>(end - start));
    pos_ += static_cast<size_t>(end - start);
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// Integer fields are read from the number's literal, not its double, so
// counters, sums and bucket bounds above 2^53 round-trip exactly.
template <typename T>
T IntOf(const JsonValue& v) {
  T out = 0;
  const char* p = v.str.data();
  return std::from_chars(p, p + v.str.size(), out).ec == std::errc() ? out
                                                                     : 0;
}

}  // namespace

bool ParseJson(const std::string& text, JsonValue* out) {
  *out = JsonValue();
  return JsonParser(text).Parse(out);
}

bool ParseStatsJson(const std::string& text, Snapshot* out, StatsMeta* meta) {
  JsonValue root;
  if (!ParseJson(text, &root) || root.type != JsonValue::Type::kObject) {
    return false;
  }
  const JsonValue* magic = root.Find("papyruskv");
  if (!magic || magic->str != "stats-v1") return false;

  if (meta) {
    if (const JsonValue* v = root.Find("rank")) {
      meta->rank = static_cast<int>(v->number);
    }
    if (const JsonValue* v = root.Find("nranks")) {
      meta->nranks = static_cast<int>(v->number);
    }
    if (const JsonValue* v = root.Find("aggregated")) {
      meta->aggregated = v->boolean;
    }
  }
  if (!out) return true;

  *out = Snapshot();
  if (const JsonValue* c = root.Find("counters")) {
    for (const auto& [name, v] : c->object) {
      out->counters[name] = IntOf<uint64_t>(v);
    }
  }
  if (const JsonValue* g = root.Find("gauges")) {
    for (const auto& [name, v] : g->object) {
      out->gauges[name] = IntOf<int64_t>(v);
    }
  }
  if (const JsonValue* hs = root.Find("histograms")) {
    for (const auto& [name, hv] : hs->object) {
      HistogramData h;
      if (const JsonValue* v = hv.Find("sum")) h.sum = IntOf<uint64_t>(*v);
      if (const JsonValue* v = hv.Find("min")) h.min = IntOf<uint64_t>(*v);
      if (const JsonValue* v = hv.Find("max")) h.max = IntOf<uint64_t>(*v);
      if (const JsonValue* v = hv.Find("buckets")) {
        for (const JsonValue& pair : v->array) {
          if (pair.array.size() != 2) return false;
          const uint64_t n = IntOf<uint64_t>(pair.array[1]);
          h.buckets[HistogramBucketOf(IntOf<uint64_t>(pair.array[0]))] += n;
          h.count += n;
        }
      }
      out->histograms[name] = h;
    }
  }
  return true;
}

}  // namespace papyrus::obs
