#include "fault/failpoint.h"

#include <cstdlib>
#include <mutex>  // analyze:allow-raw-mutex: call_once flag only, no locking
#include <sstream>

#include "common/env.h"
#include "common/hash.h"
#include "common/logging.h"
#include "obs/flight.h"
#include "obs/metrics.h"

namespace papyrus::fault {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

thread_local int tls_rank = -1;

// Cached at Configure time so injection sites never parse the environment.
std::atomic<uint64_t> g_delay_us{1000};

constexpr uint64_t kDefaultSeed = 0x5eed;

// Per-point stream: mix the global seed with the point name so distinct
// points never share a draw sequence.
uint64_t PointSeed(uint64_t seed, const std::string& name) {
  return Mix64(seed ^ Fnv1a64(name.data(), name.size()));
}

struct ParsedTrigger {
  int rank = -1;       // -1 = any
  double prob = 0.0;   // probability mode
  uint64_t nth = 0;    // >0: count mode (fire once on the nth hit)
};

// Trigger grammar: `<prob>` | `rank<R>:<prob>` | `rank<R>@op<N>` | `@op<N>`
// (the `op` prefix after `@` is optional).
bool ParseTrigger(const std::string& val, ParsedTrigger* out) {
  std::string rest = val;
  if (rest.rfind("rank", 0) == 0) {
    size_t i = 4;
    size_t end = rest.find_first_of(":@", i);
    if (end == std::string::npos || end == i) return false;
    const std::string num = rest.substr(i, end - i);
    char* p = nullptr;
    const long r = strtol(num.c_str(), &p, 10);
    if (!p || *p != '\0' || r < 0) return false;
    out->rank = static_cast<int>(r);
    rest = rest.substr(end);  // ":<prob>" or "@op<N>"
    if (rest[0] == ':') rest = rest.substr(1);
  }
  if (!rest.empty() && rest[0] == '@') {
    rest = rest.substr(1);
    if (rest.rfind("op", 0) == 0) rest = rest.substr(2);
    if (rest.empty()) return false;
    char* p = nullptr;
    const unsigned long long n = strtoull(rest.c_str(), &p, 10);
    if (!p || *p != '\0' || n == 0) return false;
    out->nth = n;
    return true;
  }
  if (rest.empty()) return false;
  char* p = nullptr;
  const double prob = strtod(rest.c_str(), &p);
  if (!p || *p != '\0' || prob < 0.0 || prob > 1.0) return false;
  out->prob = prob;
  return true;
}

}  // namespace

void SetThreadRank(int rank) { tls_rank = rank; }
int ThreadRank() { return tls_rank; }

uint64_t DelayMicros() {
  return g_delay_us.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Point
// ---------------------------------------------------------------------------

Point::Point(std::string name) : name_(std::move(name)) {}

void Point::Deactivate() {
  active_.store(false, std::memory_order_relaxed);
  MutexLock lock(&mu_);
  rank_ = -1;
  prob_ = 0.0;
  nth_ = 0;
  hits_ = 0;
  fired_once_ = false;
}

void Point::ActivateProb(int rank, double prob, uint64_t seed) {
  MutexLock lock(&mu_);
  rank_ = rank;
  prob_ = prob;
  nth_ = 0;
  hits_ = 0;
  fired_once_ = false;
  rng_ = Rng(PointSeed(seed, name_));
  active_.store(true, std::memory_order_relaxed);
}

void Point::ActivateCount(int rank, uint64_t nth, uint64_t seed) {
  MutexLock lock(&mu_);
  rank_ = rank;
  prob_ = 0.0;
  nth_ = nth;
  hits_ = 0;
  fired_once_ = false;
  rng_ = Rng(PointSeed(seed, name_));
  active_.store(true, std::memory_order_relaxed);
}

bool Point::Fire() {
  if (!active_.load(std::memory_order_relaxed)) return false;
  const int rank = ThreadRank();
  bool hit = false;
  {
    MutexLock lock(&mu_);
    if (rank_ >= 0 && rank != rank_) return false;
    if (nth_ > 0) {
      if (!fired_once_ && ++hits_ == nth_) {
        fired_once_ = true;
        hit = true;
      }
    } else {
      hit = rng_.Bernoulli(prob_);
    }
  }
  if (hit) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    obs::Current().GetCounter("fault.injected." + name_).Inc();
    // name_ is immutable after registration, so handing its c_str() to the
    // flight ring (which stores the pointer) is safe for the process life.
    if (auto* flight = obs::CurrentFlight()) {
      flight->Record(obs::FlightKind::kFailpoint, name_.c_str(), rank);
    }
  }
  return hit;
}

uint64_t Point::Rand(uint64_t n) {
  if (n == 0) return 0;
  MutexLock lock(&mu_);
  return rng_.Uniform(n);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry& Registry::Instance() {
  static Registry* instance = new Registry();
  return *instance;
}

Point& Registry::GetPoint(const std::string& name) {
  MutexLock lock(&mu_);
  auto it = points_.find(name);
  if (it == points_.end()) {
    it = points_.emplace(name, std::make_unique<Point>(name)).first;
  }
  return *it->second;
}

void Registry::DisableAll() {
  detail::g_enabled.store(false, std::memory_order_relaxed);
  MutexLock lock(&mu_);
  for (auto& [name, point] : points_) point->Deactivate();
}

Status Registry::Configure(const std::string& spec, uint64_t seed) {
  DisableAll();
  if (spec.empty()) return Status::OK();

  // Parse everything first so a malformed spec leaves nothing half-armed.
  std::vector<std::pair<std::string, ParsedTrigger>> entries;
  std::istringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    // Trim surrounding whitespace.
    const size_t b = item.find_first_not_of(" \t");
    const size_t e = item.find_last_not_of(" \t");
    if (b == std::string::npos) continue;
    item = item.substr(b, e - b + 1);
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArg("bad failpoint spec entry: " + item);
    }
    ParsedTrigger trig;
    if (!ParseTrigger(item.substr(eq + 1), &trig)) {
      return Status::InvalidArg("bad failpoint trigger: " + item);
    }
    entries.emplace_back(item.substr(0, eq), trig);
  }
  if (entries.empty()) return Status::OK();

  for (const auto& [name, trig] : entries) {
    Point& p = GetPoint(name);
    if (trig.nth > 0) {
      p.ActivateCount(trig.rank, trig.nth, seed);
    } else {
      p.ActivateProb(trig.rank, trig.prob, seed);
    }
  }
  detail::g_enabled.store(true, std::memory_order_relaxed);
  return Status::OK();
}

Status Registry::ConfigureFromEnv() {
  if (auto d = EnvInt("PAPYRUSKV_FAULT_DELAY_US"); d && *d >= 0) {
    g_delay_us.store(static_cast<uint64_t>(*d), std::memory_order_relaxed);
  }
  const uint64_t seed = static_cast<uint64_t>(
      EnvInt("PAPYRUSKV_FAULT_SEED").value_or(kDefaultSeed));
  return Configure(EnvString("PAPYRUSKV_FAULTS").value_or(""), seed);
}

std::vector<std::string> Registry::Describe() const {
  std::vector<std::string> out;
  MutexLock lock(&mu_);
  for (const auto& [name, point] : points_) {
    if (!point->active_.load(std::memory_order_relaxed)) continue;
    std::ostringstream os;
    os << name << "=";
    MutexLock plock(&point->mu_);
    if (point->rank_ >= 0) os << "rank" << point->rank_;
    if (point->nth_ > 0) {
      os << "@op" << point->nth_;
    } else {
      if (point->rank_ >= 0) os << ":";
      os << point->prob_;
    }
    out.push_back(os.str());
  }
  return out;
}

Status InitFromEnvOnce() {
  static std::once_flag once;
  static Status result = Status::OK();
  std::call_once(once, [] {
    result = Registry::Instance().ConfigureFromEnv();
    if (result.ok() && Enabled()) {
      for (const auto& entry : Registry::Instance().Describe()) {
        PLOG_INFO << "failpoint armed: " << entry;
      }
    }
  });
  return result;
}

}  // namespace papyrus::fault
