// Fixture: must stay clean — every would-be finding carries either the
// mandated why-comment or an analyze:allow-<rule> escape.  The self-test
// re-runs this file with the escapes disabled, so each one has to
// silence a real finding.
#include <cstdint>
#include <mutex>  // analyze:allow-raw-mutex: fixture escape check

#define GUARDED_BY(x)

namespace fixture {

struct Status {
  static Status OK();
  void IgnoreError() const {}
};

Status Flush();
Status Migrate(int rank);
void Barrier();

class Mutex {
 public:
  void Lock();
  void Unlock();
};

class MutexLock {
 public:
  explicit MutexLock(Mutex* mu);
};

class Counter {
 public:
  void Bump() {
    MutexLock lock(&mu_);
    // analyze:allow-guarded-by: metrics scratch, racy-read tolerated
    hits_ += 1;
  }

 private:
  // analyze:allow-unguarded-mutex: the guarded-by escape above is the
  // point of this fixture, so nothing is annotated against mu_
  Mutex mu_;
  uint64_t hits_ = 0;
  std::mutex raw_mu_;  // analyze:allow-raw-mutex: fixture escape check
};

void Justified() {
  // Shutdown path: the store is already gone, nothing to do on failure.
  (void)Flush();
  Flush().IgnoreError();  // close() retries; this is the best-effort pass
  Migrate(3);  // analyze:allow-status-discard: fixture escape check
}

void ProcessCycle() {
  // analyze:allow-pipeline-blocking: fixture — not the real pipeline
  Barrier();
}

void EscapedTraceAdd(papyrus::obs::TraceBuffer* trace_buf) {
  // analyze:allow-trace-add: replaying a pre-recorded interval whose ids
  // are attached by hand downstream
  trace_buf->Add("replay", "tool", 0, 1);
}

}  // namespace fixture
