// Fixture: must stay clean — every field written under a lock is
// annotated, atomics are exempt, lock-free writes need nothing, and the
// header carries its include guard and leaks no namespace.
#pragma once

#include <atomic>
#include <cstdint>

#define GUARDED_BY(x)
#define REQUIRES(x)

namespace fixture {

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
    hits_ += 1;
    peak_ = hits_;
  }

  void BumpLocked() REQUIRES(mu_) {
    hits_++;
  }

  void Relax() {
    // Atomic: self-synchronizing, exempt even under the lock.
    MutexLock lock(&mu_);
    spins_.fetch_add(1);
    approx_ = 1;
  }

  void Touch() {
    cold_ = 7;  // no lock held — nothing required
  }

 private:
  Mutex mu_{"fixture_counter_mu"};
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t peak_ GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> spins_{0};
  std::atomic<int> approx_{0};
  int cold_ = 0;
};

}  // namespace fixture
