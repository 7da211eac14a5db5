// Annotated synchronization primitives — the only locking layer src/ may
// use (papyrus_analyze's raw-mutex rule rejects std::mutex outside it).
//
// Three things in one wrapper, RocksDB/absl port-layer style:
//   1. Clang thread-safety capability annotations (thread_annotations.h):
//      Mutex is a CAPABILITY, MutexLock a SCOPED_CAPABILITY, so the
//      compiler can enforce GUARDED_BY/REQUIRES contracts repo-wide.
//   2. A debug-build lock-order validator: every acquisition is recorded in
//      a per-thread held-lock stack feeding a global acquisition-order
//      graph; an acquisition that would close a cycle (an A→B order where
//      B→A was previously observed — a potential deadlock even if this
//      schedule survives) aborts with both acquisition stacks.  Same-thread
//      recursive acquisition aborts likewise.
//   3. Zero release-build overhead: with PAPYRUS_LOCK_ORDER_DEBUG == 0 (the
//      default under NDEBUG) every hook compiles away and Mutex::Lock is
//      exactly std::mutex::lock.
//
// Canonical lock order (validator-enforced; see DESIGN.md "Correctness
// tooling" for the per-subsystem table):
//   rotate mutex → table mutex → drain mutex   (core/db_shard)
// with leaf mutexes (cache, manifest, registry, mailbox, logging) never
// held while acquiring another lock.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

// Lock-order validation is on in debug builds (no NDEBUG), off otherwise.
// Override per target with -DPAPYRUS_LOCK_ORDER_DEBUG=1 (tests/common's
// mutex_test does, so the death tests work under any build type).
#ifndef PAPYRUS_LOCK_ORDER_DEBUG
#ifdef NDEBUG
#define PAPYRUS_LOCK_ORDER_DEBUG 0
#else
#define PAPYRUS_LOCK_ORDER_DEBUG 1
#endif
#endif

namespace papyrus {

// Validator entry points, always compiled (common/mutex.cc) so a mix of
// instrumented and uninstrumented translation units links; only
// instrumented TUs call them.
namespace lockorder {
// Pre-lock: checks the acquisition-order graph for a cycle against every
// lock the thread already holds, records the new edges, and aborts with a
// diagnostic (both acquisition stacks) if acquiring `mu` could deadlock.
void OnAcquire(const void* mu, const char* name);
// Post-lock: pushes `mu` onto the thread's held stack.
void OnLocked(const void* mu, const char* name);
// Post-unlock bookkeeping: pops `mu` from the thread's held stack.
void OnRelease(const void* mu);
// Mutex destruction: drops the node and its edges from the graph (the
// address may be reused by an unrelated mutex).
void OnDestroy(const void* mu);
// True if the calling thread currently holds `mu` (debug assertions).
bool IsHeld(const void* mu);
// Clears the global order graph (tests only: keeps independent test cases
// from seeing each other's edges).
void ResetForTest();
}  // namespace lockorder

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

class CAPABILITY("mutex") Mutex {
 public:
  // `name` must outlive the mutex (string literals); it labels the mutex in
  // lock-order diagnostics.
  explicit Mutex(const char* name = "mutex") : name_(name) {}
  ~Mutex() {
#if PAPYRUS_LOCK_ORDER_DEBUG
    lockorder::OnDestroy(this);
#endif
  }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
#if PAPYRUS_LOCK_ORDER_DEBUG
    lockorder::OnAcquire(this, name_);
#endif
    mu_.lock();
#if PAPYRUS_LOCK_ORDER_DEBUG
    lockorder::OnLocked(this, name_);
#endif
  }

  void Unlock() RELEASE() {
    mu_.unlock();
#if PAPYRUS_LOCK_ORDER_DEBUG
    lockorder::OnRelease(this);
#endif
  }

  // No order-graph edge is recorded: a try-lock cannot block, so it cannot
  // participate in a deadlock cycle.
  bool TryLock() TRY_ACQUIRE(true) {
    const bool got = mu_.try_lock();
#if PAPYRUS_LOCK_ORDER_DEBUG
    if (got) lockorder::OnLocked(this, name_);
#else
    (void)name_;  // read only by the lock-order debug build
#endif
    return got;
  }

  // Debug-checked assertion for code paths the static analysis cannot
  // follow (std::function callbacks, virtual dispatch).
  void AssertHeld() const ASSERT_CAPABILITY(this) {
#if PAPYRUS_LOCK_ORDER_DEBUG
    if (!lockorder::IsHeld(this)) __builtin_trap();
#endif
  }

  const char* name() const { return name_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const char* name_;
};

// ---------------------------------------------------------------------------
// SharedMutex (reader/writer)
// ---------------------------------------------------------------------------

class CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(const char* name = "shared_mutex") : name_(name) {}
  ~SharedMutex() {
#if PAPYRUS_LOCK_ORDER_DEBUG
    lockorder::OnDestroy(this);
#endif
  }
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
#if PAPYRUS_LOCK_ORDER_DEBUG
    lockorder::OnAcquire(this, name_);
#endif
    mu_.lock();
#if PAPYRUS_LOCK_ORDER_DEBUG
    lockorder::OnLocked(this, name_);
#endif
  }
  void Unlock() RELEASE() {
    mu_.unlock();
#if PAPYRUS_LOCK_ORDER_DEBUG
    lockorder::OnRelease(this);
#endif
  }

  // Shared acquisitions participate in the order graph exactly like
  // exclusive ones: a reader blocked behind a writer deadlocks the same way.
  void ReaderLock() ACQUIRE_SHARED() {
#if PAPYRUS_LOCK_ORDER_DEBUG
    lockorder::OnAcquire(this, name_);
#endif
    mu_.lock_shared();
#if PAPYRUS_LOCK_ORDER_DEBUG
    lockorder::OnLocked(this, name_);
#endif
  }
  void ReaderUnlock() RELEASE_SHARED() {
    mu_.unlock_shared();
#if PAPYRUS_LOCK_ORDER_DEBUG
    lockorder::OnRelease(this);
#endif
  }

  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  const char* name_;
};

// ---------------------------------------------------------------------------
// Scoped lock holders
// ---------------------------------------------------------------------------

class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_->Unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() RELEASE_GENERIC() { mu_->ReaderUnlock(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

// ---------------------------------------------------------------------------
// CondVar
// ---------------------------------------------------------------------------

// Condition variable bound to Mutex.  Wait() temporarily releases the
// caller's lock; the held-lock stack is maintained across the gap so the
// validator sees the re-acquisition (which may record order edges — the
// re-acquire happens with the same remaining held set as the original).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) REQUIRES(mu) {
#if PAPYRUS_LOCK_ORDER_DEBUG
    lockorder::OnRelease(mu);
#endif
    std::unique_lock<std::mutex> ul(mu->mu_, std::adopt_lock);
    cv_.wait(ul);
    ul.release();
#if PAPYRUS_LOCK_ORDER_DEBUG
    lockorder::OnLocked(mu, mu->name_);
#endif
  }

  template <typename Pred>
  void Wait(Mutex* mu, Pred stop_waiting) REQUIRES(mu) {
    while (!stop_waiting()) Wait(mu);
  }

  // Returns false on timeout (the predicate-free form reports whether it
  // was signalled before the deadline; spurious wakeups count as signals,
  // exactly like std::condition_variable::wait_for).
  bool WaitForMicros(Mutex* mu, uint64_t micros) REQUIRES(mu) {
#if PAPYRUS_LOCK_ORDER_DEBUG
    lockorder::OnRelease(mu);
#endif
    std::unique_lock<std::mutex> ul(mu->mu_, std::adopt_lock);
    const auto st = cv_.wait_for(ul, std::chrono::microseconds(micros));
    ul.release();
#if PAPYRUS_LOCK_ORDER_DEBUG
    lockorder::OnLocked(mu, mu->name_);
#endif
    return st == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace papyrus
