// Failpoint fault-injection registry.
//
// PapyrusKV targets burst-buffer/NVM machines whose real failure modes —
// torn NVM writes, dropped or delayed interconnect messages, ranks dying
// mid-workload — never occur naturally inside the deterministic simulated
// substrate (src/sim/).  This registry lets tests and the CI fault matrix
// inject them on purpose, deterministically, at named *failpoints* compiled
// into the hot paths of sim/storage.cc, sim/interconnect.cc, net/comm.cc
// and core/runtime.cc.
//
// Configuration is a comma-separated spec, normally from PAPYRUSKV_FAULTS:
//
//   sstable.write.torn=0.01        fire with probability 0.01 (any rank)
//   net.msg.drop=rank1:0.05        probability 0.05, rank 1 only
//   rank.crash=rank2@op500         fire once, on rank 2's 500th hit
//   storage.write.enospc=@op10     fire once, on the 10th hit (any rank)
//
// Registered points (see DESIGN.md §8 for the full fault model):
//
//   sstable.write.torn      zero the tail of an SSTable file write (the
//                           records there land short; CRC catches them on
//                           read).  SSData is written in 64 KB chunks, so
//                           this, bitflip and enospc fire once per chunk,
//                           not once per record
//   sstable.write.bitflip   flip one random bit in an SSTable file write
//   storage.write.enospc    fail the write with an injected ENOSPC
//   net.msg.drop            charge the interconnect but never deliver
//   net.msg.dup             deliver the message twice
//   net.msg.delay           add PAPYRUSKV_FAULT_DELAY_US to propagation
//   rank.crash              simulated rank death: volatile MemTables are
//                           discarded and the rank's API calls start
//                           failing (core/runtime.cc)
//   batch.op.fail           fail one op of a batched put on the handler
//                           side; the rest of the batch still applies and
//                           the per-op status travels back in the batch
//                           ack (core/db_shard.cc ApplyBatch)
//   repl.append.drop        swallow a replication append frame on the
//                           follower side before it is applied — no ack is
//                           sent, so the pipeline's frame retry redelivers
//                           and the follower's sequence check dedups
//                           (core/runtime.cc HandleReplAppend)
//   repl.promote.race       stretch the failover election window by 2ms so
//                           concurrent electors overlap; the deterministic
//                           scoring must still converge on one winner
//                           (core/db_shard.cc PromotedOwnerLocked)
//
// Determinism: every point draws from its own generator seeded with
// PAPYRUSKV_FAULT_SEED mixed with the point name, so a fixed seed and spec
// reproduce the same per-point firing sequence.  (Across ranks the
// interleaving of draws still follows thread scheduling — tests that need
// exact firing sites use rank/count triggers, which are scheduling-proof.)
//
// Hot-path cost with faults disabled: one relaxed load of a process-wide
// atomic bool (`Enabled()`), nothing else — the acceptance bar for keeping
// failpoints compiled into release builds.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"

namespace papyrus::fault {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

// True when any failpoint is configured.  Injection sites branch on this
// before touching their Point, so the disabled fast path stays one load.
inline bool Enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

// Rank attribution for rank-scoped triggers.  Set by net::RunRanks for the
// application thread and by KvRuntime::AdoptObservability for the runtime's
// background threads; -1 (unknown) never matches a rank-scoped trigger.
void SetThreadRank(int rank);
int ThreadRank();

// Extra propagation delay charged when net.msg.delay fires
// (PAPYRUSKV_FAULT_DELAY_US, cached at Configure time).
uint64_t DelayMicros();

// One named failpoint.  Stable address for the process lifetime, so
// injection sites may cache `Registry::Instance().GetPoint(...)` in a
// function-local static reference.
class Point {
 public:
  explicit Point(std::string name);
  Point(const Point&) = delete;
  Point& operator=(const Point&) = delete;

  const std::string& name() const { return name_; }

  // True when the fault should be injected at this call site now.  Counts
  // hits (for @opN triggers), honors rank scoping against ThreadRank(), and
  // bumps the obs counter fault.injected.<name> on a hit.
  bool Fire();

  // Deterministic uniform draw in [0, n) from this point's stream — used by
  // injection sites that need a corruption offset/length to go with a hit.
  uint64_t Rand(uint64_t n);

  // Total injections since process start (not reset by Configure).
  uint64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;

  void Deactivate();
  void ActivateProb(int rank, double prob, uint64_t seed);
  void ActivateCount(int rank, uint64_t nth, uint64_t seed);

  const std::string name_;
  // Checked first in Fire so unconfigured points cost one relaxed load.
  std::atomic<bool> active_{false};
  std::atomic<uint64_t> injected_{0};

  // Leaf lock: guards the trigger state below; Fire never takes another
  // lock while holding it.
  Mutex mu_{"fault_point_mu"};
  int rank_ GUARDED_BY(mu_) = -1;       // -1 = any rank
  double prob_ GUARDED_BY(mu_) = 0.0;   // probability trigger
  uint64_t nth_ GUARDED_BY(mu_) = 0;    // >0: fire once on the nth hit
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  bool fired_once_ GUARDED_BY(mu_) = false;
  Rng rng_ GUARDED_BY(mu_) = Rng(0);
};

// Process-wide failpoint registry.
class Registry {
 public:
  static Registry& Instance();

  // Replaces the active configuration with `spec` (syntax above).  An empty
  // spec deactivates everything.  On a malformed spec, all points are
  // deactivated and INVALID_ARG is returned.
  Status Configure(const std::string& spec, uint64_t seed);

  // Configure from PAPYRUSKV_FAULTS / PAPYRUSKV_FAULT_SEED /
  // PAPYRUSKV_FAULT_DELAY_US.  Unset PAPYRUSKV_FAULTS deactivates.
  Status ConfigureFromEnv();

  void DisableAll();

  // Returns the (created-on-demand) point with this name.  The reference
  // stays valid for the process lifetime.
  Point& GetPoint(const std::string& name);

  // Active configuration, one "name=trigger" per entry (diagnostics).
  std::vector<std::string> Describe() const;

 private:
  Registry() = default;

  // Guards the point map; the Point objects themselves are stable
  // (unique_ptr) and internally synchronized.
  mutable Mutex mu_{"fault_registry_mu"};
  std::map<std::string, std::unique_ptr<Point>> points_ GUARDED_BY(mu_);
};

// First-papyruskv_init hook: configures from the environment exactly once
// per process (later inits return the cached status).  Tests bypass this
// and call Registry::Configure directly.
Status InitFromEnvOnce();

}  // namespace papyrus::fault
