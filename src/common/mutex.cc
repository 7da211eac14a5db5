// Runtime lock-order (deadlock-cycle) validator behind common/mutex.h.
//
// Model: a global directed graph over live mutex instances.  When a thread
// that holds H acquires M, the edge H→M ("H is acquired before M") is
// recorded.  If a path M→…→H already exists, some other code path acquires
// these locks in the opposite order — two threads running both paths
// simultaneously can deadlock, even if no schedule has hit it yet.  That
// acquisition aborts immediately, printing the held-lock stack of this
// thread and the stack recorded when each edge of the conflicting path was
// first observed (the "other" order).
//
// The validator's own bookkeeping lock is a raw std::mutex, deliberately
// outside the wrapper: it is a leaf acquired only inside the hooks, and
// instrumenting it would recurse.  // analyze:allow-raw-mutex
//
// Everything here is always compiled (so instrumented and uninstrumented
// translation units link together); the hooks are only *called* from code
// built with PAPYRUS_LOCK_ORDER_DEBUG=1 (default in debug builds).

#include "common/mutex.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace papyrus::lockorder {

namespace {

struct HeldLock {
  const void* mu;
  const char* name;
};

// The calling thread's currently held instrumented locks, oldest first.
thread_local std::vector<HeldLock> t_held;

struct Edge {
  // Human-readable held stack captured when this edge was first recorded:
  // "a -> b" means b was acquired while a was held.
  std::string where;
};

struct Graph {
  std::mutex mu;  // analyze:allow-raw-mutex: validator-internal leaf lock
  // adj[a][b] exists iff "a acquired before b" has been observed.
  std::unordered_map<const void*, std::unordered_map<const void*, Edge>> adj;
  std::unordered_map<const void*, const char*> names;
};

Graph& G() {
  static Graph* g = new Graph();  // leaked: mutexes destruct at exit too
  return *g;
}

std::string DescribeHeld(const std::vector<HeldLock>& held,
                         const char* acquiring_name, const void* acquiring) {
  std::string out;
  for (const auto& h : held) {
    out += h.name;
    out += "(";
    char buf[24];
    snprintf(buf, sizeof(buf), "%p", h.mu);
    out += buf;
    out += ") -> ";
  }
  out += acquiring_name;
  char buf[24];
  snprintf(buf, sizeof(buf), "(%p)", acquiring);
  out += buf;
  return out;
}

// DFS: is `to` reachable from `from`?  On success fills *path with the node
// sequence from→…→to.  Caller holds G().mu.
bool PathExists(const void* from, const void* to,
                std::vector<const void*>* path) {
  std::unordered_set<const void*> visited;
  std::vector<const void*> stack;
  // Iterative DFS keeping the current path for diagnostics.
  struct Frame {
    const void* node;
    std::unordered_map<const void*, Edge>::const_iterator it, end;
  };
  auto& adj = G().adj;
  auto start = adj.find(from);
  path->clear();
  path->push_back(from);
  if (from == to) return true;
  if (start == adj.end()) {
    path->clear();
    return false;
  }
  std::vector<Frame> frames{{from, start->second.begin(), start->second.end()}};
  visited.insert(from);
  while (!frames.empty()) {
    Frame& f = frames.back();
    if (f.it == f.end) {
      frames.pop_back();
      path->pop_back();
      continue;
    }
    const void* next = f.it->first;
    ++f.it;
    if (visited.count(next)) continue;
    visited.insert(next);
    path->push_back(next);
    if (next == to) return true;
    auto it = adj.find(next);
    if (it == adj.end()) {
      path->pop_back();
      continue;
    }
    frames.push_back({next, it->second.begin(), it->second.end()});
  }
  path->clear();
  return false;
}

const char* NameOf(const void* mu) {
  auto it = G().names.find(mu);
  return it == G().names.end() ? "?" : it->second;
}

[[noreturn]] void Die() {
  fflush(stderr);
  abort();
}

}  // namespace

void OnAcquire(const void* mu, const char* name) {
  // Same-thread recursive acquisition: std::mutex would deadlock right
  // here; report it instead of hanging.
  for (const auto& h : t_held) {
    if (h.mu == mu) {
      fprintf(stderr,
              "lockorder: FATAL: thread re-acquires mutex %s(%p) it already "
              "holds\n  held: %s\n",
              name, mu, DescribeHeld(t_held, name, mu).c_str());
      Die();
    }
  }
  if (t_held.empty()) return;

  std::lock_guard<std::mutex> lock(G().mu);
  G().names[mu] = name;
  for (const auto& h : t_held) {
    auto& edges = G().adj[h.mu];
    if (edges.count(mu)) continue;  // order already known-consistent
    std::vector<const void*> path;
    if (PathExists(mu, h.mu, &path)) {
      // Acquiring mu while holding h closes the cycle h→mu→…→h.
      fprintf(stderr,
              "lockorder: FATAL: lock acquisition order inversion "
              "(potential deadlock)\n"
              "  this thread:  %s\n"
              "  conflicting acquisition order previously observed:\n",
              DescribeHeld(t_held, name, mu).c_str());
      for (size_t i = 0; i + 1 < path.size(); ++i) {
        const Edge& e = G().adj[path[i]][path[i + 1]];
        fprintf(stderr, "    %s(%p) before %s(%p)   [recorded at: %s]\n",
                NameOf(path[i]), path[i], NameOf(path[i + 1]), path[i + 1],
                e.where.c_str());
      }
      Die();
    }
    edges.emplace(mu, Edge{DescribeHeld(t_held, name, mu)});
  }
}

void OnLocked(const void* mu, const char* name) {
  t_held.push_back({mu, name});
}

void OnRelease(const void* mu) {
  // Locks are almost always released LIFO; scan from the top to support
  // hand-over-hand patterns too.
  for (size_t i = t_held.size(); i-- > 0;) {
    if (t_held[i].mu == mu) {
      t_held.erase(t_held.begin() + static_cast<long>(i));
      return;
    }
  }
  fprintf(stderr, "lockorder: FATAL: thread releases mutex %p it does not hold\n",
          mu);
  Die();
}

void OnDestroy(const void* mu) {
  std::lock_guard<std::mutex> lock(G().mu);
  G().adj.erase(mu);
  for (auto& [from, edges] : G().adj) edges.erase(mu);
  G().names.erase(mu);
}

bool IsHeld(const void* mu) {
  for (const auto& h : t_held) {
    if (h.mu == mu) return true;
  }
  return false;
}

void ResetForTest() {
  std::lock_guard<std::mutex> lock(G().mu);
  G().adj.clear();
  G().names.clear();
  t_held.clear();
}

}  // namespace papyrus::lockorder
