// Fixture: unguarded-mutex must trip — a Mutex member no annotation in
// its class references.
#pragma once

#include "common/mutex.h"

namespace fixture {

class Registry {
 public:
  void Add(int v);

 private:
  papyrus::Mutex mu_{"fixture_registry_mu"};
  int count_ = 0;  // should be GUARDED_BY(mu_) — and mu_ is never referenced
};

}  // namespace fixture
