// Shared fixture pieces for the PapyrusKV integration tests: a clean temp
// repository, scrubbed PAPYRUSKV_* environment, zero time-scale, and a
// helper that runs a rank function bracketed by init/finalize.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>

#include "../util/temp_dir.h"
#include "core/db_shard.h"
#include "core/papyruskv.h"
#include "core/runtime.h"
#include "net/runtime.h"
#include "sim/device_model.h"

namespace papyrus::testutil {

inline void ScrubKvEnv() {
  // PAPYRUSKV_FAULTS is deliberately NOT scrubbed: the CI fault matrix
  // re-runs these suites under a canned failpoint profile, which must
  // reach the runtime.  The retry/seed knobs are scrubbed so individual
  // tests always see the documented defaults.
  for (const char* var :
       {"PAPYRUSKV_REPOSITORY", "PAPYRUSKV_GROUP_SIZE",
        "PAPYRUSKV_CONSISTENCY", "PAPYRUSKV_BIN_SEARCH",
        "PAPYRUSKV_CACHE_REMOTE", "PAPYRUSKV_FORCE_REDISTRIBUTE",
        "PAPYRUSKV_MEMTABLE_SIZE", "PAPYRUSKV_LUSTRE",
        "PAPYRUSKV_FAULT_SEED", "PAPYRUSKV_FAULT_DELAY_US",
        "PAPYRUSKV_TIMEOUT_MS", "PAPYRUSKV_RETRY_MAX",
        "PAPYRUSKV_BARRIER_TIMEOUT_MS", "PAPYRUSKV_BATCH_MAX",
        "PAPYRUSKV_BATCH_WINDOW_US", "PAPYRUSKV_REPLICAS",
        "PAPYRUSKV_READ_REPLICAS"}) {
    unsetenv(var);
  }
}

class KvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ScrubKvEnv();
    sim::SetTimeScale(0.0);
  }
  void TearDown() override {
    ScrubKvEnv();
    sim::DeviceRegistry::Instance().Clear();
  }

  // Runs fn on nranks ranks with papyruskv_init/finalize around it.
  void RunKv(int nranks, const std::string& repo,
             const std::function<void(net::RankContext&)>& fn,
             int ranks_per_node = 0) {
    sim::Topology topo;
    topo.nranks = nranks;
    topo.ranks_per_node = ranks_per_node > 0 ? ranks_per_node : nranks;
    net::RunRanks(topo, [&](net::RankContext& ctx) {
      ASSERT_EQ(papyruskv_init(nullptr, nullptr, repo.c_str()),
                PAPYRUSKV_SUCCESS);
      fn(ctx);
      ASSERT_EQ(papyruskv_finalize(), PAPYRUSKV_SUCCESS);
    });
  }

  TempDir tmp_{"papyruskv_core"};
};

// put/get helpers over the C API.
inline int PutStr(papyruskv_db_t db, const std::string& k,
                  const std::string& v) {
  return papyruskv_put(db, k.data(), k.size(), v.data(), v.size());
}

inline int GetStr(papyruskv_db_t db, const std::string& k, std::string* out) {
  char* value = nullptr;
  size_t vallen = 0;
  const int rc = papyruskv_get(db, k.data(), k.size(), &value, &vallen);
  if (rc == PAPYRUSKV_SUCCESS) {
    out->assign(value, vallen);
    EXPECT_EQ(papyruskv_free(db, value), PAPYRUSKV_SUCCESS);
  }
  return rc;
}

// The calling rank's db-scoped registry counter "db.<name of db>.<counter>".
inline uint64_t DbCounter(papyruskv_db_t db, const char* counter) {
  return core::KvRuntime::Current()
      ->metrics()
      .GetCounter("db." + core::DbHandle(db)->name() + "." + counter)
      .Value();
}

}  // namespace papyrus::testutil
