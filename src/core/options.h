// Public constants and per-database options.
//
// Mirrors the paper's API surface (Table 1): open flags, consistency modes
// (§3.1), protection attributes (§3.2), barrier flush levels, plus the
// tunables the paper calls out as application-configurable (§2.3:
// "Programmers can configure the database properties (e.g., MemTable
// capacity, cache on/off, cache capacity, memory consistency mode,
// protection attribute, and custom hash function)").
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/hash.h"

// ---- Public constants (shared by the C API) -------------------------------

// papyruskv_open flags.
enum : int {
  PAPYRUSKV_CREATE = 0x1,  // create if absent
  PAPYRUSKV_RDWR = 0x6,    // read-write (default)
  PAPYRUSKV_WRONLY = 0x2,  // write-only phase: local cache disabled
  PAPYRUSKV_RDONLY = 0x4,  // read-only phase: remote cache enabled
};

// Memory consistency modes (papyruskv_consistency).  Values match the
// artifact appendix: PAPYRUSKV_CONSISTENCY=1 selects sequential, 2 relaxed.
enum : int {
  PAPYRUSKV_SEQUENTIAL = 1,
  PAPYRUSKV_RELAXED = 2,
};

// papyruskv_barrier levels.
enum : int {
  PAPYRUSKV_MEMTABLE = 1,  // all migrations delivered; data in MemTables
  PAPYRUSKV_SSTABLE = 2,   // additionally flush every MemTable to SSTables
};

namespace papyrus::core {

// C++-side option block.  The C struct papyruskv_option_t converts to this.
struct Options {
  // --- paper-named options ---
  size_t keylen_hint = 0;           // expected key length (0 = unknown)
  size_t vallen_hint = 0;           // expected value length
  KeyHashFn hash = nullptr;         // custom hash; null = built-in FNV-1a
  int consistency = PAPYRUSKV_RELAXED;
  int protection = PAPYRUSKV_RDWR;

  // --- capacity / structure tunables ---
  size_t memtable_bytes = 4u << 20;      // MemTable capacity limit
  bool cache_local_enabled = true;
  size_t cache_local_bytes = 8u << 20;
  size_t cache_remote_bytes = 8u << 20;  // active only under RDONLY
  uint64_t compaction_trigger = 4;       // merge when ssid % trigger == 0
  int bloom_bits_per_key = 10;
  bool sstable_binary_search = true;     // Fig. 8 "B" optimization
  // Storage-group size in ranks; -1 = derive from topology (ranks/node) or
  // PAPYRUSKV_GROUP_SIZE.
  int group_size = -1;

  // --- intra-group replication (DESIGN.md §12) ---
  // Copies of each rank's partition inside its storage group, counting the
  // primary: 1 = no replication (today's behavior).  Clamped to the group
  // size; PAPYRUSKV_REPLICAS overrides.
  int replicas = 1;
  // Allow gets on a replicated slot to be served from an in-sync follower's
  // shadow MemTable (round-robin); PAPYRUSKV_READ_REPLICAS=1 overrides.
  bool read_from_replica = false;
};

}  // namespace papyrus::core
