// MemTable: the in-memory level of the LSM tree.
//
// Paper §2.3–§2.4: a database holds four kinds of MemTables (local,
// immutable local, remote, immutable remote).  A MemTable is a red-black
// tree indexed by key; each entry carries the value and a tombstone bit,
// and — in *remote* MemTables only — the owner rank number, so migration
// can sort and batch entries per owner.  When a MemTable reaches its
// capacity limit it is sealed (becomes immutable) and handed to the
// compaction thread (local) or the async pipeline's ops lane (remote).
//
// The tree is std::map, the standard library's red-black tree.  Its
// transparent comparator lets Get/Put search with the caller's bytes
// without first copying them into a std::string.  std::string compares
// bytes as unsigned char, the order of Slice::compare, so in-order
// iteration is the strictly ascending order SSTableBuilder::Add requires.
//
// This one class covers all four roles: kind() records local/remote;
// Seal() flips it immutable.  Thread safety: a shared_mutex — the owning
// rank writes, while the message handler and remote readers may search
// concurrently (paper's get path probes the mutable table and the queued
// immutable tables).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/slice.h"

namespace papyrus::store {

class MemTable {
 public:
  enum class Kind { kLocal, kRemote };

  struct Entry {
    std::string value;
    bool tombstone = false;
    int owner = -1;  // meaningful only in remote MemTables
  };

  // capacity_bytes is the paper's "MemTable threshold": once the charged
  // byte size passes it, Full() turns true and the owner seals the table.
  MemTable(Kind kind, size_t capacity_bytes)
      : kind_(kind), capacity_bytes_(capacity_bytes) {}

  Kind kind() const { return kind_; }

  // Inserts or replaces key → (value, tombstone).  owner is stored for
  // remote tables.  Returns false if the table is sealed (caller must
  // retry on the new mutable table).
  bool Put(const Slice& key, const Slice& value, bool tombstone, int owner);

  // Looks up key.  Returns true if present (tombstones count as present:
  // the caller must check *tombstone — finding a tombstone ends the search
  // with NOT_FOUND, it must not fall through to older levels).
  bool Get(const Slice& key, std::string* value, bool* tombstone,
           int* owner = nullptr) const;

  // Marks the table immutable; subsequent Put() calls fail.
  void Seal();
  bool sealed() const;

  size_t ApproxBytes() const;
  size_t Count() const;
  bool Full() const { return ApproxBytes() >= capacity_bytes_; }

  // Visits entries in sorted key order (flush path requires sorted output).
  // The table must be sealed — sorted iteration of a live table would race.
  void ForEachSorted(
      const std::function<void(const Slice& key, const Entry&)>& fn) const;

 private:
  Kind kind_;
  size_t capacity_bytes_;
  // Leaf lock: the owning rank writes, handler/remote readers share-lock.
  mutable SharedMutex mu_{"memtable_mu"};
  bool sealed_ GUARDED_BY(mu_) = false;
  size_t bytes_ GUARDED_BY(mu_) = 0;
  std::map<std::string, Entry, std::less<>> tree_ GUARDED_BY(mu_);
};

using MemTablePtr = std::shared_ptr<MemTable>;

}  // namespace papyrus::store
