#include "store/memtable.h"

#include <cassert>

namespace papyrus::store {

bool MemTable::Put(const Slice& key, const Slice& value, bool tombstone,
                   int owner) {
  WriterMutexLock lock(&mu_);
  if (sealed_) return false;
  Entry e;
  e.value = value.ToString();
  e.tombstone = tombstone;
  e.owner = owner;
  const size_t new_charge = key.size() + value.size() + sizeof(Entry);
  // One tree walk: the lower bound is either the key itself or the hint
  // for inserting it.
  auto it = tree_.lower_bound(key.view());
  if (it != tree_.end() && it->first == key.view()) {
    // Replace in place (the paper: the old pair is deleted first).
    bytes_ -= it->first.size() + it->second.value.size() + sizeof(Entry);
    it->second = std::move(e);
  } else {
    tree_.emplace_hint(it, key.view(), std::move(e));
  }
  bytes_ += new_charge;
  return true;
}

bool MemTable::Get(const Slice& key, std::string* value, bool* tombstone,
                   int* owner) const {
  ReaderMutexLock lock(&mu_);
  auto it = tree_.find(key.view());
  if (it == tree_.end()) return false;
  const Entry& e = it->second;
  if (value) *value = e.value;
  if (tombstone) *tombstone = e.tombstone;
  if (owner) *owner = e.owner;
  return true;
}

void MemTable::Seal() {
  WriterMutexLock lock(&mu_);
  sealed_ = true;
}

bool MemTable::sealed() const {
  ReaderMutexLock lock(&mu_);
  return sealed_;
}

size_t MemTable::ApproxBytes() const {
  ReaderMutexLock lock(&mu_);
  return bytes_;
}

size_t MemTable::Count() const {
  ReaderMutexLock lock(&mu_);
  return tree_.size();
}

void MemTable::ForEachSorted(
    const std::function<void(const Slice&, const Entry&)>& fn) const {
  ReaderMutexLock lock(&mu_);
  assert(sealed_ && "sorted iteration requires a sealed MemTable");
  for (const auto& [key, entry] : tree_) fn(Slice(key), entry);
}

}  // namespace papyrus::store
