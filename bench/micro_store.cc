// Microbenchmarks of the storage-engine primitives (google-benchmark).
//
// These quantify the data-structure-level choices underneath the figure
// benches: the MemTable index, bloom filter probes, SSTable binary vs
// linear search, the LRU cache, and CRC32C.
#include <benchmark/benchmark.h>

#include "../tests/util/temp_dir.h"
#include "common/crc32.h"
#include "common/random.h"
#include "sim/device_model.h"
#include "store/bloom.h"
#include "store/cache.h"
#include "store/memtable.h"
#include "store/sstable.h"

namespace papyrus {
namespace {

void BM_MemTablePut(benchmark::State& state) {
  const size_t vallen = static_cast<size_t>(state.range(0));
  Rng rng(3);
  std::vector<std::string> keys;
  for (int i = 0; i < 1024; ++i) keys.push_back(RandomKey(rng, 16));
  const std::string value = PatternValue(9, vallen);
  for (auto _ : state) {
    store::MemTable mem(store::MemTable::Kind::kLocal, ~size_t{0});
    for (const auto& k : keys) mem.Put(k, value, false, 0);
    benchmark::DoNotOptimize(mem.Count());
  }
  state.SetBytesProcessed(state.iterations() * 1024 *
                          static_cast<int64_t>(vallen));
}
BENCHMARK(BM_MemTablePut)->Arg(256)->Arg(4096)->Arg(65536);

// Point lookups in a table the size of perfbench hot_sync's: 100k 16-byte
// keys with 128 B values.
void BM_MemTableGet(benchmark::State& state) {
  constexpr int kKeys = 100000;
  Rng rng(2);
  std::vector<std::string> keys;
  store::MemTable mem(store::MemTable::Kind::kLocal, ~size_t{0});
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back(RandomKey(rng, 16));
    mem.Put(keys.back(), PatternValue(i, 128), false, 0);
  }
  std::string value;
  bool tomb;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mem.Get(keys[rng.Uniform(kKeys)], &value, &tomb));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTableGet);

void BM_BloomQuery(benchmark::State& state) {
  Rng rng(4);
  store::BloomFilter bloom(100000, 10);
  for (int i = 0; i < 100000; ++i) bloom.Add(RandomKey(rng, 16));
  std::vector<std::string> probes;
  for (int i = 0; i < 1024; ++i) probes.push_back(RandomKey(rng, 16));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bloom.MayContain(probes[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomQuery);

void BM_SSTableSearch(benchmark::State& state) {
  const bool binary = state.range(0) != 0;
  sim::SetTimeScale(0);
  static testutil::TempDir tmp("micro_sst");
  static store::SSTablePtr reader = [] {
    store::SSTableBuilder builder(tmp.path(), 1, 8192);
    for (int i = 0; i < 8192; ++i) {
      char key[32];
      snprintf(key, sizeof(key), "key%08d", i);
      if (!builder.Add(key, PatternValue(i, 128), 0).ok()) std::abort();
    }
    if (!builder.Finish().ok()) std::abort();
    store::SSTablePtr r;
    if (!store::SSTableReader::Open(tmp.path(), 1, &r).ok()) std::abort();
    return r;
  }();
  Rng rng(5);
  for (auto _ : state) {
    char key[32];
    snprintf(key, sizeof(key), "key%08d",
             static_cast<int>(rng.Uniform(8192)));
    std::string value;
    bool tomb, found;
    if (!reader->Get(key,
                     binary ? store::SearchMode::kBinary
                            : store::SearchMode::kLinear,
                     &value, &tomb, &found)
             .ok()) {
      std::abort();
    }
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SSTableSearch)->Arg(0)->Arg(1)->ArgNames({"binary"});

void BM_LruCache(benchmark::State& state) {
  store::LruCache cache(64 << 20);
  Rng rng(6);
  std::vector<std::string> keys;
  for (int i = 0; i < 1024; ++i) {
    keys.push_back(RandomKey(rng, 16));
    cache.Put(keys.back(), PatternValue(i, 256), false);
  }
  size_t i = 0;
  std::string value;
  bool tomb;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Get(keys[i++ & 1023], &value, &tomb));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruCache);

void BM_Crc32c(benchmark::State& state) {
  const std::string data = PatternValue(7, 64 << 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Crc32c);

}  // namespace
}  // namespace papyrus

BENCHMARK_MAIN();
