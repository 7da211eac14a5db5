#include "common/crc32.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace papyrus {
namespace {

TEST(Crc32Test, KnownVectors) {
  // Standard CRC-32C check value for "123456789".
  EXPECT_EQ(Crc32c("123456789", 9), 0xe3069283u);
  // Empty input.
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32Test, Incremental) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(data.data(), data.size());
  const uint32_t part1 = Crc32c(data.data(), 10);
  const uint32_t part2 = Crc32c(data.data() + 10, data.size() - 10, part1);
  EXPECT_EQ(whole, part2);
}

// The textbook bit-at-a-time CRC-32C that every Crc32c path must
// reproduce bit for bit.
uint32_t BytewiseCrc32c(const unsigned char* p, size_t n, uint32_t init) {
  uint32_t c = init ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0x82f63b78u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xffffffffu;
}

// Both implementations: Crc32c (the SSE4.2 instruction when this CPU has
// it) and the portable table loop it otherwise falls back to.
struct CrcPath {
  const char* name;
  uint32_t (*fn)(const void*, size_t, uint32_t);
};
std::vector<CrcPath> Paths() {
  return {{"Crc32c", &Crc32c}, {"Crc32cTable", &Crc32cTable}};
}

std::vector<unsigned char> LcgBytes(size_t n) {
  std::vector<unsigned char> buf(n);
  uint32_t x = 0x9e3779b9u;
  for (unsigned char& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  return buf;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  const std::vector<unsigned char> buf = LcgBytes(1100 + 8);
  for (const CrcPath& path : Paths()) {
    for (size_t align = 0; align < 8; ++align) {
      const unsigned char* p = buf.data() + align;
      for (size_t n = 0; n <= 1100; ++n) {
        ASSERT_EQ(path.fn(p, n, 0), BytewiseCrc32c(p, n, 0))
            << path.name << " n=" << n << " align=" << align;
      }
    }
  }
}

TEST(Crc32Test, ChainedInitMatchesBytewiseReference) {
  std::vector<unsigned char> buf(1100);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  for (const CrcPath& path : Paths()) {
    for (uint32_t init : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
      for (size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 1023u, 1100u}) {
        EXPECT_EQ(path.fn(buf.data(), n, init),
                  BytewiseCrc32c(buf.data(), n, init))
            << path.name << " n=" << n << " init=" << init;
      }
    }
    // Any split point chains to the one-shot result.
    const uint32_t whole = path.fn(buf.data(), buf.size(), 0);
    for (size_t cut = 0; cut <= buf.size(); cut += 37) {
      const uint32_t head = path.fn(buf.data(), cut, 0);
      EXPECT_EQ(path.fn(buf.data() + cut, buf.size() - cut, head), whole)
          << path.name << " cut=" << cut;
    }
  }
}

TEST(Crc32Test, LargeBufferMatchesBytewiseReference) {
  // Several read-ahead chunks' worth, at an odd alignment and length.
  const std::vector<unsigned char> buf = LcgBytes(200 * 1024 + 3);
  const uint32_t want = BytewiseCrc32c(buf.data() + 3, buf.size() - 3, 0);
  for (const CrcPath& path : Paths()) {
    EXPECT_EQ(path.fn(buf.data() + 3, buf.size() - 3, 0), want) << path.name;
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(256, 'x');
  const uint32_t clean = Crc32c(data.data(), data.size());
  for (size_t bit : {0u, 7u, 1000u, 2047u}) {
    std::string mutated = data;
    mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    EXPECT_NE(Crc32c(mutated.data(), mutated.size()), clean) << bit;
  }
}

TEST(Crc32Test, MaskRoundTrip) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
    EXPECT_NE(MaskCrc(crc), crc);
  }
}

}  // namespace
}  // namespace papyrus
