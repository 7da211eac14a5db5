#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace papyrus {
namespace {

// Reflected CRC-32C polynomial.
constexpr uint32_t kPoly = 0x82f63b78u;

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[i] = c;
  }
  return t;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

#if defined(__x86_64__)
// SSE4.2 `crc32` computes exactly this polynomial, eight bytes per
// instruction.  Compiled for SSE4.2 regardless of the build's -march; only
// called after the CPU check in Crc32c.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t n,
                                                       uint32_t init) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t c = init ^ 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return c32 ^ 0xffffffffu;
}
#endif

}  // namespace

uint32_t Crc32cTable(const void* data, size_t n, uint32_t init) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = init ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c = kTable[(c ^ p[i]) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

uint32_t Crc32c(const void* data, size_t n, uint32_t init) {
#if defined(__x86_64__)
  static const bool kHaveSse42 = __builtin_cpu_supports("sse4.2");
  if (kHaveSse42) return Crc32cSse42(data, n, init);
#endif
  return Crc32cTable(data, n, init);
}

}  // namespace papyrus
