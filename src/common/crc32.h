// CRC-32C (Castagnoli) used to protect SSTable blocks and checkpoint images
// against corruption on (simulated) NVM.  Uses the SSE4.2 `crc32`
// instruction when the CPU has it and a portable table-driven loop
// otherwise; the polynomial matches what iSCSI/ext4/LevelDB use so the
// values are easy to cross-check.
#pragma once

#include <cstddef>
#include <cstdint>

namespace papyrus {

// CRC of [data, data+n), seeded with `init` (pass 0 for a fresh CRC, or a
// previous result to extend it over concatenated buffers).
uint32_t Crc32c(const void* data, size_t n, uint32_t init = 0);

// The portable table-driven path Crc32c falls back to on CPUs without
// SSE4.2.  Exposed so tests check it on any CPU.
uint32_t Crc32cTable(const void* data, size_t n, uint32_t init = 0);

// A CRC stored on disk is masked so that computing a CRC over a buffer that
// itself embeds CRCs does not degenerate (same trick as LevelDB).
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
inline uint32_t UnmaskCrc(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace papyrus
