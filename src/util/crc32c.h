#ifndef LSMLAB_UTIL_CRC32C_H_
#define LSMLAB_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace lsmlab::crc32c {

/// Returns crc32c(concat(A, data[0,n-1])) where init is crc32c(A). Pass 0 as
/// init to compute the CRC of `data` alone. Runs the CPU's crc32
/// instruction where CPUID reports SSE4.2 (chosen once per process), and
/// ExtendPortable() everywhere else.
uint32_t Extend(uint32_t init, const char* data, size_t n);

/// The byte-at-a-time table loop: Extend() on CPUs without a CRC
/// instruction, and the reference the hardware path is tested against.
uint32_t ExtendPortable(uint32_t init, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

constexpr uint32_t kMaskDelta = 0xa282ead8ul;

/// Returns a masked representation of `crc`. Storing raw CRCs of data that
/// itself contains CRCs is error prone; on-disk structures store the mask.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

/// Inverse of Mask().
inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace lsmlab::crc32c

#endif  // LSMLAB_UTIL_CRC32C_H_
