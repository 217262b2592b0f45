#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define LSMLAB_CRC32C_SSE42 1
#endif

namespace lsmlab::crc32c {

namespace {

// Table-driven CRC-32C (Castagnoli polynomial 0x82f63b78, reflected).
constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

#ifdef LSMLAB_CRC32C_SSE42
// SSE4.2's crc32 instruction computes the same polynomial, 8 bytes per
// step. Compiled for SSE4.2 on its own, so the rest of the build keeps the
// baseline ISA and this runs only where CPUID reports the instruction.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init,
                                                       const char* data,
                                                       size_t n) {
  uint64_t crc = init ^ 0xffffffffu;
  const char* p = data;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*p));
  }
  return crc32 ^ 0xffffffffu;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn ChooseExtend() {
#ifdef LSMLAB_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    return ExtendSse42;
  }
#endif
  return ExtendPortable;
}

}  // namespace

uint32_t ExtendPortable(uint32_t init, const char* data, size_t n) {
  uint32_t crc = init ^ 0xffffffffu;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

uint32_t Extend(uint32_t init, const char* data, size_t n) {
  static const ExtendFn extend = ChooseExtend();
  return extend(init, data, n);
}

}  // namespace lsmlab::crc32c
