#ifndef LSMLAB_FILTER_BLOOM_KERNEL_H_
#define LSMLAB_FILTER_BLOOM_KERNEL_H_

#include <cstddef>
#include <cstdint>

namespace lsmlab {

/// The Bloom probe loop, the one copy every Bloom filter in lsmlab runs:
/// the SST filter policies, the range filters' bit arrays and the memtable
/// filter. Double hashing: probe i is h + i * delta, with delta the hash
/// rotated right by 17 bits, so k probes cost one hash. Calls `probe(p)`
/// for each of the k probe values in turn and stops at the first that
/// returns false; returns whether every call returned true.
template <typename Probe>
inline bool BloomProbes(uint32_t h, int k, Probe&& probe) {
  const uint32_t delta = (h >> 17) | (h << 15);
  for (int i = 0; i < k; ++i) {
    if (!probe(h)) {
      return false;
    }
    h += delta;
  }
  return true;
}

/// A blocked ("cache-local") Bloom filter is an array of 64-byte lines and
/// keeps every probe of a key inside one line, so a check touches one
/// cache line.
constexpr size_t kBloomLineBytes = 64;
constexpr uint32_t kBloomLineBits = kBloomLineBytes * 8;

/// The blocked Bloom kernel: the high 32 bits of a key's 64-bit hash pick
/// the line, the low 32 bits drive `k` probes inside it. Calls
/// `bit(i)` with each probed bit's index into the whole filter (bit i is
/// bit i % 8 of byte i / 8, which on a little-endian host is bit i % 64 of
/// 64-bit word i / 64), stopping at the first that returns false.
template <typename Bit>
inline bool BlockedBloomProbes(uint64_t h, size_t num_lines, int k,
                               Bit&& bit) {
  const size_t line_start =
      static_cast<size_t>((h >> 32) % num_lines) * kBloomLineBits;
  return BloomProbes(static_cast<uint32_t>(h), k, [&](uint32_t p) {
    return bit(line_start + p % kBloomLineBits);
  });
}

}  // namespace lsmlab

#endif  // LSMLAB_FILTER_BLOOM_KERNEL_H_
