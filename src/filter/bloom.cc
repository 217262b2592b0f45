#include <algorithm>
#include <cmath>

#include "filter/bloom_kernel.h"
#include "filter/filter_policy.h"
#include "util/hash.h"

namespace lsmlab {

namespace {

inline uint32_t BloomHash(const Slice& key) {
  return HashSlice32(key, 0xbc9f1d34u);
}

class BloomFilterPolicy final : public FilterPolicy {
 public:
  explicit BloomFilterPolicy(double bits_per_key)
      : bits_per_key_(std::max(0.0, bits_per_key)) {
    // k = bits_per_key * ln(2) minimizes the false-positive rate.
    k_ = static_cast<int>(std::round(bits_per_key_ * 0.69314718056));
    k_ = std::clamp(k_, 1, 30);
  }

  const char* Name() const override { return "lsmlab.BloomFilter"; }

  void CreateFilter(const Slice* keys, int n, std::string* dst) const override {
    size_t bits = static_cast<size_t>(
        std::max(64.0, bits_per_key_ * static_cast<double>(n)));
    size_t bytes = (bits + 7) / 8;
    bits = bytes * 8;

    const size_t init_size = dst->size();
    dst->resize(init_size + bytes, 0);
    dst->push_back(static_cast<char>(k_));  // Probe count trailer.
    char* array = dst->data() + init_size;
    for (int i = 0; i < n; ++i) {
      BloomProbes(BloomHash(keys[i]), k_, [&](uint32_t h) {
        const uint32_t bitpos = h % bits;
        array[bitpos / 8] |= (1 << (bitpos % 8));
        return true;
      });
    }
  }

  bool KeyMayMatch(const Slice& key, const Slice& filter) const override {
    const size_t len = filter.size();
    if (len < 2) {
      return false;
    }
    const char* array = filter.data();
    const size_t bits = (len - 1) * 8;

    const int k = array[len - 1];
    if (k > 30 || k < 1) {
      // Reserved for future encodings: treat as a match (no false negatives).
      return true;
    }

    return BloomProbes(BloomHash(key), k, [&](uint32_t h) {
      const uint32_t bitpos = h % bits;
      return (array[bitpos / 8] & (1 << (bitpos % 8))) != 0;
    });
  }

 private:
  double bits_per_key_;
  int k_;
};

class BlockedBloomFilterPolicy final : public FilterPolicy {
 public:
  explicit BlockedBloomFilterPolicy(double bits_per_key)
      : bits_per_key_(std::max(0.0, bits_per_key)) {
    k_ = static_cast<int>(std::round(bits_per_key_ * 0.69314718056));
    k_ = std::clamp(k_, 1, 16);
  }

  const char* Name() const override { return "lsmlab.BlockedBloomFilter"; }

  void CreateFilter(const Slice* keys, int n, std::string* dst) const override {
    size_t bits = static_cast<size_t>(
        std::max(static_cast<double>(kBloomLineBits),
                 bits_per_key_ * static_cast<double>(n)));
    size_t num_lines = (bits + kBloomLineBits - 1) / kBloomLineBits;
    size_t bytes = num_lines * kBloomLineBytes;

    const size_t init_size = dst->size();
    dst->resize(init_size + bytes, 0);
    dst->push_back(static_cast<char>(k_));
    char* array = dst->data() + init_size;
    for (int i = 0; i < n; ++i) {
      BlockedBloomProbes(HashSlice64(keys[i]), num_lines, k_, [&](size_t bit) {
        array[bit / 8] |= (1 << (bit % 8));
        return true;
      });
    }
  }

  bool KeyMayMatch(const Slice& key, const Slice& filter) const override {
    if (filter.size() < kBloomLineBytes + 1) {
      return false;
    }
    const char* array = filter.data();
    const size_t num_lines = (filter.size() - 1) / kBloomLineBytes;
    const int k = array[filter.size() - 1];
    if (k > 16 || k < 1) {
      return true;
    }
    return BlockedBloomProbes(HashSlice64(key), num_lines, k, [&](size_t bit) {
      return (array[bit / 8] & (1 << (bit % 8))) != 0;
    });
  }

 private:
  double bits_per_key_;
  int k_;
};

}  // namespace

std::shared_ptr<const FilterPolicy> NewBloomFilterPolicy(double bits_per_key) {
  return std::make_shared<BloomFilterPolicy>(bits_per_key);
}

std::shared_ptr<const FilterPolicy> NewBlockedBloomFilterPolicy(
    double bits_per_key) {
  return std::make_shared<BlockedBloomFilterPolicy>(bits_per_key);
}

}  // namespace lsmlab
