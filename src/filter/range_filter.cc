#include "filter/range_filter.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "filter/bloom_kernel.h"
#include "util/hash.h"

namespace lsmlab {

uint64_t DefaultKeyToUint64(const Slice& key) {
  uint64_t v = 0;
  size_t n = std::min<size_t>(8, key.size());
  for (size_t i = 0; i < n; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(key[i]))
         << (8 * (7 - i));
  }
  return v;
}

namespace {

/// A plain bit-array Bloom filter used as the building block here (the
/// FilterPolicy interface is batch-build; range filters build incrementally).
class BloomBits {
 public:
  void Init(size_t num_keys, double bits_per_key) {
    size_t bits = static_cast<size_t>(
        std::max(64.0, bits_per_key * static_cast<double>(num_keys)));
    bits_.assign((bits + 7) / 8, 0);
    num_bits_ = bits_.size() * 8;
    k_ = std::clamp(
        static_cast<int>(std::round(bits_per_key * 0.69314718056)), 1, 20);
  }

  void Add(uint64_t h) {
    BloomProbes(static_cast<uint32_t>(h), k_, [&](uint32_t probe) {
      size_t bit = probe % num_bits_;
      bits_[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
      return true;
    });
  }

  bool MayContain(uint64_t h) const {
    if (num_bits_ == 0) {
      return false;
    }
    return BloomProbes(static_cast<uint32_t>(h), k_, [&](uint32_t probe) {
      size_t bit = probe % num_bits_;
      return (bits_[bit / 8] & (1u << (bit % 8))) != 0;
    });
  }

  size_t MemoryUsage() const { return bits_.size(); }

 private:
  std::vector<uint8_t> bits_;
  size_t num_bits_ = 0;
  int k_ = 1;
};

// ---------------------------------------------------------------------------
// Prefix Bloom
// ---------------------------------------------------------------------------

class PrefixBloomRangeFilter final : public RangeFilter {
 public:
  PrefixBloomRangeFilter(size_t prefix_len, double bits_per_prefix)
      : prefix_len_(prefix_len), bits_per_prefix_(bits_per_prefix) {}

  const char* Name() const override { return "prefix-bloom"; }

  void AddKey(const Slice& key) override {
    prefixes_.insert(Prefix(key));
  }

  void Finish() override {
    bloom_.Init(prefixes_.size(), bits_per_prefix_);
    for (const auto& p : prefixes_) {
      bloom_.Add(Hash64(p.data(), p.size(), 0x7b1fa2));
    }
    prefixes_.clear();
    finished_ = true;
  }

  bool MayContainRange(const Slice& lo, const Slice& hi) const override {
    // Enumerate the prefixes covering [lo, hi]; if too many, fail open.
    std::string p = Prefix(lo);
    std::string hi_prefix = Prefix(hi);
    for (int budget = 0; budget < kMaxPrefixProbes; ++budget) {
      if (bloom_.MayContain(Hash64(p.data(), p.size(), 0x7b1fa2))) {
        return true;
      }
      if (p >= hi_prefix) {
        return false;
      }
      if (!IncrementPrefix(&p)) {
        return false;  // Wrapped past the maximum prefix.
      }
    }
    return true;  // Budget exhausted: maybe.
  }

  size_t MemoryUsage() const override { return bloom_.MemoryUsage(); }

 private:
  static constexpr int kMaxPrefixProbes = 64;

  std::string Prefix(const Slice& key) const {
    std::string p(key.data(), std::min(prefix_len_, key.size()));
    p.resize(prefix_len_, '\0');  // Short keys pad with the minimum byte.
    return p;
  }

  static bool IncrementPrefix(std::string* p) {
    for (size_t i = p->size(); i-- > 0;) {
      if (static_cast<uint8_t>((*p)[i]) != 0xff) {
        (*p)[i] = static_cast<char>(static_cast<uint8_t>((*p)[i]) + 1);
        std::fill(p->begin() + static_cast<long>(i) + 1, p->end(), '\0');
        return true;
      }
    }
    return false;
  }

  const size_t prefix_len_;
  const double bits_per_prefix_;
  std::set<std::string> prefixes_;
  BloomBits bloom_;
  bool finished_ = false;
};

// ---------------------------------------------------------------------------
// Rosetta
// ---------------------------------------------------------------------------

class RosettaRangeFilter final : public RangeFilter {
 public:
  RosettaRangeFilter(double bits_per_key, int levels,
                     std::function<uint64_t(const Slice&)> codec)
      : levels_(std::clamp(levels, 1, 64)),
        bits_per_key_(bits_per_key),
        codec_(codec ? std::move(codec) : DefaultKeyToUint64) {}

  const char* Name() const override { return "rosetta"; }

  void AddKey(const Slice& key) override { keys_.push_back(codec_(key)); }

  void Finish() override {
    // Materialize Bloom filters for the deepest `levels_` prefix lengths
    // (bit-prefix lengths 64-levels_+1 .. 64). Memory is allocated
    // leaf-heavy (halving per level upward), as in Rosetta: the leaf level
    // does the final doubt resolution and deserves the lowest FPR.
    min_level_ = 64 - levels_ + 1;
    blooms_.resize(static_cast<size_t>(levels_));
    double total_weight = 0;
    double w = 1.0;
    for (int i = 0; i < levels_; ++i) {
      total_weight += w;
      w *= 0.5;
    }
    w = 1.0;
    for (int l = 64; l >= min_level_; --l, w *= 0.5) {
      double level_bits = bits_per_key_ * (w / total_weight);
      auto& bloom = blooms_[static_cast<size_t>(l - min_level_)];
      bloom.Init(keys_.size(), level_bits);
      for (uint64_t k : keys_) {
        bloom.Add(PrefixHash(k, l));
      }
    }
    keys_.clear();
    keys_.shrink_to_fit();
    finished_ = true;
  }

  bool MayContainRange(const Slice& lo, const Slice& hi) const override {
    uint64_t a = codec_(lo);
    uint64_t b = codec_(hi);
    if (a > b) {
      std::swap(a, b);
    }
    // Decompose [a, b] into maximal dyadic blocks; each block is a segment
    // tree node fully inside the range.
    int budget = kProbeBudget;
    uint64_t cur = a;
    while (true) {
      // Largest aligned block starting at cur that fits within [cur, b].
      int k = cur == 0 ? 64 : CountTrailingZeros(cur);
      while (k > 0 &&
             (k >= 64 || cur + ((uint64_t{1} << k) - 1) > b)) {
        --k;
      }
      int level = 64 - k;
      if (level < min_level_) {
        // The block is shallower than any materialized filter: the range is
        // too long for this filter's resolution; fail open.
        return true;
      }
      if (ProbeDown(cur, level, &budget)) {
        return true;
      }
      uint64_t block = (k >= 63) ? 0 : (uint64_t{1} << k);
      uint64_t block_end = cur + (block == 0 ? ~uint64_t{0} : block - 1);
      if (block_end >= b || block == 0) {
        return false;
      }
      cur = block_end + 1;
    }
  }

  size_t MemoryUsage() const override {
    size_t total = 0;
    for (const auto& bloom : blooms_) {
      total += bloom.MemoryUsage();
    }
    return total;
  }

 private:
  static constexpr int kProbeBudget = 4096;

  static int CountTrailingZeros(uint64_t v) {
    return v == 0 ? 64 : __builtin_ctzll(v);
  }

  /// Hash of the `level`-bit prefix of `key`, level in [min_level_, 64].
  uint64_t PrefixHash(uint64_t key, int level) const {
    uint64_t prefix =
        level >= 64 ? key : (key >> (64 - level)) << (64 - level);
    char buf[9];
    std::memcpy(buf, &prefix, 8);
    buf[8] = static_cast<char>(level);
    return Hash64(buf, 9, 0x526f7365);
  }

  const BloomBits& BloomAt(int level) const {
    return blooms_[static_cast<size_t>(level - min_level_)];
  }

  /// Doubt resolution: the node (`prefix`, `level`) lies fully inside the
  /// query range; does some key below it really exist?
  bool ProbeDown(uint64_t prefix, int level, int* budget) const {
    if (*budget <= 0) {
      return true;  // Out of budget: fail open.
    }
    --*budget;
    if (!BloomAt(level).MayContain(PrefixHash(prefix, level))) {
      return false;
    }
    if (level == 64) {
      return true;  // Leaf-level hit.
    }
    uint64_t half = uint64_t{1} << (64 - level - 1);
    return ProbeDown(prefix, level + 1, budget) ||
           ProbeDown(prefix + half, level + 1, budget);
  }

  const int levels_;
  const double bits_per_key_;
  const std::function<uint64_t(const Slice&)> codec_;
  int min_level_ = 1;
  std::vector<uint64_t> keys_;
  std::vector<BloomBits> blooms_;
  bool finished_ = false;
};

}  // namespace

std::unique_ptr<RangeFilter> NewPrefixBloomRangeFilter(
    size_t prefix_len, double bits_per_prefix) {
  return std::make_unique<PrefixBloomRangeFilter>(prefix_len,
                                                  bits_per_prefix);
}

std::unique_ptr<RangeFilter> NewRosettaRangeFilter(
    double bits_per_key, int levels,
    std::function<uint64_t(const Slice&)> key_codec) {
  return std::make_unique<RosettaRangeFilter>(bits_per_key, levels,
                                              std::move(key_codec));
}

}  // namespace lsmlab
