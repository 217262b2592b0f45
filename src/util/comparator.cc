#include "util/comparator.h"

#include <algorithm>

namespace lsmlab {

namespace {

class BytewiseComparatorImpl final : public Comparator {
 public:
  BytewiseComparatorImpl() = default;

  int Compare(const Slice& a, const Slice& b) const override {
    return a.compare(b);
  }

  const char* Name() const override { return "lsmlab.BytewiseComparator"; }

  void FindShortestSeparator(std::string* start,
                             const Slice& limit) const override {
    // Find length of common prefix.
    size_t min_length = std::min(start->size(), limit.size());
    size_t diff_index = 0;
    while (diff_index < min_length &&
           (*start)[diff_index] == limit[diff_index]) {
      ++diff_index;
    }

    if (diff_index >= min_length) {
      // One string is a prefix of the other; do not shorten.
      return;
    }
    uint8_t diff_byte = static_cast<uint8_t>((*start)[diff_index]);
    if (diff_byte < 0xff &&
        diff_byte + 1 < static_cast<uint8_t>(limit[diff_index])) {
      (*start)[diff_index] = static_cast<char>(diff_byte + 1);
      start->resize(diff_index + 1);
    }
  }

  void FindShortSuccessor(std::string* key) const override {
    // Find first byte that can be incremented.
    for (size_t i = 0; i < key->size(); ++i) {
      if (static_cast<uint8_t>((*key)[i]) != 0xff) {
        (*key)[i] = static_cast<char>(static_cast<uint8_t>((*key)[i]) + 1);
        key->resize(i + 1);
        return;
      }
    }
    // key is a run of 0xff; leave it as-is.
  }
};

}  // namespace

const Comparator* BytewiseComparator() {
  static BytewiseComparatorImpl* singleton = new BytewiseComparatorImpl;
  return singleton;
}

}  // namespace lsmlab
