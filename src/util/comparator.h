#ifndef LSMLAB_UTIL_COMPARATOR_H_
#define LSMLAB_UTIL_COMPARATOR_H_

#include <string>

#include "util/slice.h"

namespace lsmlab {

/// Comparator defines a total order over user keys. lsmlab ships a
/// bytewise comparator; applications may supply their own (e.g. for
/// integer-encoded keys).
///
/// Keys that compare equal must be byte-equal. The SST Bloom filters, the
/// memtable filter and the hashed memtable reps all hash a key's raw
/// bytes, so two spellings of one key would hash apart and a lookup could
/// miss a key that is present.
class Comparator {
 public:
  virtual ~Comparator() = default;

  /// Three-way comparison: <0 iff a < b, 0 iff a == b, >0 iff a > b.
  virtual int Compare(const Slice& a, const Slice& b) const = 0;

  /// Name used to check on-disk compatibility at DB open.
  virtual const char* Name() const = 0;

  /// If *start < limit, changes *start to a short string in [start,limit).
  /// Used by the table builder to shrink index keys.
  virtual void FindShortestSeparator(std::string* start,
                                     const Slice& limit) const = 0;

  /// Changes *key to a short string >= *key.
  virtual void FindShortSuccessor(std::string* key) const = 0;
};

/// Built-in lexicographic (memcmp) ordering. Singleton; do not delete.
const Comparator* BytewiseComparator();

}  // namespace lsmlab

#endif  // LSMLAB_UTIL_COMPARATOR_H_
