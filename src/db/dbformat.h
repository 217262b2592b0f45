#ifndef LSMLAB_DB_DBFORMAT_H_
#define LSMLAB_DB_DBFORMAT_H_

#include <cstdint>
#include <string>

#include "util/coding.h"
#include "util/comparator.h"
#include "util/slice.h"

namespace lsmlab {

/// Monotonic write timestamp; establishes the LSM invariant that newer
/// entries shadow older ones (tutorial §2.1.1-E).
using SequenceNumber = uint64_t;

// Leave room for the 8-bit type tag packed next to the sequence number.
constexpr SequenceNumber kMaxSequenceNumber = (uint64_t{1} << 56) - 1;

/// The kind of a logical entry. Deletes are realized as tombstones
/// (tutorial §2.1.2): a special entry that logically invalidates older
/// versions until compaction garbage-collects both.
enum ValueType : uint8_t {
  kTypeDeletion = 0x0,
  kTypeValue = 0x1,
  /// Single-delete tombstone: may be dropped as soon as it meets the first
  /// matching put (RocksDB SingleDelete; valid only for non-updated keys).
  kTypeSingleDeletion = 0x2,
  /// Value is a pointer into the value log (WiscKey key-value separation).
  kTypeVlogPointer = 0x3,
  /// A merge operand (read-modify-write, tutorial §2.2.6): combined with
  /// the newest base value through Options::merge_operator at read time.
  kTypeMerge = 0x4,
};

/// When seeking, we want all entries with seq <= snapshot; kValueTypeForSeek
/// must be the highest type tag so the packed trailer sorts first.
constexpr ValueType kValueTypeForSeek = kTypeMerge;

inline uint64_t PackSequenceAndType(SequenceNumber seq, ValueType t) {
  return (seq << 8) | t;
}

/// An internal key is user_key + 8-byte packed (sequence, type) trailer.
/// Internal keys sort by user key ascending, then sequence descending, so a
/// forward scan meets the newest version of each user key first.
struct ParsedInternalKey {
  Slice user_key;
  SequenceNumber sequence = 0;
  ValueType type = kTypeValue;

  ParsedInternalKey() = default;
  ParsedInternalKey(const Slice& u, SequenceNumber seq, ValueType t)
      : user_key(u), sequence(seq), type(t) {}
};

inline Slice ExtractUserKey(const Slice& internal_key) {
  return Slice(internal_key.data(), internal_key.size() - 8);
}

inline uint64_t ExtractTrailer(const Slice& internal_key) {
  return DecodeFixed64(internal_key.data() + internal_key.size() - 8);
}

inline SequenceNumber ExtractSequence(const Slice& internal_key) {
  return ExtractTrailer(internal_key) >> 8;
}

inline ValueType ExtractValueType(const Slice& internal_key) {
  return static_cast<ValueType>(ExtractTrailer(internal_key) & 0xff);
}

void AppendInternalKey(std::string* result, const ParsedInternalKey& key);

/// Returns false if `internal_key` is malformed (too short or bad type tag).
bool ParseInternalKey(const Slice& internal_key, ParsedInternalKey* result);

/// Orders internal keys: user key ascending (per user comparator), then
/// sequence number descending, then type descending.
///
/// Compare is inline and, for the built-in bytewise user comparator, calls
/// Slice::compare directly instead of dispatching through the virtual
/// Comparator::Compare; the constructor decides which once. Any other user
/// comparator keeps the virtual call.
class InternalKeyComparator final : public Comparator {
 public:
  explicit InternalKeyComparator(const Comparator* user_comparator)
      : user_comparator_(user_comparator),
        bytewise_(user_comparator == BytewiseComparator()) {}

  int Compare(const Slice& a, const Slice& b) const override {
    int r = CompareUserKey(ExtractUserKey(a), ExtractUserKey(b));
    if (r == 0) {
      const uint64_t at = ExtractTrailer(a);
      const uint64_t bt = ExtractTrailer(b);
      if (at > bt) {
        r = -1;  // Higher sequence sorts first (newest first).
      } else if (at < bt) {
        r = +1;
      }
    }
    return r;
  }
  /// The user comparator's order.
  int CompareUserKey(const Slice& a, const Slice& b) const {
    return bytewise_ ? a.compare(b) : user_comparator_->Compare(a, b);
  }
  const char* Name() const override {
    return "lsmlab.InternalKeyComparator";
  }
  void FindShortestSeparator(std::string* start,
                             const Slice& limit) const override;
  void FindShortSuccessor(std::string* key) const override;

  const Comparator* user_comparator() const { return user_comparator_; }

 private:
  const Comparator* const user_comparator_;
  const bool bytewise_;
};

/// An owned internal key, convenient for file metadata boundaries.
class InternalKey {
 public:
  InternalKey() = default;
  InternalKey(const Slice& user_key, SequenceNumber s, ValueType t) {
    AppendInternalKey(&rep_, ParsedInternalKey(user_key, s, t));
  }

  Slice Encode() const { return Slice(rep_); }
  Slice user_key() const { return ExtractUserKey(rep_); }
  bool empty() const { return rep_.empty(); }

  void DecodeFrom(const Slice& s) { rep_.assign(s.data(), s.size()); }
  void Clear() { rep_.clear(); }

 private:
  std::string rep_;
};

/// LookupKey bundles the three key forms a point lookup needs: the memtable
/// entry prefix, the internal key, and the user key.
class LookupKey {
 public:
  LookupKey(const Slice& user_key, SequenceNumber sequence);
  ~LookupKey();

  LookupKey(const LookupKey&) = delete;
  LookupKey& operator=(const LookupKey&) = delete;

  /// varint32(internal_key_len) + user_key + trailer: the memtable format.
  Slice memtable_key() const { return Slice(start_, end_ - start_); }
  /// user_key + trailer.
  Slice internal_key() const { return Slice(kstart_, end_ - kstart_); }
  Slice user_key() const { return Slice(kstart_, end_ - kstart_ - 8); }

 private:
  const char* start_;
  const char* kstart_;
  const char* end_;
  char space_[200];  // Avoids allocation for short keys.
};

}  // namespace lsmlab

#endif  // LSMLAB_DB_DBFORMAT_H_
