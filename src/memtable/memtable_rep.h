#ifndef LSMLAB_MEMTABLE_MEMTABLE_REP_H_
#define LSMLAB_MEMTABLE_MEMTABLE_REP_H_

#include <memory>

#include "db/dbformat.h"
#include "util/arena.h"
#include "util/coding.h"
#include "util/options.h"
#include "util/slice.h"

namespace lsmlab {

/// Decodes the length-prefixed internal key at the head of a memtable entry.
inline Slice GetLengthPrefixedEntryKey(const char* entry) {
  uint32_t len;
  // +5: a varint32 is at most 5 bytes.
  const char* p = GetVarint32Ptr(entry, entry + 5, &len);
  return Slice(p, len);
}

/// Orders encoded memtable entries by their internal keys. Inline down to
/// the user-key compare: a skip-list descent makes up to ~30 of these.
class MemTableKeyComparator {
 public:
  explicit MemTableKeyComparator(const InternalKeyComparator* cmp)
      : comparator_(cmp) {}

  int operator()(const char* a, const char* b) const {
    return comparator_->Compare(GetLengthPrefixedEntryKey(a),
                                GetLengthPrefixedEntryKey(b));
  }
  /// Compares an entry against an encoded internal key (no length prefix).
  int CompareEntryToKey(const char* entry, const Slice& internal_key) const {
    return comparator_->Compare(GetLengthPrefixedEntryKey(entry),
                                internal_key);
  }
  /// The same, as a skip list's probe: a seek descends once with the
  /// internal key itself, building no length-prefixed probe entry.
  int operator()(const char* entry, const Slice& internal_key) const {
    return CompareEntryToKey(entry, internal_key);
  }

  const InternalKeyComparator* internal_comparator() const {
    return comparator_;
  }

 private:
  const InternalKeyComparator* comparator_;
};

/// MemTableRep is the in-memory index over buffered writes — the buffer
/// implementation knob of tutorial §2.2.1. Entries are immutable,
/// arena-allocated buffers that the rep hands out (Allocate) and then
/// orders (Insert).
///
/// Thread-safety contract: there is one writer at a time (Allocate and
/// Insert run under the DB mutex), and readers take no lock: Get and
/// MultiGet call PointSeek, and iterators are created, while the writer
/// keeps inserting. Only the skip-list rep is safe for that.
/// VectorRep::PointSeek and NewIterator sort the vector in place,
/// HashSkipListRep::PointSeek creates a missing bucket, and HashLinkListRep
/// links nodes with plain stores, so under concurrent clients these reps
/// race with the writer and with each other (ROADMAP item 8 tracks this).
class MemTableRep {
 public:
  /// Forward iterator over entries in internal-key order.
  class Iterator {
   public:
    virtual ~Iterator() = default;
    virtual bool Valid() const = 0;
    /// The encoded entry. Requires Valid().
    virtual const char* entry() const = 0;
    virtual void Next() = 0;
    virtual void SeekToFirst() = 0;
    /// Positions at the first entry whose internal key >= `internal_key`.
    virtual void Seek(const Slice& internal_key) = 0;
  };

  explicit MemTableRep(Arena* arena) : arena_(arena) {}
  virtual ~MemTableRep() = default;

  /// Returns `len` bytes for the caller to encode one entry into before it
  /// Inserts them. By default they come from the memtable's arena; the
  /// skip-list reps carve them out of the entry's node, so an insert makes
  /// one allocation.
  virtual char* Allocate(size_t len) { return arena_->Allocate(len); }

  /// Inserts an entry returned by Allocate and filled since. The entry must
  /// compare unequal to every entry already present.
  virtual void Insert(const char* entry) = 0;

  /// Returns the first entry with internal key >= `internal_key`, or nullptr.
  /// The result may belong to a different user key; callers check.
  /// Reps optimized for point access (hashed) only guarantee correct results
  /// when the target user key hashes to the probed bucket, which is the case
  /// for lookups of a single user key.
  virtual const char* PointSeek(const Slice& internal_key) = 0;

  /// Number of entries inserted so far.
  virtual size_t Count() const = 0;

  virtual std::unique_ptr<Iterator> NewIterator() = 0;

 protected:
  Arena* const arena_;  // The memtable's; owns every entry.
};

/// Factories; each takes the entry comparator and the arena that owns the
/// entries. `bucket_count` applies to hashed reps only.
std::unique_ptr<MemTableRep> NewSkipListRep(const MemTableKeyComparator& cmp,
                                            Arena* arena);
std::unique_ptr<MemTableRep> NewVectorRep(const MemTableKeyComparator& cmp,
                                          Arena* arena);
std::unique_ptr<MemTableRep> NewHashSkipListRep(
    const MemTableKeyComparator& cmp, Arena* arena, size_t bucket_count);
std::unique_ptr<MemTableRep> NewHashLinkListRep(
    const MemTableKeyComparator& cmp, Arena* arena, size_t bucket_count);

/// Dispatches on the Options knob.
std::unique_ptr<MemTableRep> NewMemTableRep(MemTableRepType type,
                                            const MemTableKeyComparator& cmp,
                                            Arena* arena,
                                            size_t bucket_count);

}  // namespace lsmlab

#endif  // LSMLAB_MEMTABLE_MEMTABLE_REP_H_
