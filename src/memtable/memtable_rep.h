#ifndef LSMLAB_MEMTABLE_MEMTABLE_REP_H_
#define LSMLAB_MEMTABLE_MEMTABLE_REP_H_

#include <memory>

#include "db/dbformat.h"
#include "util/arena.h"
#include "util/options.h"
#include "util/slice.h"

namespace lsmlab {

/// Decodes the length-prefixed internal key at the head of a memtable entry.
Slice GetLengthPrefixedEntryKey(const char* entry);

/// Orders encoded memtable entries by their internal keys.
class MemTableKeyComparator {
 public:
  explicit MemTableKeyComparator(const InternalKeyComparator* cmp)
      : comparator_(cmp) {}

  int operator()(const char* a, const char* b) const;
  /// Compares an entry against an encoded internal key (no length prefix).
  int CompareEntryToKey(const char* entry, const Slice& internal_key) const;
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
/// arena-allocated buffers; the rep stores and orders pointers to them.
///
/// Thread-safety contract: Insert/PointSeek/NewIterator calls are externally
/// serialized by the DB mutex. The skip-list rep additionally supports
/// readers concurrent with one writer; other reps do not, so DB iterators
/// snapshot their contents at creation.
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

  virtual ~MemTableRep() = default;

  /// Inserts an entry allocated from the memtable's arena. The entry must
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

  /// True if iteration is safe while a (serialized) writer keeps inserting.
  virtual bool SupportsConcurrentIteration() const { return false; }

  virtual std::unique_ptr<Iterator> NewIterator() = 0;
};

/// Factories; each takes the entry comparator and the arena that owns the
/// entries. `bucket_count` applies to hashed reps only.
std::unique_ptr<MemTableRep> NewSkipListRep(const MemTableKeyComparator& cmp,
                                            Arena* arena);
std::unique_ptr<MemTableRep> NewVectorRep(const MemTableKeyComparator& cmp);
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
