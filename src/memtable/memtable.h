#ifndef LSMLAB_MEMTABLE_MEMTABLE_H_
#define LSMLAB_MEMTABLE_MEMTABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "db/dbformat.h"
#include "filter/bloom_kernel.h"
#include "memtable/memtable_rep.h"
#include "util/arena.h"
#include "util/options.h"

namespace lsmlab {

/// MemTable is the in-memory LSM component (tutorial §2.1): an ordered
/// buffer of recent writes. Writes are serialized externally; the skip-list
/// rep additionally allows reads concurrent with a writer. MemTables are
/// shared between the active write path, flush jobs, and live iterators via
/// shared_ptr.
///
/// In front of the rep sits a key filter (tutorial §2.1.3 puts one in
/// front of every sorted run; the buffer gets one too): a blocked Bloom
/// filter over the user keys added, sized at 1/64 of the write buffer, so a
/// point lookup whose key this memtable lacks skips the rep's search.
class MemTable {
 public:
  /// `write_buffer_size` sizes the key filter: write_buffer_size / 64
  /// bytes, rounded up to whole 64-byte lines, at least one line. Flushing
  /// still follows DataSize(). `log_number` is the WAL, and the value log,
  /// that the memtable's writes go to (0 for a WAL-replay memtable).
  MemTable(const InternalKeyComparator* comparator, MemTableRepType rep_type,
           size_t hash_bucket_count, size_t write_buffer_size,
           uint64_t log_number = 0);

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  /// Buffers an entry. `type` distinguishes puts, deletes, single-deletes,
  /// and vlog pointers.
  void Add(SequenceNumber seq, ValueType type, const Slice& user_key,
           const Slice& value);

  /// Point lookup at `key`'s snapshot. Returns true if this memtable
  /// resolves the key (value found or tombstone hit); the entry type is
  /// returned through `type_out` and the value (if any) through `value`,
  /// which points into the arena and stays valid for the memtable's
  /// lifetime. A key the filter rules out returns false without touching
  /// the rep; `skipped_by_filter`, when given, says whether that happened.
  bool Get(const LookupKey& key, Slice* value, ValueType* type_out,
           bool* skipped_by_filter = nullptr);

  /// False only if no version of `user_key` was ever added (the filter has
  /// no false negatives); true may be a false positive.
  bool KeyMayMatch(const Slice& user_key) const;

  /// Iterator over entries in internal-key order. The iterator (and the
  /// values it yields) remain valid for the memtable's lifetime.
  class Iterator {
   public:
    explicit Iterator(std::unique_ptr<MemTableRep::Iterator> iter)
        : iter_(std::move(iter)) {}

    bool Valid() const { return iter_->Valid(); }
    void SeekToFirst() { iter_->SeekToFirst(); }
    void Seek(const Slice& internal_key) { iter_->Seek(internal_key); }
    void Next() { iter_->Next(); }
    /// The full internal key of the current entry.
    Slice key() const;
    Slice value() const;

   private:
    std::unique_ptr<MemTableRep::Iterator> iter_;
  };

  std::unique_ptr<Iterator> NewIterator();

  /// The arena plus the key filter.
  size_t ApproximateMemoryUsage() const;
  size_t Count() const { return rep_->Count(); }
  bool Empty() const { return rep_->Count() == 0; }

  /// Bytes of raw user data (keys+values) added; drives flush triggering.
  size_t DataSize() const { return data_size_; }

  const InternalKeyComparator* comparator() const { return &comparator_; }

  /// Every vlog pointer this memtable holds points into this log, so the
  /// log lives at least as long as the memtable.
  uint64_t log_number() const { return log_number_; }

 private:
  /// Probes per key: about 15 bits per key for 120-byte entries, where six
  /// probes give a false-positive rate near 0.1%.
  static constexpr int kFilterProbes = 6;
  static constexpr size_t kWordsPerLine = kBloomLineBytes / sizeof(uint64_t);
  struct alignas(kBloomLineBytes) FilterLine {
    std::atomic<uint64_t> words[kWordsPerLine];
  };

  void AddToFilter(const Slice& user_key);
  /// The word holding the kernel's filter bit `bit`, as bit `bit % 64`.
  std::atomic<uint64_t>& FilterWord(size_t bit) const {
    return filter_[bit / kBloomLineBits].words[bit / 64 % kWordsPerLine];
  }

  InternalKeyComparator comparator_;
  MemTableKeyComparator entry_comparator_;
  Arena arena_;
  std::unique_ptr<MemTableRep> rep_;
  size_t data_size_ = 0;
  const uint64_t log_number_;
  // One writer, lock-free readers. Add (under the DB mutex, one writer at
  // a time) sets bits with a relaxed load and a relaxed store per word, no
  // locked read-modify-write; KeyMayMatch loads words relaxed. Neither
  // needs more: a write publishes its sequence with the release store of
  // VersionSet::SetLastSequence after Add returns, and a reader takes its
  // snapshot with the acquire load of last_sequence() (or is handed one
  // taken that way), so every bit set for a key at or below the reader's
  // snapshot happens-before the reader's loads. Bits only ever turn on,
  // and a writer reads the latest word before storing, so no bit is lost.
  // A false negative here would hide a present key: a correctness bug.
  const size_t filter_lines_;
  const std::unique_ptr<FilterLine[]> filter_;
};

}  // namespace lsmlab

#endif  // LSMLAB_MEMTABLE_MEMTABLE_H_
