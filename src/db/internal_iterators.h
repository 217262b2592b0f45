#ifndef LSMLAB_DB_INTERNAL_ITERATORS_H_
#define LSMLAB_DB_INTERNAL_ITERATORS_H_

#include <memory>

#include "db/table_cache.h"
#include "memtable/memtable.h"
#include "table/iterator.h"
#include "version/version_set.h"

namespace lsmlab {

/// Adapts MemTable::Iterator to the common Iterator interface, sharing
/// ownership of the memtable so flushed memtables stay alive under readers.
class MemTableIteratorAdapter final : public Iterator {
 public:
  explicit MemTableIteratorAdapter(std::shared_ptr<MemTable> mem)
      : mem_(std::move(mem)), iter_(mem_->NewIterator()) {}

  bool Valid() const override { return iter_->Valid(); }
  void SeekToFirst() override { iter_->SeekToFirst(); }
  void Seek(const Slice& target) override { iter_->Seek(target); }
  void Next() override { iter_->Next(); }
  Slice key() const override { return iter_->key(); }
  Slice value() const override { return iter_->value(); }
  Status status() const override { return Status::OK(); }

 private:
  std::shared_ptr<MemTable> mem_;
  std::unique_ptr<MemTable::Iterator> iter_;
};

/// One sorted run as one merge child: LevelDB's concatenating level
/// iterator. The run's files are sorted and disjoint, so Seek binary-searches
/// their exact `largest` keys and opens only the file the target falls in,
/// and Next enters the following file when the current one runs out. A
/// short scan therefore reads one file and one block per run, however many
/// files the run holds (tutorial §2.1.3), and a file's reader is resolved
/// through `table_cache` only when the cursor enters it.
///
/// `version` pins the Version the files belong to, so
/// VersionSet::AddLiveFiles keeps a file on disk until a lazy open reaches
/// it, even after a compaction replaced it and the caller's ReadView is
/// gone. Callers that keep the files alive themselves (a compaction owns
/// its input files until it installs) pass null.
///
/// An error ends the iteration: a failed open or block read leaves the
/// iterator invalid with the error in status(); it never steps past a
/// failed file.
std::unique_ptr<Iterator> NewRunIterator(
    std::shared_ptr<const Version> version, SortedRun files,
    const InternalKeyComparator* icmp, TableCache* table_cache,
    const ReadOptions& read_options);

}  // namespace lsmlab

#endif  // LSMLAB_DB_INTERNAL_ITERATORS_H_
