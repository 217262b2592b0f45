#include "db/internal_iterators.h"

#include <algorithm>
#include <cassert>

namespace lsmlab {

namespace {

class RunIterator final : public Iterator {
 public:
  RunIterator(std::shared_ptr<const Version> version, SortedRun files,
              const InternalKeyComparator* icmp, TableCache* table_cache,
              const ReadOptions& read_options)
      : version_(std::move(version)),
        files_(files),
        icmp_(icmp),
        table_cache_(table_cache),
        read_options_(read_options) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    EnterFile(0);
    if (table_iter_ != nullptr) {
      table_iter_->SeekToFirst();
    }
    SkipExhaustedFiles();
  }

  void Seek(const Slice& target) override {
    // Every file before the first one whose largest key reaches the target
    // lies wholly below it and is never opened.
    auto it = std::partition_point(
        files_.begin(), files_.end(), [&](const FileMetaData& f) {
          return icmp_->Compare(f.largest.Encode(), target) < 0;
        });
    EnterFile(static_cast<size_t>(it - files_.begin()));
    if (table_iter_ != nullptr) {
      table_iter_->Seek(target);
    }
    SkipExhaustedFiles();
  }

  void Next() override {
    assert(Valid());
    table_iter_->Next();
    SkipExhaustedFiles();
  }

  Slice key() const override {
    assert(Valid());
    return key_;
  }
  Slice value() const override { return table_iter_->value(); }

  Status status() const override {
    if (!status_.ok() || table_iter_ == nullptr) {
      return status_;
    }
    return table_iter_->status();
  }

 private:
  /// Puts the cursor in file `index` (past the last file: exhausted). The
  /// open table iterator is kept when the cursor is already in that file.
  void EnterFile(size_t index) {
    status_ = Status::OK();
    if (table_iter_ != nullptr && index == index_) {
      return;
    }
    table_iter_.reset();
    reader_.reset();
    index_ = index;
    if (index_ < files_.size()) {
      status_ = table_cache_->GetReader(files_[index_], &reader_);
      if (status_.ok()) {
        table_iter_ = reader_->NewIterator(read_options_);
      }
    }
  }

  /// Enters the following files while the current one has run out
  /// cleanly; a failed file stops the cursor where it is, and so does the
  /// run's last file.
  void SkipExhaustedFiles() {
    Update();
    while (!valid_ && index_ + 1 < files_.size() && table_iter_ != nullptr &&
           table_iter_->status().ok()) {
      EnterFile(index_ + 1);
      if (table_iter_ != nullptr) {
        table_iter_->SeekToFirst();
      }
      Update();
    }
  }

  /// Caches the table iterator's validity and key after every move: the
  /// merge asks each child for both on every step, and the cache answers
  /// without descending through the table iterator's two levels.
  void Update() {
    valid_ = table_iter_ != nullptr && table_iter_->Valid();
    if (valid_) {
      key_ = table_iter_->key();
    }
  }

  const std::shared_ptr<const Version> version_;  // Keeps files_ live.
  const SortedRun files_;
  const InternalKeyComparator* const icmp_;
  TableCache* const table_cache_;
  const ReadOptions read_options_;
  size_t index_ = 0;  // The file table_iter_ reads, when it is set.
  std::shared_ptr<TableReader> reader_;
  std::unique_ptr<Iterator> table_iter_;
  bool valid_ = false;
  Slice key_;  // table_iter_->key() while valid_.
  Status status_;  // A failed open of files_[index_].
};

}  // namespace

std::unique_ptr<Iterator> NewRunIterator(
    std::shared_ptr<const Version> version, SortedRun files,
    const InternalKeyComparator* icmp, TableCache* table_cache,
    const ReadOptions& read_options) {
  return std::make_unique<RunIterator>(std::move(version), files, icmp,
                                       table_cache, read_options);
}

}  // namespace lsmlab
