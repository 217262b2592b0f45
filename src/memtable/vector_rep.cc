#include <algorithm>
#include <vector>

#include "memtable/memtable_rep.h"

namespace lsmlab {

namespace {

/// Append-only vector rep: the fastest buffer for write-only workloads
/// (tutorial §2.2.1) because an insert is a single push_back. Any read
/// (point seek or iteration) must first sort the accumulated tail, so
/// performance collapses under interleaved reads — exactly the tradeoff the
/// tutorial calls out.
class VectorRep final : public MemTableRep {
 public:
  VectorRep(const MemTableKeyComparator& cmp, Arena* arena)
      : MemTableRep(arena), cmp_(cmp) {}

  void Insert(const char* entry) override {
    entries_.push_back(entry);
    sorted_ = false;
  }

  const char* PointSeek(const Slice& internal_key) override {
    EnsureSorted();
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), internal_key,
        [this](const char* entry, const Slice& key) {
          return cmp_.CompareEntryToKey(entry, key) < 0;
        });
    return it == entries_.end() ? nullptr : *it;
  }

  size_t Count() const override { return entries_.size(); }

  std::unique_ptr<Iterator> NewIterator() override {
    EnsureSorted();
    // Iterators copy the pointer array so later inserts (and re-sorts)
    // cannot invalidate them.
    return std::make_unique<IteratorImpl>(entries_, cmp_);
  }

 private:
  void EnsureSorted() {
    if (!sorted_) {
      std::sort(entries_.begin(), entries_.end(),
                [this](const char* a, const char* b) { return cmp_(a, b) < 0; });
      sorted_ = true;
    }
  }

  class IteratorImpl final : public Iterator {
   public:
    IteratorImpl(std::vector<const char*> entries,
                 const MemTableKeyComparator& cmp)
        : entries_(std::move(entries)), cmp_(cmp), index_(0) {}

    bool Valid() const override { return index_ < entries_.size(); }
    const char* entry() const override { return entries_[index_]; }
    void Next() override { ++index_; }
    void SeekToFirst() override { index_ = 0; }
    void Seek(const Slice& internal_key) override {
      auto it = std::lower_bound(
          entries_.begin(), entries_.end(), internal_key,
          [this](const char* entry, const Slice& key) {
            return cmp_.CompareEntryToKey(entry, key) < 0;
          });
      index_ = static_cast<size_t>(it - entries_.begin());
    }

   private:
    const std::vector<const char*> entries_;
    MemTableKeyComparator cmp_;
    size_t index_;
  };

  MemTableKeyComparator cmp_;
  std::vector<const char*> entries_;
  bool sorted_ = true;
};

}  // namespace

std::unique_ptr<MemTableRep> NewVectorRep(const MemTableKeyComparator& cmp,
                                          Arena* arena) {
  return std::make_unique<VectorRep>(cmp, arena);
}

}  // namespace lsmlab
