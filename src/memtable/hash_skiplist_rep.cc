#include <algorithm>
#include <vector>

#include "memtable/memtable_rep.h"
#include "memtable/skiplist.h"
#include "util/hash.h"

namespace lsmlab {

namespace {

/// Hash-skiplist rep (tutorial §2.2.1): a fixed bucket array where each
/// bucket is its own small skip list. Point access touches one short list;
/// whole-rep iteration (flush) must merge all buckets, so it materializes a
/// sorted snapshot.
class HashSkipListRep final : public MemTableRep {
 public:
  HashSkipListRep(const MemTableKeyComparator& cmp, Arena* arena,
                  size_t bucket_count)
      : MemTableRep(arena),
        cmp_(cmp),
        buckets_(bucket_count == 0 ? 1 : bucket_count) {}

  /// The entry's bucket is not known until it is encoded, so the node's
  /// height comes from the rep's generator; any bucket's list takes it.
  char* Allocate(size_t len) override {
    return ListType::AllocateEntry(arena_, &rnd_, len);
  }

  void Insert(const char* entry) override {
    Bucket(GetLengthPrefixedEntryKey(entry)).Insert(entry);
    ++count_;
  }

  const char* PointSeek(const Slice& internal_key) override {
    ListType::Iterator iter(&Bucket(internal_key));
    iter.Seek(internal_key);
    return iter.Valid() ? iter.key() : nullptr;
  }

  size_t Count() const override { return count_; }

  std::unique_ptr<Iterator> NewIterator() override {
    // Collect all entries from every bucket and sort: hashed reps do not
    // support cheap ordered scans, which is their documented weakness.
    std::vector<const char*> entries;
    entries.reserve(count_);
    for (auto& slot : buckets_) {
      if (!slot.holder) {
        continue;
      }
      ListType::Iterator iter(&slot.holder->list);
      for (iter.SeekToFirst(); iter.Valid(); iter.Next()) {
        entries.push_back(iter.key());
      }
    }
    std::sort(entries.begin(), entries.end(),
              [this](const char* a, const char* b) { return cmp_(a, b) < 0; });
    return std::make_unique<IteratorImpl>(std::move(entries), cmp_);
  }

 private:
  using ListType = SkipList<MemTableKeyComparator>;

  struct BucketHolder {
    ListType list;
    explicit BucketHolder(const MemTableKeyComparator& cmp, Arena* arena)
        : list(cmp, arena) {}
  };

  ListType& Bucket(const Slice& internal_key) {
    Slice user_key = ExtractUserKey(internal_key);
    size_t index = HashSlice64(user_key) % buckets_.size();
    auto& slot = buckets_[index];
    if (!slot.holder) {
      slot.holder = std::make_unique<BucketHolder>(cmp_, arena_);
    }
    return slot.holder->list;
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

  struct Slot {
    std::unique_ptr<BucketHolder> holder;
  };

  MemTableKeyComparator cmp_;
  Random rnd_{0xdeadbeef};
  std::vector<Slot> buckets_;
  size_t count_ = 0;
};

}  // namespace

std::unique_ptr<MemTableRep> NewHashSkipListRep(
    const MemTableKeyComparator& cmp, Arena* arena, size_t bucket_count) {
  return std::make_unique<HashSkipListRep>(cmp, arena, bucket_count);
}

}  // namespace lsmlab
