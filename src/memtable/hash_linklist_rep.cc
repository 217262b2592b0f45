#include <algorithm>
#include <vector>

#include "memtable/memtable_rep.h"
#include "util/hash.h"

namespace lsmlab {

namespace {

/// Hash-linklist rep (tutorial §2.2.1): buckets of sorted singly linked
/// lists. The most memory-frugal rep for small buckets; insertion cost grows
/// linearly with bucket occupancy, and ordered scans require a full
/// collect-and-sort like the other hashed rep.
class HashLinkListRep final : public MemTableRep {
 public:
  HashLinkListRep(const MemTableKeyComparator& cmp, Arena* arena,
                  size_t bucket_count)
      : MemTableRep(arena),
        cmp_(cmp),
        buckets_(bucket_count == 0 ? 1 : bucket_count, nullptr) {}

  void Insert(const char* entry) override {
    size_t index = BucketIndex(GetLengthPrefixedEntryKey(entry));
    Node* node = new (arena_->AllocateAligned(sizeof(Node))) Node{entry, nullptr};
    Node** link = &buckets_[index];
    // Keep the bucket sorted by internal key: splice before the first node
    // that compares greater.
    while (*link != nullptr && cmp_((*link)->entry, entry) < 0) {
      link = &(*link)->next;
    }
    node->next = *link;
    *link = node;
    ++count_;
  }

  const char* PointSeek(const Slice& internal_key) override {
    Node* node = buckets_[BucketIndex(internal_key)];
    while (node != nullptr &&
           cmp_.CompareEntryToKey(node->entry, internal_key) < 0) {
      node = node->next;
    }
    return node == nullptr ? nullptr : node->entry;
  }

  size_t Count() const override { return count_; }

  std::unique_ptr<Iterator> NewIterator() override {
    std::vector<const char*> entries;
    entries.reserve(count_);
    for (Node* node : buckets_) {
      for (; node != nullptr; node = node->next) {
        entries.push_back(node->entry);
      }
    }
    std::sort(entries.begin(), entries.end(),
              [this](const char* a, const char* b) { return cmp_(a, b) < 0; });
    return std::make_unique<IteratorImpl>(std::move(entries), cmp_);
  }

 private:
  struct Node {
    const char* entry;
    Node* next;
  };

  size_t BucketIndex(const Slice& internal_key) const {
    Slice user_key = ExtractUserKey(internal_key);
    return HashSlice64(user_key) % buckets_.size();
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
  std::vector<Node*> buckets_;
  size_t count_ = 0;
};

}  // namespace

std::unique_ptr<MemTableRep> NewHashLinkListRep(
    const MemTableKeyComparator& cmp, Arena* arena, size_t bucket_count) {
  return std::make_unique<HashLinkListRep>(cmp, arena, bucket_count);
}

}  // namespace lsmlab
