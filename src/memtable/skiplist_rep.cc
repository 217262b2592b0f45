#include "memtable/memtable_rep.h"
#include "memtable/skiplist.h"

namespace lsmlab {

namespace {

/// The default rep: balanced write/read performance and safe concurrent
/// iteration, matching RocksDB's default memtable.
class SkipListRep final : public MemTableRep {
 public:
  SkipListRep(const MemTableKeyComparator& cmp, Arena* arena)
      : MemTableRep(arena), list_(cmp, arena) {}

  char* Allocate(size_t len) override { return list_.AllocateEntry(len); }

  void Insert(const char* entry) override {
    list_.Insert(entry);
    ++count_;
  }

  const char* PointSeek(const Slice& internal_key) override {
    ListType::Iterator iter(&list_);
    iter.Seek(internal_key);
    return iter.Valid() ? iter.key() : nullptr;
  }

  size_t Count() const override { return count_; }

  std::unique_ptr<Iterator> NewIterator() override {
    return std::make_unique<IteratorImpl>(this);
  }

 private:
  using ListType = SkipList<MemTableKeyComparator>;

  class IteratorImpl final : public Iterator {
   public:
    explicit IteratorImpl(SkipListRep* rep) : iter_(&rep->list_) {}

    bool Valid() const override { return iter_.Valid(); }
    const char* entry() const override { return iter_.key(); }
    void Next() override { iter_.Next(); }
    void SeekToFirst() override { iter_.SeekToFirst(); }
    void Seek(const Slice& internal_key) override { iter_.Seek(internal_key); }

   private:
    ListType::Iterator iter_;
  };

  ListType list_;
  size_t count_ = 0;
};

}  // namespace

std::unique_ptr<MemTableRep> NewSkipListRep(const MemTableKeyComparator& cmp,
                                            Arena* arena) {
  return std::make_unique<SkipListRep>(cmp, arena);
}

}  // namespace lsmlab
