#include "memtable/memtable_rep.h"

namespace lsmlab {

std::unique_ptr<MemTableRep> NewMemTableRep(MemTableRepType type,
                                            const MemTableKeyComparator& cmp,
                                            Arena* arena,
                                            size_t bucket_count) {
  switch (type) {
    case MemTableRepType::kSkipList:
      return NewSkipListRep(cmp, arena);
    case MemTableRepType::kVector:
      return NewVectorRep(cmp, arena);
    case MemTableRepType::kHashSkipList:
      return NewHashSkipListRep(cmp, arena, bucket_count);
    case MemTableRepType::kHashLinkList:
      return NewHashLinkListRep(cmp, arena, bucket_count);
  }
  return NewSkipListRep(cmp, arena);
}

}  // namespace lsmlab
