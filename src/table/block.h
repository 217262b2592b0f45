#ifndef LSMLAB_TABLE_BLOCK_H_
#define LSMLAB_TABLE_BLOCK_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "db/dbformat.h"
#include "table/iterator.h"
#include "util/comparator.h"
#include "util/slice.h"
#include "util/status.h"

namespace lsmlab {

/// A key rebuilt from a block's prefix-compressed entries. A key of up to
/// kInlineBytes stays inside the object, so a search whose buffer lives on
/// its caller's stack allocates nothing; a longer key moves to the heap.
class BlockKeyBuffer {
 public:
  BlockKeyBuffer() = default;
  BlockKeyBuffer(const BlockKeyBuffer&) = delete;
  BlockKeyBuffer& operator=(const BlockKeyBuffer&) = delete;

  Slice slice() const { return Slice(data_, size_); }
  size_t size() const { return size_; }
  void clear() { size_ = 0; }

  /// Keeps the key's first `shared` bytes (shared <= size()) and appends the
  /// `n` bytes at `p`: one prefix-compressed entry applied.
  void Rebuild(size_t shared, const char* p, size_t n) {
    assert(shared <= size_);
    if (shared + n > capacity_) {
      Grow(shared, shared + n);
    }
    std::memcpy(data_ + shared, p, n);
    size_ = shared + n;
  }

 private:
  static constexpr size_t kInlineBytes = 64;

  void Grow(size_t keep, size_t needed);

  char* data_ = inline_;
  size_t size_ = 0;
  size_t capacity_ = kInlineBytes;
  std::unique_ptr<char[]> heap_;
  char inline_[kInlineBytes];
};

/// An immutable, parsed block (data, index, or metaindex). Owns its bytes;
/// shared between the block cache and live iterators.
class Block {
 public:
  /// Copies `contents`.
  explicit Block(const Slice& contents);
  /// Adopts `buf`, whose first `size` bytes are the block: a data block
  /// keeps the buffer its read filled (the trailer after them included).
  Block(std::unique_ptr<char[]> buf, size_t size);

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  size_t size() const { return size_; }

  /// Iterator over the block's entries; keeps the Block alive via the
  /// owner pointer held by the caller.
  std::unique_ptr<Iterator> NewIterator(const Comparator* comparator) const;

  /// The block's one restart-array search (the fence-pointer search inside
  /// a block): binary-searches the restart points for the last one whose
  /// key sorts before `target`, then scans forward to the first entry >=
  /// `target`. Returns true with the entry's key in `key` and `*value`
  /// pointing into the block; false when no such entry exists, or on
  /// corruption with *s set. Runs on the caller's stack and allocates
  /// nothing unless a key outgrows `key`'s inline bytes. Instantiated for
  /// Comparator (virtual) and the final InternalKeyComparator, whose
  /// Compare inlines into the loop.
  template <typename Cmp>
  bool Seek(const Cmp& cmp, const Slice& target, BlockKeyBuffer* key,
            Slice* value, Status* s) const;

 private:
  class Iter;

  uint32_t NumRestarts() const;
  uint32_t RestartPoint(uint32_t index) const;

  const std::unique_ptr<char[]> data_;
  const size_t size_;
  uint32_t restart_offset_ = 0;  // Offset of the restart array.
  bool malformed_ = false;
};

extern template bool Block::Seek<Comparator>(const Comparator&, const Slice&,
                                             BlockKeyBuffer*, Slice*,
                                             Status*) const;
extern template bool Block::Seek<InternalKeyComparator>(
    const InternalKeyComparator&, const Slice&, BlockKeyBuffer*, Slice*,
    Status*) const;

}  // namespace lsmlab

#endif  // LSMLAB_TABLE_BLOCK_H_
