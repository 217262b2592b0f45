#ifndef LSMLAB_TABLE_INDEX_READER_H_
#define LSMLAB_TABLE_INDEX_READER_H_

#include <memory>

#include "db/dbformat.h"
#include "db/statistics.h"
#include "table/block.h"
#include "table/format.h"
#include "table/learned_index.h"
#include "util/options.h"
#include "util/status.h"

namespace lsmlab {

/// Iterator over a table's data-block handles, in block order. Unlike a raw
/// index-block iterator it exposes the decoded BlockHandle directly and no
/// key: TwoLevelIterator only ever consumes handles, which is what lets a
/// learned index iterate without materializing fence keys at all.
class IndexIterator {
 public:
  virtual ~IndexIterator() = default;

  virtual bool Valid() const = 0;
  virtual void SeekToFirst() = 0;
  /// Positions on the block that may contain `internal_key` (the block
  /// holding the table's first entry >= internal_key); invalid when the key
  /// is past the last block.
  virtual void Seek(const Slice& internal_key) = 0;
  virtual void Next() = 0;
  /// Handle of the current data block. Requires Valid().
  virtual const BlockHandle& handle() const = 0;
  virtual Status status() const = 0;
};

/// Lazy source of the classic fence-pointer block. Implemented by
/// TableReader: learned tables keep only the model pinned and load the fence
/// block on first demand (digest-tie fallback), which is where the learned
/// index's memory win comes from.
class FenceBlockProvider {
 public:
  virtual ~FenceBlockProvider() = default;

  /// Returns the pinned fence block, loading it on first call. The returned
  /// pointer stays valid for the provider's lifetime. Thread-safe.
  virtual Status GetFenceIndexBlock(const Block** block) = 0;
};

/// Pluggable per-SSTable index over the data blocks (DESIGN.md, "Pluggable
/// per-table indexes").
/// Implementations must honour LocateDataBlock's single-candidate contract:
/// Locate resolves exactly the block containing the table's globally-first
/// entry >= internal_key — the batched MultiGet path walks blocks from that
/// answer and relies on it.
class IndexReader {
 public:
  virtual ~IndexReader() = default;

  virtual IndexType kind() const = 0;

  /// Resolves the data block that may contain `internal_key`. Returns false
  /// when the key is past the last block (no candidate; *s stays OK) or on
  /// error (*s set).
  virtual bool Locate(const Slice& internal_key, BlockHandle* handle,
                      Status* s) = 0;

  virtual std::unique_ptr<IndexIterator> NewIterator() = 0;

  /// Bytes this reader keeps pinned in memory.
  virtual size_t MemoryUsage() const = 0;
};

/// Classic binary-searched fence pointers: owns the pinned index block.
class BinarySearchIndexReader final : public IndexReader {
 public:
  BinarySearchIndexReader(std::unique_ptr<Block> fence_block,
                          const InternalKeyComparator* comparator);

  IndexType kind() const override { return IndexType::kBinarySearchFence; }
  bool Locate(const Slice& internal_key, BlockHandle* handle,
              Status* s) override;
  std::unique_ptr<IndexIterator> NewIterator() override;
  size_t MemoryUsage() const override { return fence_block_->size(); }

 private:
  class Iter;

  std::unique_ptr<Block> fence_block_;
  const InternalKeyComparator* const comparator_;
};

/// Learned piecewise-linear index. The model predicts a block, the digest
/// array certifies it (strict digest inequalities imply the corresponding
/// full-key inequalities); lookups landing on a digest tie cannot be
/// certified and fall back to the fence block fetched through `provider`.
class LearnedIndexReader final : public IndexReader {
 public:
  LearnedIndexReader(LearnedIndexModel model,
                     const InternalKeyComparator* comparator,
                     Statistics* statistics, FenceBlockProvider* provider);

  IndexType kind() const override { return IndexType::kLearnedPLR; }
  bool Locate(const Slice& internal_key, BlockHandle* handle,
              Status* s) override;
  std::unique_ptr<IndexIterator> NewIterator() override;
  size_t MemoryUsage() const override { return model_.MemoryUsage(); }

  const LearnedIndexModel& model() const { return model_; }

 private:
  class Iter;

  /// Core lookup: block position for `internal_key`, or num_blocks when the
  /// key is past the last block. Returns false on fallback-path error.
  bool LocatePosition(const Slice& internal_key, uint64_t* position,
                      Status* s);
  /// First digest index >= x, resolved through the model: a windowed
  /// lower_bound around the prediction, widened to a full binary search only
  /// when the window boundary leaves the answer uncertain.
  uint64_t LowerBoundDigest(uint64_t x) const;
  /// Synthesizes block `position`'s handle from the packed offsets.
  void HandleForBlock(uint64_t position, BlockHandle* handle) const;

  const LearnedIndexModel model_;
  const InternalKeyComparator* const comparator_;
  Statistics* const statistics_;
  FenceBlockProvider* const provider_;
};

}  // namespace lsmlab

#endif  // LSMLAB_TABLE_INDEX_READER_H_
