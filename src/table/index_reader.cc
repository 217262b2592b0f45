#include "table/index_reader.h"

#include <algorithm>
#include <cassert>

#include "table/iterator.h"

namespace lsmlab {

// ---------------------------------------------------- binary-search fence --

BinarySearchIndexReader::BinarySearchIndexReader(
    std::unique_ptr<Block> fence_block,
    const InternalKeyComparator* comparator)
    : fence_block_(std::move(fence_block)), comparator_(comparator) {
  assert(fence_block_ != nullptr);
  assert(comparator_ != nullptr);
}

bool BinarySearchIndexReader::Locate(const Slice& internal_key,
                                     BlockHandle* handle, Status* s) {
  BlockKeyBuffer fence_key;
  Slice input;
  if (!fence_block_->Seek(*comparator_, internal_key, &fence_key, &input, s)) {
    return false;
  }
  *s = handle->DecodeFrom(&input);
  return s->ok();
}

/// Adapts the fence block's entry iterator: each position's value is a
/// handle encoding, decoded eagerly so handle() is a plain accessor.
class BinarySearchIndexReader::Iter final : public IndexIterator {
 public:
  Iter(const Block* fence_block, const InternalKeyComparator* comparator)
      : iter_(fence_block->NewIterator(comparator)) {}

  bool Valid() const override { return valid_; }
  void SeekToFirst() override {
    iter_->SeekToFirst();
    Update();
  }
  void Seek(const Slice& internal_key) override {
    iter_->Seek(internal_key);
    Update();
  }
  void Next() override {
    assert(valid_);
    iter_->Next();
    Update();
  }
  const BlockHandle& handle() const override {
    assert(valid_);
    return handle_;
  }
  Status status() const override {
    return decode_status_.ok() ? iter_->status() : decode_status_;
  }

 private:
  void Update() {
    valid_ = false;
    if (!iter_->Valid()) {
      return;
    }
    Slice input = iter_->value();
    decode_status_ = handle_.DecodeFrom(&input);
    valid_ = decode_status_.ok();
  }

  std::unique_ptr<Iterator> iter_;
  BlockHandle handle_;
  Status decode_status_;
  bool valid_ = false;
};

std::unique_ptr<IndexIterator> BinarySearchIndexReader::NewIterator() {
  return std::make_unique<Iter>(fence_block_.get(), comparator_);
}

// ------------------------------------------------------------ learned PLR --

LearnedIndexReader::LearnedIndexReader(LearnedIndexModel model,
                                       const InternalKeyComparator* comparator,
                                       Statistics* statistics,
                                       FenceBlockProvider* provider)
    : model_(std::move(model)),
      comparator_(comparator),
      statistics_(statistics),
      provider_(provider) {
  assert(model_.num_blocks > 0);
  assert(comparator_ != nullptr);
  assert(provider_ != nullptr);
}

void LearnedIndexReader::HandleForBlock(uint64_t position,
                                        BlockHandle* handle) const {
  assert(position < model_.num_blocks);
  size_t i = static_cast<size_t>(position);
  handle->set_offset(model_.offsets[i]);
  // The decoder enforced delta > kBlockTrailerSize, so this cannot wrap.
  handle->set_size(model_.offsets[i + 1] - model_.offsets[i] -
                   kBlockTrailerSize);
}

uint64_t LearnedIndexReader::LowerBoundDigest(uint64_t x) const {
  const uint64_t n = model_.num_blocks;
  const uint64_t* base = model_.digests.data();
  // The epsilon bound holds for fitted digests; the +1 absorbs the
  // float-to-int truncation in PredictBlock.
  const uint64_t margin = static_cast<uint64_t>(model_.epsilon) + 1;
  uint64_t pred = model_.PredictBlock(x);
  uint64_t lo = pred > margin ? pred - margin : 0;
  uint64_t hi = std::min(n, pred + margin + 1);
  uint64_t j = static_cast<uint64_t>(
      std::lower_bound(base + lo, base + hi, x) - base);
  // A result pinned to a window boundary may really lie outside the window
  // (a mispredicting or unfitted digest); redo over the full array. Still
  // exact — the model only ever narrows the search.
  if ((j == lo && lo > 0) || (j == hi && hi < n)) {
    j = static_cast<uint64_t>(std::lower_bound(base, base + n, x) - base);
  }
  return j;
}

bool LearnedIndexReader::LocatePosition(const Slice& internal_key,
                                        uint64_t* position, Status* s) {
  *s = Status::OK();
  const uint64_t n = model_.num_blocks;
  uint64_t x = model_.QueryDigest(ExtractUserKey(internal_key));
  uint64_t j = LowerBoundDigest(x);
  if (j >= n || model_.digests[j] != x) {
    // Certified: digests[j'] < x for all j' < j implies those fences sort
    // strictly before the key; digests[j] > x implies fence j sorts strictly
    // after it. So block j is exactly the fence-search answer (j == n: the
    // key is past the last block).
    if (statistics_ != nullptr) {
      statistics_->learned_index_hits.fetch_add(1, std::memory_order_relaxed);
    }
    *position = j;
    return true;
  }
  // Digest tie: the digest order cannot certify the full-key comparison
  // against fence j. Resolve through the real fence pointers.
  if (statistics_ != nullptr) {
    statistics_->learned_index_fallbacks.fetch_add(1,
                                                   std::memory_order_relaxed);
  }
  const Block* fence = nullptr;
  *s = provider_->GetFenceIndexBlock(&fence);
  if (!s->ok()) {
    return false;
  }
  BlockKeyBuffer fence_key;
  Slice input;
  if (!fence->Seek(*comparator_, internal_key, &fence_key, &input, s)) {
    if (!s->ok()) {
      return false;
    }
    *position = n;  // Past the last block.
    return true;
  }
  BlockHandle h;
  *s = h.DecodeFrom(&input);
  if (!s->ok()) {
    return false;
  }
  // Map the fence handle back to a block position via the offset table.
  auto begin = model_.offsets.begin();
  auto end = model_.offsets.end() - 1;  // Last entry is the data-region end.
  auto it = std::lower_bound(begin, end, h.offset());
  if (it == end || *it != h.offset()) {
    *s = Status::Corruption(
        "learned index: fence handle outside the offset table");
    return false;
  }
  *position = static_cast<uint64_t>(it - begin);
  return true;
}

bool LearnedIndexReader::Locate(const Slice& internal_key, BlockHandle* handle,
                                Status* s) {
  uint64_t position = 0;
  if (!LocatePosition(internal_key, &position, s)) {
    return false;
  }
  if (position >= model_.num_blocks) {
    return false;  // Past the last block; *s stays OK.
  }
  HandleForBlock(position, handle);
  return true;
}

/// Position-based iteration over the packed offset table: scans never touch
/// fence keys (or, absent Seek ties, the fence block at all).
class LearnedIndexReader::Iter final : public IndexIterator {
 public:
  explicit Iter(LearnedIndexReader* reader) : reader_(reader) {}

  bool Valid() const override { return valid_; }
  void SeekToFirst() override {
    status_ = Status::OK();
    SetPosition(0);
  }
  void Seek(const Slice& internal_key) override {
    uint64_t position = 0;
    if (!reader_->LocatePosition(internal_key, &position, &status_)) {
      valid_ = false;
      return;
    }
    SetPosition(position);
  }
  void Next() override {
    assert(valid_);
    SetPosition(position_ + 1);
  }
  const BlockHandle& handle() const override {
    assert(valid_);
    return handle_;
  }
  Status status() const override { return status_; }

 private:
  void SetPosition(uint64_t position) {
    position_ = position;
    valid_ = status_.ok() && position < reader_->model_.num_blocks;
    if (valid_) {
      reader_->HandleForBlock(position, &handle_);
    }
  }

  LearnedIndexReader* const reader_;
  uint64_t position_ = 0;
  BlockHandle handle_;
  Status status_;
  bool valid_ = false;
};

std::unique_ptr<IndexIterator> LearnedIndexReader::NewIterator() {
  return std::make_unique<Iter>(this);
}

}  // namespace lsmlab
