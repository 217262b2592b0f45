#include "table/block.h"

#include <algorithm>
#include <cassert>

#include "util/coding.h"

namespace lsmlab {

void BlockKeyBuffer::Grow(size_t keep, size_t needed) {
  const size_t capacity = std::max(needed, capacity_ * 2);
  auto bigger = std::make_unique_for_overwrite<char[]>(capacity);
  std::memcpy(bigger.get(), data_, keep);
  heap_ = std::move(bigger);
  data_ = heap_.get();
  capacity_ = capacity;
}

namespace {

std::unique_ptr<char[]> CopyOf(const Slice& contents) {
  auto buf = std::make_unique_for_overwrite<char[]>(contents.size());
  std::memcpy(buf.get(), contents.data(), contents.size());
  return buf;
}

}  // namespace

Block::Block(const Slice& contents) : Block(CopyOf(contents), contents.size()) {}

Block::Block(std::unique_ptr<char[]> buf, size_t size)
    : data_(std::move(buf)), size_(size) {
  if (size_ < sizeof(uint32_t)) {
    malformed_ = true;
    return;
  }
  uint32_t num_restarts = NumRestarts();
  uint64_t restart_bytes =
      (static_cast<uint64_t>(num_restarts) + 1) * sizeof(uint32_t);
  if (restart_bytes > size_) {
    malformed_ = true;
    return;
  }
  restart_offset_ = static_cast<uint32_t>(size_ - restart_bytes);
}

uint32_t Block::NumRestarts() const {
  return DecodeFixed32(data_.get() + size_ - sizeof(uint32_t));
}

uint32_t Block::RestartPoint(uint32_t index) const {
  assert(index < NumRestarts());
  return DecodeFixed32(data_.get() + restart_offset_ +
                       index * sizeof(uint32_t));
}

namespace {

/// Decodes the three varint32 lengths of an entry header. Returns nullptr on
/// corruption.
const char* DecodeEntry(const char* p, const char* limit, uint32_t* shared,
                        uint32_t* non_shared, uint32_t* value_length) {
  if (limit - p < 3) {
    return nullptr;
  }
  *shared = static_cast<uint8_t>(p[0]);
  *non_shared = static_cast<uint8_t>(p[1]);
  *value_length = static_cast<uint8_t>(p[2]);
  if ((*shared | *non_shared | *value_length) < 128) {
    // Fast path: all three lengths are single-byte varints.
    p += 3;
  } else {
    if ((p = GetVarint32Ptr(p, limit, shared)) == nullptr) return nullptr;
    if ((p = GetVarint32Ptr(p, limit, non_shared)) == nullptr) return nullptr;
    if ((p = GetVarint32Ptr(p, limit, value_length)) == nullptr) return nullptr;
  }
  // Widen before adding: non_shared + value_length can wrap uint32 on
  // corrupt input (e.g. 0xffffffff + 1 == 0), which would pass a 32-bit
  // bounds check and over-read the block by ~4 GiB.
  if (static_cast<uint64_t>(limit - p) <
      static_cast<uint64_t>(*non_shared) + *value_length) {
    return nullptr;
  }
  return p;
}

/// Applies the entry at `p` to `key` (which holds the previous entry's key)
/// and points `value` at its value. Returns the next entry's start, or
/// nullptr on corruption.
const char* ParseEntry(const char* p, const char* limit, BlockKeyBuffer* key,
                       Slice* value) {
  uint32_t shared, non_shared, value_length;
  p = DecodeEntry(p, limit, &shared, &non_shared, &value_length);
  if (p == nullptr || key->size() < shared) {
    return nullptr;
  }
  key->Rebuild(shared, p, non_shared);
  *value = Slice(p + non_shared, value_length);
  return p + non_shared + value_length;
}

Status BadEntry() { return Status::Corruption("bad entry in block"); }

}  // namespace

template <typename Cmp>
bool Block::Seek(const Cmp& cmp, const Slice& target, BlockKeyBuffer* key,
                 Slice* value, Status* s) const {
  *s = Status::OK();
  if (malformed_) {
    *s = Status::Corruption("malformed block");
    return false;
  }
  const uint32_t num_restarts = NumRestarts();
  if (num_restarts == 0) {
    return false;
  }
  const char* const data = data_.get();
  const char* const limit = data + restart_offset_;
  // Restart keys are stored whole (shared == 0), so the binary search
  // compares them in place.
  uint32_t left = 0;
  uint32_t right = num_restarts - 1;
  while (left < right) {
    const uint32_t mid = (left + right + 1) / 2;
    uint32_t shared, non_shared, value_length;
    const char* key_ptr = DecodeEntry(data + RestartPoint(mid), limit, &shared,
                                      &non_shared, &value_length);
    if (key_ptr == nullptr || shared != 0) {
      *s = BadEntry();
      return false;
    }
    if (cmp.Compare(Slice(key_ptr, non_shared), target) < 0) {
      left = mid;
    } else {
      right = mid - 1;
    }
  }
  key->clear();
  const char* p = data + RestartPoint(left);
  while (p < limit) {
    p = ParseEntry(p, limit, key, value);
    if (p == nullptr) {
      *s = BadEntry();
      return false;
    }
    if (cmp.Compare(key->slice(), target) >= 0) {
      return true;
    }
  }
  return false;  // Ran off the end: no entry >= target.
}

template bool Block::Seek<Comparator>(const Comparator&, const Slice&,
                                      BlockKeyBuffer*, Slice*, Status*) const;
template bool Block::Seek<InternalKeyComparator>(const InternalKeyComparator&,
                                                 const Slice&, BlockKeyBuffer*,
                                                 Slice*, Status*) const;

class Block::Iter final : public Iterator {
 public:
  Iter(const Comparator* comparator, const Block* block)
      : comparator_(comparator), block_(block) {}

  bool Valid() const override { return valid_; }
  Status status() const override { return status_; }
  Slice key() const override {
    assert(Valid());
    return key_.slice();
  }
  Slice value() const override {
    assert(Valid());
    return value_;
  }

  void Next() override {
    assert(Valid());
    ParseNextEntry();
  }

  void SeekToFirst() override {
    status_ = Status::OK();
    key_.clear();
    // ParseNextEntry starts where value_ ends.
    value_ = Slice(block_->data_.get() + block_->RestartPoint(0), 0);
    ParseNextEntry();
  }

  void Seek(const Slice& target) override {
    valid_ = block_->Seek(*comparator_, target, &key_, &value_, &status_);
  }

 private:
  void ParseNextEntry() {
    const char* limit = block_->data_.get() + block_->restart_offset_;
    const char* p = value_.data() + value_.size();
    if (p >= limit) {
      valid_ = false;  // No more entries.
      return;
    }
    valid_ = ParseEntry(p, limit, &key_, &value_) != nullptr;
    if (!valid_) {
      status_ = BadEntry();
    }
  }

  const Comparator* const comparator_;
  const Block* const block_;

  bool valid_ = false;
  BlockKeyBuffer key_;
  Slice value_;
  Status status_;
};

std::unique_ptr<Iterator> Block::NewIterator(
    const Comparator* comparator) const {
  if (malformed_) {
    return NewEmptyIterator(Status::Corruption("malformed block"));
  }
  if (NumRestarts() == 0) {
    return NewEmptyIterator();
  }
  return std::make_unique<Iter>(comparator, this);
}

}  // namespace lsmlab
