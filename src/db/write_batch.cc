#include "db/write_batch.h"

#include "util/coding.h"

namespace lsmlab {

WriteBatch::WriteBatch() { Clear(); }

void WriteBatch::Clear() {
  rep_.clear();
  rep_.resize(kHeaderSize, '\0');
}

uint32_t WriteBatch::Count() const {
  return DecodeFixed32(rep_.data() + 8);
}

SequenceNumber WriteBatch::sequence() const {
  return DecodeFixed64(rep_.data());
}

void WriteBatch::SetSequence(SequenceNumber seq) {
  EncodeFixed64(rep_.data(), seq);
}

void WriteBatch::PutTyped(ValueType type, const Slice& key,
                          const Slice& value) {
  EncodeFixed32(rep_.data() + 8, Count() + 1);
  rep_.push_back(static_cast<char>(type));
  PutLengthPrefixedSlice(&rep_, key);
  PutLengthPrefixedSlice(&rep_, value);
}

void WriteBatch::ReserveRecord(const Slice& key, const Slice& value) {
  rep_.reserve(rep_.size() + 1 + VarintLength(key.size()) + key.size() +
               VarintLength(value.size()) + value.size());
}

void WriteBatch::Put(const Slice& key, const Slice& value) {
  PutTyped(kTypeValue, key, value);
}

void WriteBatch::Delete(const Slice& key) {
  PutTyped(kTypeDeletion, key, Slice());
}

void WriteBatch::SingleDelete(const Slice& key) {
  PutTyped(kTypeSingleDeletion, key, Slice());
}

void WriteBatch::Merge(const Slice& key, const Slice& operand) {
  PutTyped(kTypeMerge, key, operand);
}

void WriteBatch::Append(const WriteBatch& other) {
  const uint32_t other_count = other.Count();
  if (other_count == 0) {
    return;
  }
  EncodeFixed32(rep_.data() + 8, Count() + other_count);
  rep_.append(other.rep_.data() + kHeaderSize,
              other.rep_.size() - kHeaderSize);
}

void WriteBatch::Handler::TypedRecord(ValueType type, const Slice& key,
                                      const Slice& value) {
  switch (type) {
    case kTypeValue:
      Put(key, value);
      break;
    case kTypeDeletion:
      Delete(key);
      break;
    case kTypeSingleDeletion:
      SingleDelete(key);
      break;
    case kTypeMerge:
      Merge(key, value);
      break;
    case kTypeVlogPointer:
      // Only meaningful to raw handlers; treat as a put of the pointer.
      Put(key, value);
      break;
  }
}

Status WriteBatch::SetRep(const Slice& contents) {
  if (contents.size() < kHeaderSize) {
    return Status::Corruption("write batch header too small");
  }
  rep_.assign(contents.data(), contents.size());
  return Status::OK();
}

Status WriteBatch::Iterate(Handler* handler) const {
  Slice input(rep_);
  input.remove_prefix(kHeaderSize);
  uint32_t found = 0;
  while (!input.empty()) {
    ++found;
    uint8_t tag = static_cast<uint8_t>(input[0]);
    input.remove_prefix(1);
    if (tag > kTypeMerge) {
      return Status::Corruption("unknown write batch record type");
    }
    Slice key, value;
    if (!GetLengthPrefixedSlice(&input, &key) ||
        !GetLengthPrefixedSlice(&input, &value)) {
      return Status::Corruption("truncated write batch record");
    }
    handler->TypedRecord(static_cast<ValueType>(tag), key, value);
  }
  if (found != Count()) {
    return Status::Corruption("write batch count mismatch");
  }
  return Status::OK();
}

}  // namespace lsmlab
