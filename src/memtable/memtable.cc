#include "memtable/memtable.h"

#include <algorithm>
#include <cstring>

#include "util/coding.h"
#include "util/hash.h"

namespace lsmlab {

namespace {

size_t FilterLinesFor(size_t write_buffer_size) {
  const size_t bytes = write_buffer_size / 64;
  return std::max<size_t>(1, (bytes + kBloomLineBytes - 1) / kBloomLineBytes);
}

}  // namespace

MemTable::MemTable(const InternalKeyComparator* comparator,
                   MemTableRepType rep_type, size_t hash_bucket_count,
                   size_t write_buffer_size, uint64_t log_number)
    : comparator_(comparator->user_comparator()),
      entry_comparator_(&comparator_),
      rep_(NewMemTableRep(rep_type, entry_comparator_, &arena_,
                          hash_bucket_count)),
      log_number_(log_number),
      filter_lines_(FilterLinesFor(write_buffer_size)),
      filter_(new FilterLine[filter_lines_]()) {}

void MemTable::AddToFilter(const Slice& user_key) {
  BlockedBloomProbes(HashSlice64(user_key), filter_lines_, kFilterProbes,
                     [this](size_t bit) {
                       std::atomic<uint64_t>& word = FilterWord(bit);
                       word.store(word.load(std::memory_order_relaxed) |
                                      (uint64_t{1} << (bit % 64)),
                                  std::memory_order_relaxed);
                       return true;
                     });
}

bool MemTable::KeyMayMatch(const Slice& user_key) const {
  return BlockedBloomProbes(
      HashSlice64(user_key), filter_lines_, kFilterProbes, [this](size_t bit) {
        return (FilterWord(bit).load(std::memory_order_relaxed) &
                (uint64_t{1} << (bit % 64))) != 0;
      });
}

void MemTable::Add(SequenceNumber seq, ValueType type, const Slice& user_key,
                   const Slice& value) {
  // Entry format:
  //   varint32(internal_key_size) | user_key | fixed64(seq<<8|type)
  //   | varint32(value_size) | value
  size_t user_key_size = user_key.size();
  size_t internal_key_size = user_key_size + 8;
  size_t value_size = value.size();
  size_t encoded_len = VarintLength(internal_key_size) + internal_key_size +
                       VarintLength(value_size) + value_size;
  char* buf = rep_->Allocate(encoded_len);
  char* p = buf;

  // varint32 internal key size.
  uint32_t iks = static_cast<uint32_t>(internal_key_size);
  while (iks >= 128) {
    *p++ = static_cast<char>(iks | 128);
    iks >>= 7;
  }
  *p++ = static_cast<char>(iks);

  std::memcpy(p, user_key.data(), user_key_size);
  p += user_key_size;
  EncodeFixed64(p, PackSequenceAndType(seq, type));
  p += 8;

  uint32_t vs = static_cast<uint32_t>(value_size);
  while (vs >= 128) {
    *p++ = static_cast<char>(vs | 128);
    vs >>= 7;
  }
  *p++ = static_cast<char>(vs);
  std::memcpy(p, value.data(), value_size);

  rep_->Insert(buf);
  AddToFilter(user_key);
  data_size_ += user_key_size + value_size;
}

bool MemTable::Get(const LookupKey& key, Slice* value, ValueType* type_out,
                   bool* skipped_by_filter) {
  const bool may_match = KeyMayMatch(key.user_key());
  if (skipped_by_filter != nullptr) {
    *skipped_by_filter = !may_match;
  }
  if (!may_match) {
    return false;
  }
  const char* entry = rep_->PointSeek(key.internal_key());
  if (entry == nullptr) {
    return false;
  }
  Slice internal_key = GetLengthPrefixedEntryKey(entry);
  // The seek may land on a later user key (or a hash-bucket neighbour).
  if (comparator_.CompareUserKey(ExtractUserKey(internal_key),
                                 key.user_key()) != 0) {
    return false;
  }
  ValueType type = ExtractValueType(internal_key);
  *type_out = type;
  if (type == kTypeValue || type == kTypeVlogPointer || type == kTypeMerge) {
    // The length-prefixed value immediately follows the internal key.
    const char* value_start = internal_key.data() + internal_key.size();
    uint32_t len;
    const char* p = GetVarint32Ptr(value_start, value_start + 5, &len);
    *value = Slice(p, len);
  }
  return true;
}

Slice MemTable::Iterator::key() const {
  return GetLengthPrefixedEntryKey(iter_->entry());
}

Slice MemTable::Iterator::value() const {
  Slice internal_key = GetLengthPrefixedEntryKey(iter_->entry());
  const char* value_start = internal_key.data() + internal_key.size();
  uint32_t len;
  const char* p = GetVarint32Ptr(value_start, value_start + 5, &len);
  return Slice(p, len);
}

std::unique_ptr<MemTable::Iterator> MemTable::NewIterator() {
  return std::make_unique<Iterator>(rep_->NewIterator());
}

size_t MemTable::ApproximateMemoryUsage() const {
  return arena_.MemoryUsage() + filter_lines_ * sizeof(FilterLine);
}

}  // namespace lsmlab
