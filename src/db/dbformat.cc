#include "db/dbformat.h"

#include <cstring>

namespace lsmlab {

void AppendInternalKey(std::string* result, const ParsedInternalKey& key) {
  result->append(key.user_key.data(), key.user_key.size());
  PutFixed64(result, PackSequenceAndType(key.sequence, key.type));
}

bool ParseInternalKey(const Slice& internal_key, ParsedInternalKey* result) {
  if (internal_key.size() < 8) {
    return false;
  }
  uint64_t trailer = ExtractTrailer(internal_key);
  uint8_t type = static_cast<uint8_t>(trailer & 0xff);
  if (type > kTypeMerge) {
    return false;
  }
  result->user_key = ExtractUserKey(internal_key);
  result->sequence = trailer >> 8;
  result->type = static_cast<ValueType>(type);
  return true;
}

void InternalKeyComparator::FindShortestSeparator(std::string* start,
                                                  const Slice& limit) const {
  // Shorten the user-key part; if it got shorter, append a max trailer so the
  // result still sorts >= all internal keys with the original user key.
  Slice user_start = ExtractUserKey(*start);
  Slice user_limit = ExtractUserKey(limit);
  std::string tmp(user_start.data(), user_start.size());
  user_comparator_->FindShortestSeparator(&tmp, user_limit);
  if (tmp.size() < user_start.size() &&
      user_comparator_->Compare(user_start, tmp) < 0) {
    PutFixed64(&tmp, PackSequenceAndType(kMaxSequenceNumber,
                                         kValueTypeForSeek));
    *start = tmp;
  }
}

void InternalKeyComparator::FindShortSuccessor(std::string* key) const {
  Slice user_key = ExtractUserKey(*key);
  std::string tmp(user_key.data(), user_key.size());
  user_comparator_->FindShortSuccessor(&tmp);
  if (tmp.size() < user_key.size() &&
      user_comparator_->Compare(user_key, tmp) < 0) {
    PutFixed64(&tmp, PackSequenceAndType(kMaxSequenceNumber,
                                         kValueTypeForSeek));
    *key = tmp;
  }
}

LookupKey::LookupKey(const Slice& user_key, SequenceNumber sequence) {
  size_t usize = user_key.size();
  size_t needed = usize + 13;  // Conservative varint + trailer estimate.
  char* dst;
  if (needed <= sizeof(space_)) {
    dst = space_;
  } else {
    dst = new char[needed];
  }
  start_ = dst;
  // varint32 of internal key length.
  uint32_t internal_len = static_cast<uint32_t>(usize + 8);
  while (internal_len >= 128) {
    *dst++ = static_cast<char>(internal_len | 128);
    internal_len >>= 7;
  }
  *dst++ = static_cast<char>(internal_len);
  kstart_ = dst;
  std::memcpy(dst, user_key.data(), usize);
  dst += usize;
  EncodeFixed64(dst, PackSequenceAndType(sequence, kValueTypeForSeek));
  dst += 8;
  end_ = dst;
}

LookupKey::~LookupKey() {
  if (start_ != space_) {
    delete[] start_;
  }
}

}  // namespace lsmlab
