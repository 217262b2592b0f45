#include "version/version_edit.h"

#include "util/coding.h"

namespace lsmlab {

namespace {
// Manifest record field tags.
enum Tag : uint32_t {
  kComparator = 1,
  kLogNumber = 2,
  kNextFileNumber = 3,
  kLastSequence = 4,
  kDeletedFile = 5,
  kNewFile = 6,
};
}  // namespace

void VersionEdit::Clear() {
  comparator_.clear();
  log_number_ = 0;
  next_file_number_ = 0;
  last_sequence_ = 0;
  has_comparator_ = false;
  has_log_number_ = false;
  has_next_file_number_ = false;
  has_last_sequence_ = false;
  deleted_files_.clear();
  new_files_.clear();
}

void VersionEdit::EncodeTo(std::string* dst) const {
  if (has_comparator_) {
    PutVarint32(dst, kComparator);
    PutLengthPrefixedSlice(dst, comparator_);
  }
  if (has_log_number_) {
    PutVarint32(dst, kLogNumber);
    PutVarint64(dst, log_number_);
  }
  if (has_next_file_number_) {
    PutVarint32(dst, kNextFileNumber);
    PutVarint64(dst, next_file_number_);
  }
  if (has_last_sequence_) {
    PutVarint32(dst, kLastSequence);
    PutVarint64(dst, last_sequence_);
  }
  for (const auto& [level, number] : deleted_files_) {
    PutVarint32(dst, kDeletedFile);
    PutVarint32(dst, static_cast<uint32_t>(level));
    PutVarint64(dst, number);
  }
  for (const auto& [level, f] : new_files_) {
    PutVarint32(dst, kNewFile);
    PutVarint32(dst, static_cast<uint32_t>(level));
    PutVarint64(dst, f.file_number);
    PutVarint64(dst, f.file_size);
    PutLengthPrefixedSlice(dst, f.smallest.Encode());
    PutLengthPrefixedSlice(dst, f.largest.Encode());
    PutVarint64(dst, f.num_entries);
    PutVarint64(dst, f.num_tombstones);
    PutVarint64(dst, f.creation_time_micros);
    PutVarint64(dst, f.oldest_tombstone_time_micros);
    PutVarint64(dst, f.oldest_vlog);
  }
}

Status VersionEdit::DecodeFrom(const Slice& src) {
  Clear();
  Slice input = src;
  uint32_t tag;
  while (GetVarint32(&input, &tag)) {
    switch (tag) {
      case kComparator: {
        Slice name;
        if (!GetLengthPrefixedSlice(&input, &name)) {
          return Status::Corruption("bad comparator name in version edit");
        }
        SetComparatorName(name);
        break;
      }
      case kLogNumber:
        if (!GetVarint64(&input, &log_number_)) {
          return Status::Corruption("bad log number in version edit");
        }
        has_log_number_ = true;
        break;
      case kNextFileNumber:
        if (!GetVarint64(&input, &next_file_number_)) {
          return Status::Corruption("bad next file number in version edit");
        }
        has_next_file_number_ = true;
        break;
      case kLastSequence:
        if (!GetVarint64(&input, &last_sequence_)) {
          return Status::Corruption("bad last sequence in version edit");
        }
        has_last_sequence_ = true;
        break;
      case kDeletedFile: {
        uint32_t level;
        uint64_t number;
        if (!GetVarint32(&input, &level) || !GetVarint64(&input, &number)) {
          return Status::Corruption("bad deleted file in version edit");
        }
        deleted_files_.insert(
            std::make_pair(static_cast<int>(level), number));
        break;
      }
      case kNewFile: {
        uint32_t level;
        FileMetaData f;
        Slice smallest, largest;
        if (!GetVarint32(&input, &level) ||
            !GetVarint64(&input, &f.file_number) ||
            !GetVarint64(&input, &f.file_size) ||
            !GetLengthPrefixedSlice(&input, &smallest) ||
            !GetLengthPrefixedSlice(&input, &largest) ||
            !GetVarint64(&input, &f.num_entries) ||
            !GetVarint64(&input, &f.num_tombstones) ||
            !GetVarint64(&input, &f.creation_time_micros) ||
            !GetVarint64(&input, &f.oldest_tombstone_time_micros) ||
            !GetVarint64(&input, &f.oldest_vlog)) {
          return Status::Corruption("bad new file in version edit");
        }
        f.smallest.DecodeFrom(smallest);
        f.largest.DecodeFrom(largest);
        new_files_.emplace_back(static_cast<int>(level), f);
        break;
      }
      default:
        return Status::Corruption("unknown tag in version edit");
    }
  }
  // The loop exits when the next tag varint fails to parse; that is only
  // well-formed at exact end-of-input. Trailing bytes that don't form a tag
  // (e.g. a truncated varint with its continuation bit set) are damage, not
  // padding — accepting them would silently drop a suffix of the record.
  if (!input.empty()) {
    return Status::Corruption("trailing garbage in version edit");
  }
  return Status::OK();
}

}  // namespace lsmlab
