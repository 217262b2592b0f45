#include "table/format.h"

#include <cstring>

#include "util/coding.h"
#include "util/crc32c.h"

namespace lsmlab {

void BlockHandle::EncodeTo(std::string* dst) const {
  PutVarint64(dst, offset_);
  PutVarint64(dst, size_);
}

Status BlockHandle::DecodeFrom(Slice* input) {
  if (GetVarint64(input, &offset_) && GetVarint64(input, &size_)) {
    return Status::OK();
  }
  return Status::Corruption("bad block handle");
}

void Footer::EncodeTo(std::string* dst) const {
  const size_t original_size = dst->size();
  metaindex_handle_.EncodeTo(dst);
  index_handle_.EncodeTo(dst);
  dst->resize(original_size + 2 * BlockHandle::kMaxEncodedLength);  // Pad.
  PutFixed32(dst, static_cast<uint32_t>(kTableMagicNumber & 0xffffffffu));
  PutFixed32(dst, static_cast<uint32_t>(kTableMagicNumber >> 32));
}

Status Footer::DecodeFrom(Slice* input) {
  if (input->size() < kEncodedLength) {
    return Status::Corruption("footer too short");
  }
  const char* magic_ptr = input->data() + kEncodedLength - 8;
  const uint32_t magic_lo = DecodeFixed32(magic_ptr);
  const uint32_t magic_hi = DecodeFixed32(magic_ptr + 4);
  const uint64_t magic =
      (static_cast<uint64_t>(magic_hi) << 32) | magic_lo;
  if (magic != kTableMagicNumber) {
    return Status::Corruption("not an lsmlab table (bad magic number)");
  }

  Status result = metaindex_handle_.DecodeFrom(input);
  if (result.ok()) {
    result = index_handle_.DecodeFrom(input);
  }
  if (result.ok()) {
    // Skip any remaining padding.
    *input = Slice(magic_ptr + 8, 0);
  }
  return result;
}

std::unique_ptr<char[]> NewBlockReadBuffer(const BlockHandle& handle) {
  // The read overwrites the buffer: no need to zero it first.
  return std::make_unique_for_overwrite<char[]>(
      static_cast<size_t>(handle.size()) + kBlockTrailerSize);
}

Status FinishBlockRead(const BlockHandle& handle, const Slice& contents,
                       bool verify_checksum, std::unique_ptr<char[]>* buf) {
  const size_t n = static_cast<size_t>(handle.size());
  if (contents.size() != n + kBlockTrailerSize) {
    return Status::Corruption("truncated block read");
  }
  char* data = buf->get();
  if (contents.data() != data) {
    std::memcpy(data, contents.data(), contents.size());
  }
  if (verify_checksum) {
    const uint32_t crc = crc32c::Unmask(DecodeFixed32(data + n + 1));
    if (crc32c::Value(data, n + 1) != crc) {
      return Status::Corruption("block checksum mismatch");
    }
  }
  if (data[n] != 0) {
    return Status::Corruption("unknown block compression type");
  }
  return Status::OK();
}

Status ReadBlock(const RandomAccessFile* file, const BlockHandle& handle,
                 bool verify_checksum, std::unique_ptr<char[]>* buf) {
  *buf = NewBlockReadBuffer(handle);
  Slice contents;
  Status s = file->Read(handle.offset(),
                        static_cast<size_t>(handle.size()) + kBlockTrailerSize,
                        &contents, buf->get());
  return s.ok() ? FinishBlockRead(handle, contents, verify_checksum, buf) : s;
}

}  // namespace lsmlab
