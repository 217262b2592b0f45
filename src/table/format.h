#ifndef LSMLAB_TABLE_FORMAT_H_
#define LSMLAB_TABLE_FORMAT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "io/env.h"
#include "util/slice.h"
#include "util/status.h"

namespace lsmlab {

/// BlockHandle is a pointer to a span of an SSTable file.
class BlockHandle {
 public:
  static constexpr uint64_t kMaxEncodedLength = 10 + 10;

  BlockHandle() : offset_(~uint64_t{0}), size_(~uint64_t{0}) {}

  uint64_t offset() const { return offset_; }
  void set_offset(uint64_t offset) { offset_ = offset; }
  uint64_t size() const { return size_; }
  void set_size(uint64_t size) { size_ = size; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  uint64_t offset_;
  uint64_t size_;
};

/// Footer: the fixed-size tail of every SSTable, pointing at the metaindex
/// and index blocks and ending in a magic number.
class Footer {
 public:
  static constexpr size_t kEncodedLength =
      2 * BlockHandle::kMaxEncodedLength + 8;

  const BlockHandle& metaindex_handle() const { return metaindex_handle_; }
  void set_metaindex_handle(const BlockHandle& h) { metaindex_handle_ = h; }
  const BlockHandle& index_handle() const { return index_handle_; }
  void set_index_handle(const BlockHandle& h) { index_handle_ = h; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  BlockHandle metaindex_handle_;
  BlockHandle index_handle_;
};

constexpr uint64_t kTableMagicNumber = 0x4c534d4c41422e31ull;  // "LSMLAB.1"

/// Every block is followed by a 5-byte trailer: 1 type byte (0 = raw;
/// compression codes reserved) and a 4-byte masked CRC of data + type.
constexpr size_t kBlockTrailerSize = 5;

/// A buffer for one read of the block at `handle` and its trailer:
/// handle.size() + kBlockTrailerSize bytes, not zeroed.
std::unique_ptr<char[]> NewBlockReadBuffer(const BlockHandle& handle);

/// Completes one read of the block at `handle` into `*buf` (a
/// NewBlockReadBuffer), alone or in a MultiRead: `contents` is what the
/// read returned. Checks its length and the trailer (its CRC too with
/// `verify_checksum`), and copies it into *buf when the file served its
/// own bytes (a readahead window). On success `*buf` starts with the
/// block's handle.size() bytes, for a Block to adopt or a caller to parse
/// in place.
Status FinishBlockRead(const BlockHandle& handle, const Slice& contents,
                       bool verify_checksum, std::unique_ptr<char[]>* buf);

/// The one single-block read: one Read into a NewBlockReadBuffer, then
/// FinishBlockRead.
Status ReadBlock(const RandomAccessFile* file, const BlockHandle& handle,
                 bool verify_checksum, std::unique_ptr<char[]>* buf);

}  // namespace lsmlab

#endif  // LSMLAB_TABLE_FORMAT_H_
