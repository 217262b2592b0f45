#ifndef LSMLAB_TABLE_LEARNED_INDEX_H_
#define LSMLAB_TABLE_LEARNED_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace lsmlab {

/// Piecewise-linear learned index over an SSTable's fence pointers
/// (DESIGN.md, "Pluggable per-table indexes"). SSTables are immutable, so
/// the model is fitted once at table-build time — a single greedy pass over
/// (key-digest, block-number) pairs with a hard epsilon error bound — and
/// never retrained.
///
/// Keys enter the model through a monotone key-to-number transform: the
/// table's fence user keys share a common prefix (the LCP of the first and
/// last fence), which is skipped, and the next 8 bytes are read big-endian.
/// The transform is monotone for bytewise-ordered keys, so the per-block
/// digest array is sorted and a digest comparison that is *strict* certifies
/// the corresponding full-key comparison. Lookups that hit a digest tie
/// cannot be certified from digests alone and fall back to the classic
/// binary-searched fence block — correctness never depends on the model.

/// One fitted segment: for x >= start_x (until the next segment's start),
/// predicted block = intercept + slope * (x - start_x), within +-epsilon of
/// the true block for every fitted fence digest.
struct PlrSegment {
  uint64_t start_x = 0;
  double slope = 0.0;
  double intercept = 0.0;
};

/// The decoded learned-index meta block: the model plus the compact
/// per-block tables (digests + data-block offsets) lookups run against.
struct LearnedIndexModel {
  /// Bytes every fence user key shares and the transform skips. Kept
  /// verbatim so out-of-range query keys can be ordered against the table.
  std::string prefix;
  uint32_t epsilon = 0;
  uint64_t num_blocks = 0;
  /// num_blocks + 1 file offsets: offsets[i] is data block i's start,
  /// offsets[num_blocks] is the end of the data region. Block i's on-disk
  /// size is offsets[i+1] - offsets[i] - kBlockTrailerSize.
  std::vector<uint64_t> offsets;
  /// num_blocks fence digests, sorted non-decreasing.
  std::vector<uint64_t> digests;
  std::vector<PlrSegment> segments;

  void EncodeTo(std::string* dst) const;
  /// Strict decoder for the untrusted on-disk block: every malformed,
  /// truncated, over-counted, non-finite or trailing-garbage input returns
  /// Corruption without over-reading `input` (fuzzed by
  /// fuzz_learned_index).
  static Status DecodeFrom(const Slice& input, LearnedIndexModel* model);

  /// The monotone transform applied to a query user key. Keys outside the
  /// table's common prefix clamp to 0 / UINT64_MAX so the digest order still
  /// brackets them correctly.
  uint64_t QueryDigest(const Slice& user_key) const;

  /// Model evaluation: predicted block number for digest `x`, clamped to
  /// [0, num_blocks - 1]. Requires num_blocks > 0.
  uint64_t PredictBlock(uint64_t x) const;

  /// In-memory footprint of the decoded tables (the bytes a reader pins).
  size_t MemoryUsage() const;
};

/// Build-side fitter. Feed one fence per data block in file order; Finish
/// fits the model and serializes the meta block. Returns false — and writes
/// nothing — when the keyspace defeats the digest transform (too many
/// digest ties for the model to discriminate), in which case the table
/// records the fallback in its properties and readers use the fence block.
class LearnedIndexBuilder {
 public:
  explicit LearnedIndexBuilder(uint32_t epsilon);

  /// Records data block `block_offset`'s fence pointer. `fence_user_key` is
  /// the user-key part of the index entry emitted for the block; keys must
  /// arrive in non-decreasing order.
  void AddBlock(const Slice& fence_user_key, uint64_t block_offset);

  /// Fits and serializes. `data_end_offset` is the file offset one past the
  /// last data block's trailer. On success appends the encoded block to
  /// `dst` and fills `*segment_count`.
  bool Finish(uint64_t data_end_offset, std::string* dst,
              uint64_t* segment_count);

  uint64_t num_blocks() const { return block_offsets_.size(); }

 private:
  const uint32_t epsilon_;
  // Fence user keys, flattened (cheaper than a vector<string> of thousands
  // of keys — same trick as the filter-key buffer in TableBuilder).
  std::string fence_keys_flat_;
  std::vector<size_t> fence_key_offsets_;
  std::vector<uint64_t> block_offsets_;
};

/// Shared transform: big-endian read of up to 8 bytes of `user_key`
/// starting at byte `prefix_skip`, zero-padded past the end. Monotone over
/// bytewise-ordered keys that share the first `prefix_skip` bytes.
uint64_t LearnedKeyDigest(const Slice& user_key, size_t prefix_skip);

}  // namespace lsmlab

#endif  // LSMLAB_TABLE_LEARNED_INDEX_H_
