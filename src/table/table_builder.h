#ifndef LSMLAB_TABLE_TABLE_BUILDER_H_
#define LSMLAB_TABLE_TABLE_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "db/dbformat.h"
#include "filter/filter_policy.h"
#include "io/env.h"
#include "table/block_builder.h"
#include "table/format.h"
#include "table/learned_index.h"
#include "table/table_properties.h"
#include "util/options.h"
#include "util/status.h"

namespace lsmlab {

/// Knobs the builder needs; a projection of Options so the table layer does
/// not depend on the whole knob board.
struct TableBuilderOptions {
  const InternalKeyComparator* comparator = nullptr;
  std::shared_ptr<const FilterPolicy> filter_policy;  // Null disables filters.
  /// Effective bits per key for this table's filter; Monkey varies this by
  /// level. Ignored by policies with intrinsic sizing (cuckoo).
  double filter_bits_per_key = 10.0;
  size_t block_size = 4096;
  int block_restart_interval = 16;
  uint64_t creation_time_micros = 0;
  uint64_t oldest_tombstone_time_micros = 0;
  /// Index structure to build (resolved per level by the engine). The
  /// classic fence-pointer block is always written — kLearnedPLR adds the
  /// model meta block on top and readers fall back to the fences on digest
  /// ties, so correctness never depends on the model.
  IndexType index_type = IndexType::kBinarySearchFence;
  /// Error bound for the kLearnedPLR fit.
  uint32_t learned_index_epsilon = 8;
};

/// Writes a sorted run of internal keys into the lsmlab SSTable format:
///   [data block]* [filter block] [properties block] [metaindex] [index]
///   [footer]
/// The filter is built at sorted-run granularity (tutorial §2.1.3) over user
/// keys. Keys must be added in strictly increasing internal-key order.
class TableBuilder {
 public:
  /// Does not take ownership of `file`.
  TableBuilder(const TableBuilderOptions& options, WritableFile* file);
  ~TableBuilder();

  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  void Add(const Slice& internal_key, const Slice& value);

  /// Writes all trailing metadata. No Add() calls may follow.
  Status Finish();

  Status status() const { return status_; }
  uint64_t NumEntries() const { return properties_.num_entries; }
  /// File size so far (final only after Finish()).
  uint64_t FileSize() const { return offset_; }
  const TableProperties& properties() const { return properties_; }

 private:
  void FlushDataBlock();
  /// Writes `contents` as a block with trailer; fills `handle`.
  void WriteRawBlock(const Slice& contents, BlockHandle* handle);

  TableBuilderOptions options_;
  WritableFile* file_;
  uint64_t offset_ = 0;
  Status status_;
  BlockBuilder data_block_;
  BlockBuilder index_block_;
  std::string last_key_;
  TableProperties properties_;
  bool closed_ = false;

  // Filter inputs: flattened user keys + offsets (cheaper than a
  // vector<string> of millions of keys).
  std::string filter_keys_flat_;
  std::vector<size_t> filter_key_offsets_;

  // Set when a data block was just flushed: the next Add emits the pending
  // index entry with a shortened separator.
  bool pending_index_entry_ = false;
  BlockHandle pending_handle_;

  // Learned-index fitter; non-null only when kLearnedPLR was requested and
  // the comparator admits the monotone digest transform (bytewise order).
  std::unique_ptr<LearnedIndexBuilder> learned_builder_;
};

}  // namespace lsmlab

#endif  // LSMLAB_TABLE_TABLE_BUILDER_H_
