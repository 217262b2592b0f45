#include "table/table_builder.h"

#include <cassert>

#include "util/coding.h"
#include "util/crc32c.h"

namespace lsmlab {

TableBuilder::TableBuilder(const TableBuilderOptions& options,
                           WritableFile* file)
    : options_(options),
      file_(file),
      data_block_(options.comparator, options.block_restart_interval),
      // Index blocks restart every entry: they are binary-searched, and
      // their keys rarely share prefixes after separator shortening.
      index_block_(options.comparator, 1) {
  assert(options_.comparator != nullptr);
  properties_.creation_time_micros = options.creation_time_micros;
  properties_.oldest_tombstone_time_micros =
      options.oldest_tombstone_time_micros;
  if (options_.index_type == IndexType::kLearnedPLR) {
    // The digest transform is monotone only over bytewise key order; any
    // other comparator defeats it for the whole table.
    if (options_.comparator->user_comparator() == BytewiseComparator()) {
      learned_builder_ =
          std::make_unique<LearnedIndexBuilder>(options_.learned_index_epsilon);
    } else {
      properties_.learned_index_fallback = 1;
    }
  }
}

TableBuilder::~TableBuilder() = default;

void TableBuilder::Add(const Slice& internal_key, const Slice& value) {
  assert(!closed_);
  if (!status_.ok()) {
    return;
  }
  if (properties_.num_entries > 0) {
    assert(options_.comparator->Compare(internal_key, Slice(last_key_)) > 0);
  }

  if (pending_index_entry_) {
    assert(data_block_.empty());
    // Pick a short key in (last_key_of_prev_block, current_key] as the
    // block's fence pointer (tutorial §2.1.3: fence pointers bound every
    // block's key range).
    options_.comparator->FindShortestSeparator(&last_key_, internal_key);
    std::string handle_encoding;
    pending_handle_.EncodeTo(&handle_encoding);
    index_block_.Add(last_key_, handle_encoding);
    if (learned_builder_ != nullptr) {
      // The model is fitted over the same fence keys the index block
      // stores: the digest-certification argument compares query keys
      // against exactly these separators.
      learned_builder_->AddBlock(ExtractUserKey(Slice(last_key_)),
                                 pending_handle_.offset());
    }
    pending_index_entry_ = false;
  }

  if (options_.filter_policy != nullptr) {
    Slice user_key = ExtractUserKey(internal_key);
    filter_key_offsets_.push_back(filter_keys_flat_.size());
    filter_keys_flat_.append(user_key.data(), user_key.size());
  }

  ValueType type = ExtractValueType(internal_key);
  if (type == kTypeDeletion || type == kTypeSingleDeletion) {
    ++properties_.num_tombstones;
  }

  last_key_.assign(internal_key.data(), internal_key.size());
  ++properties_.num_entries;
  properties_.raw_key_bytes += internal_key.size();
  properties_.raw_value_bytes += value.size();
  data_block_.Add(internal_key, value);

  if (data_block_.CurrentSizeEstimate() >= options_.block_size) {
    FlushDataBlock();
  }
}

void TableBuilder::FlushDataBlock() {
  assert(!closed_);
  if (!status_.ok() || data_block_.empty()) {
    return;
  }
  assert(!pending_index_entry_);
  Slice contents = data_block_.Finish();
  WriteRawBlock(contents, &pending_handle_);
  data_block_.Reset();
  ++properties_.num_data_blocks;
  pending_index_entry_ = true;
}

void TableBuilder::WriteRawBlock(const Slice& contents, BlockHandle* handle) {
  handle->set_offset(offset_);
  handle->set_size(contents.size());
  status_ = file_->Append(contents);
  if (status_.ok()) {
    char trailer[kBlockTrailerSize];
    trailer[0] = 0;  // Raw (no compression).
    uint32_t crc = crc32c::Value(contents.data(), contents.size());
    crc = crc32c::Extend(crc, trailer, 1);
    EncodeFixed32(trailer + 1, crc32c::Mask(crc));
    status_ = file_->Append(Slice(trailer, kBlockTrailerSize));
    if (status_.ok()) {
      offset_ += contents.size() + kBlockTrailerSize;
    }
  }
}

Status TableBuilder::Finish() {
  assert(!closed_);
  FlushDataBlock();
  closed_ = true;

  // Data region: blocks 0..n-1 are contiguous from file offset 0 and end
  // here; the learned index reconstructs their handles from this span.
  const uint64_t data_end_offset = offset_;

  // Finalize the last block's fence entry before any index is serialized.
  if (status_.ok() && pending_index_entry_) {
    options_.comparator->FindShortSuccessor(&last_key_);
    std::string handle_encoding;
    pending_handle_.EncodeTo(&handle_encoding);
    index_block_.Add(last_key_, handle_encoding);
    if (learned_builder_ != nullptr) {
      learned_builder_->AddBlock(ExtractUserKey(Slice(last_key_)),
                                 pending_handle_.offset());
    }
    pending_index_entry_ = false;
  }

  // Serialize the fence index now — it is written last, after the meta
  // blocks — so its size lands in the properties, and fit the learned model
  // over the collected fences. A declined fit (defeated digest transform)
  // is recorded per table; the reader then uses the fences alone.
  Slice index_contents;
  std::string learned_block;
  bool has_learned = false;
  if (status_.ok()) {
    index_contents = index_block_.Finish();
    properties_.fence_index_bytes = index_contents.size();
    if (learned_builder_ != nullptr) {
      uint64_t segment_count = 0;
      has_learned = learned_builder_->Finish(data_end_offset, &learned_block,
                                             &segment_count);
      if (has_learned) {
        properties_.index_type = static_cast<uint64_t>(IndexType::kLearnedPLR);
        properties_.learned_index_epsilon = options_.learned_index_epsilon;
        properties_.learned_index_segments = segment_count;
        properties_.learned_index_bytes = learned_block.size();
      } else {
        properties_.learned_index_fallback = 1;
      }
    }
  }

  BlockHandle filter_handle, learned_handle, properties_handle,
      metaindex_handle, index_handle;
  bool has_filter = false;

  // Filter block: one filter over the whole run's user keys.
  if (status_.ok() && options_.filter_policy != nullptr &&
      !filter_key_offsets_.empty()) {
    std::vector<Slice> keys;
    keys.reserve(filter_key_offsets_.size());
    for (size_t i = 0; i < filter_key_offsets_.size(); ++i) {
      size_t start = filter_key_offsets_[i];
      size_t end = (i + 1 < filter_key_offsets_.size())
                       ? filter_key_offsets_[i + 1]
                       : filter_keys_flat_.size();
      keys.emplace_back(filter_keys_flat_.data() + start, end - start);
    }
    std::string filter_data;
    options_.filter_policy->CreateFilter(keys.data(),
                                         static_cast<int>(keys.size()),
                                         &filter_data);
    WriteRawBlock(filter_data, &filter_handle);
    has_filter = true;
  }

  // Learned-index meta block.
  if (status_.ok() && has_learned) {
    WriteRawBlock(learned_block, &learned_handle);
  }

  // Properties block.
  if (status_.ok()) {
    std::string props;
    properties_.EncodeTo(&props);
    WriteRawBlock(props, &properties_handle);
  }

  // Metaindex block: names -> handles, added in bytewise order
  // ("filter.*" < "lsmlab.learned_index" < "lsmlab.properties").
  if (status_.ok()) {
    BlockBuilder metaindex_block(BytewiseComparator(), 1);
    if (has_filter) {
      std::string handle_encoding;
      filter_handle.EncodeTo(&handle_encoding);
      metaindex_block.Add(
          std::string("filter.") + options_.filter_policy->Name(),
          handle_encoding);
    }
    if (has_learned) {
      std::string handle_encoding;
      learned_handle.EncodeTo(&handle_encoding);
      metaindex_block.Add("lsmlab.learned_index", handle_encoding);
    }
    {
      std::string handle_encoding;
      properties_handle.EncodeTo(&handle_encoding);
      metaindex_block.Add("lsmlab.properties", handle_encoding);
    }
    WriteRawBlock(metaindex_block.Finish(), &metaindex_handle);
  }

  // Index block (the classic fence pointers, serialized above).
  if (status_.ok()) {
    WriteRawBlock(index_contents, &index_handle);
  }

  // Footer.
  if (status_.ok()) {
    Footer footer;
    footer.set_metaindex_handle(metaindex_handle);
    footer.set_index_handle(index_handle);
    std::string footer_encoding;
    footer.EncodeTo(&footer_encoding);
    status_ = file_->Append(footer_encoding);
    if (status_.ok()) {
      offset_ += footer_encoding.size();
    }
  }
  return status_;
}

}  // namespace lsmlab
