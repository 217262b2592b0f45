#include "util/options.h"

#include <cstdio>

#include "util/comparator.h"

namespace lsmlab {

Status Options::Validate() const {
  if (size_ratio < 2) {
    return Status::InvalidArgument("size_ratio must be >= 2");
  }
  if (num_levels < 2) {
    return Status::InvalidArgument("num_levels must be >= 2");
  }
  if (max_write_buffer_number < 1) {
    return Status::InvalidArgument("max_write_buffer_number must be >= 1");
  }
  if (level0_file_num_compaction_trigger < 1) {
    return Status::InvalidArgument(
        "level0_file_num_compaction_trigger must be >= 1");
  }
  if (level0_slowdown_writes_trigger < level0_file_num_compaction_trigger) {
    return Status::InvalidArgument(
        "level0_slowdown_writes_trigger must be >= compaction trigger");
  }
  if (level0_stop_writes_trigger < level0_slowdown_writes_trigger) {
    return Status::InvalidArgument(
        "level0_stop_writes_trigger must be >= slowdown trigger");
  }
  if (write_buffer_size < 1024) {
    return Status::InvalidArgument("write_buffer_size must be >= 1KiB");
  }
  if (target_file_size < 1024) {
    return Status::InvalidArgument("target_file_size must be >= 1KiB");
  }
  if (filter_bits_per_key < 0.0) {
    return Status::InvalidArgument("filter_bits_per_key must be >= 0");
  }
  if (block_restart_interval < 1) {
    return Status::InvalidArgument("block_restart_interval must be >= 1");
  }
  if (max_subcompactions < 1) {
    return Status::InvalidArgument("max_subcompactions must be >= 1");
  }
  if (max_background_error_retries < 0) {
    return Status::InvalidArgument(
        "max_background_error_retries must be >= 0");
  }
  if (max_background_error_retries > 0 &&
      background_error_retry_max_micros < background_error_retry_initial_micros) {
    return Status::InvalidArgument(
        "background_error_retry_max_micros must be >= the initial backoff");
  }
  if (learned_index_epsilon < 1 || learned_index_epsilon > 4096) {
    return Status::InvalidArgument(
        "learned_index_epsilon must be in [1, 4096]");
  }
  if (static_cast<int>(index_type_per_level.size()) > num_levels) {
    return Status::InvalidArgument(
        "index_type_per_level has more entries than num_levels");
  }
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (!shard_split_keys.empty()) {
    if (static_cast<int>(shard_split_keys.size()) != num_shards - 1) {
      return Status::InvalidArgument(
          "shard_split_keys must hold num_shards - 1 boundaries (or none)");
    }
    const Comparator* cmp =
        comparator != nullptr ? comparator : BytewiseComparator();
    for (size_t i = 1; i < shard_split_keys.size(); ++i) {
      if (cmp->Compare(shard_split_keys[i - 1], shard_split_keys[i]) >= 0) {
        return Status::InvalidArgument(
            "shard_split_keys must be strictly increasing");
      }
    }
  }
  return Status::OK();
}

std::string Options::DesignPointLabel() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s/T=%d/%s/%s/bpk=%.1f",
                DataLayoutName(data_layout), size_ratio,
                compaction_granularity == CompactionGranularity::kWholeLevel
                    ? "whole"
                    : FilePickPolicyName(file_pick_policy),
                filter_allocation == FilterAllocation::kMonkey ? "monkey"
                                                               : "uniform",
                filter_bits_per_key);
  std::string label(buf);
  if (index_type == IndexType::kLearnedPLR || !index_type_per_level.empty()) {
    std::snprintf(buf, sizeof(buf), "/idx=%s-e%u",
                  !index_type_per_level.empty() ? "mixed"
                                                : IndexTypeName(index_type),
                  learned_index_epsilon);
    label += buf;
  }
  return label;
}

const char* DataLayoutName(DataLayout layout) {
  switch (layout) {
    case DataLayout::kLeveling:
      return "leveling";
    case DataLayout::kTiering:
      return "tiering";
    case DataLayout::kLazyLeveling:
      return "lazy-leveling";
    case DataLayout::kOneLeveling:
      return "1-leveling";
  }
  return "unknown";
}

const char* FilePickPolicyName(FilePickPolicy policy) {
  switch (policy) {
    case FilePickPolicy::kRoundRobin:
      return "round-robin";
    case FilePickPolicy::kLeastOverlap:
      return "least-overlap";
    case FilePickPolicy::kMostTombstones:
      return "most-tombstones";
    case FilePickPolicy::kOldestFirst:
      return "oldest-first";
    case FilePickPolicy::kWidestRange:
      return "widest-range";
  }
  return "unknown";
}

const char* MemTableRepTypeName(MemTableRepType type) {
  switch (type) {
    case MemTableRepType::kSkipList:
      return "skiplist";
    case MemTableRepType::kVector:
      return "vector";
    case MemTableRepType::kHashSkipList:
      return "hash-skiplist";
    case MemTableRepType::kHashLinkList:
      return "hash-linklist";
  }
  return "unknown";
}

const char* IndexTypeName(IndexType type) {
  switch (type) {
    case IndexType::kBinarySearchFence:
      return "fence";
    case IndexType::kLearnedPLR:
      return "learned-plr";
  }
  return "unknown";
}

IndexType ResolveIndexTypeForLevel(const Options& options, int level) {
  if (level >= 0 &&
      static_cast<size_t>(level) < options.index_type_per_level.size()) {
    return options.index_type_per_level[static_cast<size_t>(level)];
  }
  return options.index_type;
}

}  // namespace lsmlab
