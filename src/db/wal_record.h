#ifndef LSMLAB_DB_WAL_RECORD_H_
#define LSMLAB_DB_WAL_RECORD_H_

#include <cstdint>
#include <string>

#include "util/coding.h"
#include "util/slice.h"

namespace lsmlab {

/// The two kinds of WAL record (DESIGN.md, "Sharding architecture"). A
/// plain record is one serialized WriteBatch, which starts with its
/// sequence number; sequences stay below 2^56, so byte 7 is zero. A
/// cross-shard slice is one shard's part of a batch that spans shards: a
/// fixed64 holding the facade's batch id, with kCrossShardTag in byte 7,
/// then the slice's WriteBatch. Recovery applies a slice only if the
/// facade's commit log holds its id.
constexpr uint8_t kCrossShardTag = 0x58;  // 'X'
constexpr uint64_t kMaxCrossShardId = (1ull << 56) - 1;

/// Appends the tag of a cross-shard slice of batch `id` (1 to
/// kMaxCrossShardId) to `dst`; the slice's WriteBatch follows it.
inline void PutCrossShardTag(std::string* dst, uint64_t id) {
  PutFixed64(dst, id | (static_cast<uint64_t>(kCrossShardTag) << 56));
}

/// Splits a WAL record into its WriteBatch (`*batch`) and, for a
/// cross-shard slice, its batch id (`*cross_shard_id`; 0 for a plain
/// record). Returns false for a record whose byte 7 holds another tag, or
/// a slice tagged with id 0. The batch's own framing is WriteBatch::SetRep's
/// to check.
inline bool SplitWalRecord(const Slice& record, Slice* batch,
                           uint64_t* cross_shard_id) {
  *batch = record;
  *cross_shard_id = 0;
  if (record.size() < 8 || record[7] == 0) {
    return true;
  }
  if (static_cast<uint8_t>(record[7]) != kCrossShardTag) {
    return false;
  }
  *cross_shard_id = DecodeFixed64(record.data()) & kMaxCrossShardId;
  batch->remove_prefix(8);
  return *cross_shard_id != 0;
}

}  // namespace lsmlab

#endif  // LSMLAB_DB_WAL_RECORD_H_
