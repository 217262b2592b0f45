#ifndef LSMLAB_DB_TABLE_CACHE_H_
#define LSMLAB_DB_TABLE_CACHE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "table/table_reader.h"
#include "util/mutex.h"
#include "util/options.h"
#include "util/thread_annotations.h"
#include "version/version_edit.h"

namespace lsmlab {

/// Keeps one open TableReader per live SSTable. Readers are shared_ptrs so
/// a table can be evicted (file deleted by compaction) while an iterator
/// still drains it. Thread-safe.
///
/// One TableCache is shared by every shard of a sharded DB, so entries are
/// scoped by a registered directory: shards allocate file numbers
/// independently, and `(dir_id, file_number)` — not the bare number — names
/// a table. The scoped id also names the table's block-cache entries, so
/// two shards' file 7s never collide in the shared block cache either.
///
/// The reader map is striped: scoped ids hash (mask) onto independent
/// shards, each with its own mutex, so concurrent point lookups resolving
/// different files never serialize on one cache lock. Steady-state lookups
/// usually stop at the per-version pinned handle (FileMetaData::
/// table_handle) and never reach a shard; the shards absorb the cold-file
/// traffic that remains.
class TableCache {
 public:
  TableCache(const Options* options, const InternalKeyComparator* icmp,
             LruCache* block_cache, Statistics* statistics);

  /// Registers a DB (shard) directory and returns its scope id. Called
  /// once per shard before the shard serves traffic.
  uint64_t RegisterDir(const std::string& dir) EXCLUDES(dirs_mu_);

  /// Returns the open reader for `f` in `dir_id`. The per-file pin in
  /// f.table_handle answers when a reader already published it (one handle
  /// lock, no cache shard); otherwise the sharded cache does, opening the
  /// file on a miss, and the result is published into the pin for every
  /// later reader of any Version holding the file.
  Status GetReader(uint64_t dir_id, const FileMetaData& f,
                   std::shared_ptr<TableReader>* reader);

  /// Drops the cached reader (after the file is deleted).
  void Evict(uint64_t dir_id, uint64_t file_number);

  /// Per-table effective filter policy override used by Monkey: tables are
  /// opened with the shared policy; this just re-exposes the reader options.
  const TableReaderOptions& reader_options() const { return reader_options_; }

 private:
  /// Power-of-two stripe count; file numbers are sequential, so masking the
  /// low bits spreads adjacent files across all stripes evenly.
  static constexpr size_t kNumShards = 16;
  /// Scoped ids pack the dir id above the file number. File numbers are
  /// far below 2^48 at lsmlab's scale, and dir ids are tiny.
  static constexpr int kDirIdShift = 48;

  static uint64_t ScopedId(uint64_t dir_id, uint64_t file_number) {
    return (dir_id << kDirIdShift) | file_number;
  }

  /// The shard lookup behind GetReader, opening the file on a miss.
  Status GetShardedReader(uint64_t dir_id, uint64_t file_number,
                          uint64_t file_size,
                          std::shared_ptr<TableReader>* reader);

  struct Shard {
    mutable Mutex mu{LockRank::kTableCacheShard, "table_cache.shard.mu"};
    std::unordered_map<uint64_t, std::shared_ptr<TableReader>> readers
        GUARDED_BY(mu);
  };

  Shard& ShardFor(uint64_t scoped_id) {
    return shards_[scoped_id & (kNumShards - 1)];
  }

  const Options* const options_;
  Statistics* const stats_;
  TableReaderOptions reader_options_;
  /// Registered directories, indexed by dir id. Guarded: registration (at
  /// open) may race a concurrent cold-file resolve in another shard.
  mutable Mutex dirs_mu_{LockRank::kTableCacheDirs, "table_cache.dirs_mu"};
  std::vector<std::string> dirs_ GUARDED_BY(dirs_mu_);
  std::array<Shard, kNumShards> shards_;  // Each Shard locks itself (mu).
};

}  // namespace lsmlab

#endif  // LSMLAB_DB_TABLE_CACHE_H_
