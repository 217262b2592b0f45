#include "db/table_cache.h"

#include "db/filename.h"
#include "io/env.h"

namespace lsmlab {

TableCache::TableCache(const Options* options,
                       const InternalKeyComparator* icmp,
                       LruCache* block_cache, Statistics* statistics)
    : options_(options), stats_(statistics) {
  reader_options_.comparator = icmp;
  reader_options_.filter_policy = options->filter_policy;
  reader_options_.block_cache = block_cache;
  reader_options_.statistics = statistics;
  reader_options_.verify_checksums = options->verify_checksums;
}

uint64_t TableCache::RegisterDir(const std::string& dir) {
  MutexLock lock(&dirs_mu_);
  dirs_.push_back(dir);
  return dirs_.size() - 1;
}

Status TableCache::GetReader(uint64_t dir_id, const FileMetaData& f,
                             std::shared_ptr<TableReader>* reader) {
  TableHandle* handle = f.table_handle.get();
  if (handle != nullptr) {
    MutexLock lock(&handle->mu);
    if (handle->reader != nullptr) {
      *reader = handle->reader;
      stats_->table_cache_hits.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
  }
  // Resolve through the shards with no handle lock held (the open does
  // real I/O on a cold file, and leaf locks never nest).
  Status s = GetShardedReader(dir_id, f.file_number, f.file_size, reader);
  if (s.ok() && handle != nullptr) {
    MutexLock lock(&handle->mu);
    if (handle->reader == nullptr) {
      // Racing resolvers fetched the same cache entry; first store wins.
      handle->reader = *reader;
    }
  }
  return s;
}

Status TableCache::GetShardedReader(uint64_t dir_id, uint64_t file_number,
                                    uint64_t file_size,
                                    std::shared_ptr<TableReader>* reader) {
  const uint64_t scoped_id = ScopedId(dir_id, file_number);
  Shard& shard = ShardFor(scoped_id);
  {
    MutexLock lock(&shard.mu);
    auto it = shard.readers.find(scoped_id);
    if (it != shard.readers.end()) {
      *reader = it->second;
      stats_->table_cache_hits.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
  }

  // Open outside the shard lock: table opens read the footer, index, and
  // filter, and must not serialize unrelated lookups behind that I/O.
  std::string fname;
  {
    MutexLock lock(&dirs_mu_);
    fname = TableFileName(dirs_[dir_id], file_number);
  }
  std::unique_ptr<RandomAccessFile> file;
  Status s = options_->env->NewRandomAccessFile(fname, &file);
  if (!s.ok()) {
    return s;
  }
  std::unique_ptr<TableReader> table;
  // The scoped id names the table's block-cache entries: two shards may
  // both own a file 7, and their blocks must not alias in the shared cache.
  s = TableReader::Open(reader_options_, std::move(file), file_size,
                        scoped_id, &table);
  if (!s.ok()) {
    return s;
  }
  stats_->table_cache_misses.fetch_add(1, std::memory_order_relaxed);

  MutexLock lock(&shard.mu);
  // Two threads may race to open the same cold file; emplace keeps the
  // first and the loser's reader is discarded (harmless, already open).
  auto [it, inserted] = shard.readers.emplace(scoped_id, std::move(table));
  *reader = it->second;
  return Status::OK();
}

void TableCache::Evict(uint64_t dir_id, uint64_t file_number) {
  const uint64_t scoped_id = ScopedId(dir_id, file_number);
  Shard& shard = ShardFor(scoped_id);
  MutexLock lock(&shard.mu);
  shard.readers.erase(scoped_id);
}

}  // namespace lsmlab
