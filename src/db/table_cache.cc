#include "db/table_cache.h"

#include "db/filename.h"
#include "io/env.h"

namespace lsmlab {

TableCache::TableCache(const Options* options, std::string dbname,
                       const InternalKeyComparator* icmp,
                       LruCache* block_cache, Statistics* statistics,
                       uint64_t cache_scope)
    : options_(options),
      dbname_(std::move(dbname)),
      stats_(statistics),
      cache_id_base_(cache_scope << kScopeShift) {
  reader_options_.comparator = icmp;
  reader_options_.filter_policy = options->filter_policy;
  reader_options_.block_cache = block_cache;
  reader_options_.statistics = statistics;
  reader_options_.verify_checksums = options->verify_checksums;
}

Status TableCache::GetReader(const FileMetaData& f,
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
  // Open with no lock held: an open reads the footer, index and filter, and
  // must not stall other readers of the file behind that I/O.
  std::unique_ptr<RandomAccessFile> file;
  Status s = options_->env->NewRandomAccessFile(
      TableFileName(dbname_, f.file_number), &file);
  if (!s.ok()) {
    return s;
  }
  std::unique_ptr<TableReader> table;
  s = TableReader::Open(reader_options_, std::move(file), f.file_size,
                        cache_id_base_ | f.file_number, &table);
  if (!s.ok()) {
    return s;
  }
  stats_->table_cache_misses.fetch_add(1, std::memory_order_relaxed);
  *reader = std::move(table);
  if (handle != nullptr) {
    MutexLock lock(&handle->mu);
    if (handle->reader == nullptr) {
      handle->reader = *reader;
    } else {
      // A racing open published first; share its reader, drop this one.
      *reader = handle->reader;
    }
  }
  return Status::OK();
}

}  // namespace lsmlab
