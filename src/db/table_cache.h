#ifndef LSMLAB_DB_TABLE_CACHE_H_
#define LSMLAB_DB_TABLE_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "table/table_reader.h"
#include "util/options.h"
#include "version/version_edit.h"

namespace lsmlab {

/// Resolves one engine's SSTables to open TableReaders. The pin is the
/// cache: a file's reader lives in its FileMetaData::table_handle, which
/// every Version holding the file shares, so the reader stays open until
/// the last such Version dies. The first lookup opens the file and
/// publishes the reader there; every later one copies it under the
/// handle's lock. Thread-safe.
class TableCache {
 public:
  /// `cache_scope` (the engine's shard index) names the engine's tables in
  /// the shared block cache: shards number their files independently, and
  /// two shards' file 7s must not alias there.
  TableCache(const Options* options, std::string dbname,
             const InternalKeyComparator* icmp, LruCache* block_cache,
             Statistics* statistics, uint64_t cache_scope);

  TableCache(const TableCache&) = delete;
  TableCache& operator=(const TableCache&) = delete;

  /// Returns the open reader for `f`: the pin's when one is published
  /// (table_cache_hits), else a fresh open with no lock held, published
  /// into the pin unless a racing open got there first
  /// (table_cache_misses).
  Status GetReader(const FileMetaData& f,
                   std::shared_ptr<TableReader>* reader);

 private:
  /// Block-cache ids put the scope above the file number. File numbers are
  /// far below 2^48 at lsmlab's scale, and scopes are tiny.
  static constexpr int kScopeShift = 48;

  const Options* const options_;
  const std::string dbname_;
  Statistics* const stats_;
  TableReaderOptions reader_options_;
  const uint64_t cache_id_base_;
};

}  // namespace lsmlab

#endif  // LSMLAB_DB_TABLE_CACHE_H_
