#ifndef LSMLAB_TABLE_TABLE_READER_H_
#define LSMLAB_TABLE_TABLE_READER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "cache/lru_cache.h"
#include "db/dbformat.h"
#include "db/statistics.h"
#include "filter/filter_policy.h"
#include "io/env.h"
#include "table/block.h"
#include "table/format.h"
#include "table/index_reader.h"
#include "table/iterator.h"
#include "table/table_properties.h"
#include "util/options.h"
#include "util/status.h"

namespace lsmlab {

/// Dependencies a reader needs; shared across all tables of a DB.
struct TableReaderOptions {
  const InternalKeyComparator* comparator = nullptr;
  std::shared_ptr<const FilterPolicy> filter_policy;
  /// Shared block cache; nullptr disables caching.
  LruCache* block_cache = nullptr;
  /// Shared statistics sink; nullptr disables counting.
  Statistics* statistics = nullptr;
  bool verify_checksums = false;
};

/// Read side of an SSTable. The per-table index and the per-run filter stay
/// pinned in memory, matching tutorial §2.1.3; data blocks are fetched on
/// demand through the block cache. The index is pluggable (DESIGN.md,
/// "Pluggable per-table indexes"): classic binary-searched fence pointers,
/// or — when the table carries a learned-index meta block — a PLR model
/// that pins an order-of-magnitude fewer bytes and loads the fence block
/// lazily, only on digest-tie fallbacks.
class TableReader : private FenceBlockProvider {
 public:
  /// Opens the table in `file` of `file_size` bytes. `file_number` both
  /// names cache entries and identifies the table in stats.
  static Status Open(const TableReaderOptions& options,
                     std::unique_ptr<RandomAccessFile> file,
                     uint64_t file_size, uint64_t file_number,
                     std::unique_ptr<TableReader>* table);

  ~TableReader() override;

  TableReader(const TableReader&) = delete;
  TableReader& operator=(const TableReader&) = delete;

  /// Point lookup. If the run may contain `internal_key`'s user key, seeks
  /// to the first entry >= internal_key; `*found_entry` is set when such an
  /// entry exists with a matching user key. The entry's internal key and
  /// value are returned through the out parameters.
  Status InternalGet(const ReadOptions& read_options,
                     const Slice& internal_key, bool* found_entry,
                     std::string* entry_key, std::string* entry_value);

  /// True if the per-run filter rules out `user_key` (saving all I/O for
  /// this run). Always false (i.e. "may match") when no filter is present.
  bool KeyDefinitelyAbsent(const Slice& user_key);

  /// Iterator over the full run.
  std::unique_ptr<Iterator> NewIterator(const ReadOptions& read_options);

  const TableProperties& properties() const { return properties_; }
  uint64_t file_number() const { return file_number_; }
  bool has_filter() const { return has_filter_; }
  /// The index structure this table was opened with (learned when the file
  /// carries a learned-index meta block, fence pointers otherwise).
  IndexType index_type() const { return index_reader_->kind(); }
  /// Index bytes currently pinned by this reader (model or fence block,
  /// plus a lazily-loaded fence block after a learned fallback).
  size_t IndexMemoryUsage() const;

  /// Loads every data block into the block cache (Leaper-style re-warm).
  void WarmCache();

  // --- Point-lookup building blocks (DESIGN.md, "Batched I/O") -------------
  // The engine's point-lookup walk locates each key's candidate data block
  // and looks it up in the cache; on a miss its caller reads the block (one
  // Read for Get, one Env::MultiRead per round for MultiGet) and finishes
  // it here before the walk searches it.

  /// The per-batch fetch decision, taken once instead of re-derived from
  /// ReadOptions on every block (satellite of ISSUE 6): whether to verify
  /// trailers and whether completed blocks enter the cache.
  struct BlockFetchContext {
    bool verify_checksums = false;
    bool fill_cache = false;
  };
  BlockFetchContext MakeFetchContext(const ReadOptions& read_options) const {
    return BlockFetchContext{
        options_.verify_checksums || read_options.verify_checksums,
        read_options.fill_cache && options_.block_cache != nullptr};
  }

  /// Resolves, via the pinned index (fence or learned — the point-lookup
  /// walk dispatches through the same IndexReader), the data block that may
  /// contain `internal_key`. Returns false when the index places
  /// the key past the last block (no candidate; *s stays OK unless the
  /// index itself erred).
  bool LocateDataBlock(const Slice& internal_key, BlockHandle* handle,
                       Status* s);

  /// Cache-only lookup for the data block at `offset`; nullptr on miss.
  std::shared_ptr<const Block> LookupCachedBlock(uint64_t offset);

  /// Reads the data block at `handle` through `file` (this table's file or
  /// a readahead window over it) with ReadBlock, so the block adopts its
  /// read buffer; caches it when ctx.fill_cache. For a block the cache
  /// missed: Get's lookup reads here, MultiGet's batches through
  /// FinishBatchedBlockRead.
  std::shared_ptr<const Block> ReadDataBlock(const BlockFetchContext& ctx,
                                             const BlockHandle& handle,
                                             const RandomAccessFile* file,
                                             Status* s);

  /// Completes one block read of a MultiRead: `contents` is what the read
  /// of `handle` into `*buf` (a NewBlockReadBuffer) returned. Checks it
  /// with FinishBlockRead, as ReadDataBlock does, and builds the Block on
  /// *buf; caches it when ctx.fill_cache.
  Status FinishBatchedBlockRead(const BlockFetchContext& ctx,
                                const BlockHandle& handle,
                                const Slice& contents,
                                std::unique_ptr<char[]>* buf,
                                std::shared_ptr<const Block>* block);

  /// Searches `block` for `internal_key` with InternalGet's exact match
  /// semantics (first entry >= internal_key whose user key matches). On a
  /// match, `entry_key` holds the entry's internal key and `*entry_value`
  /// points into `block`. Runs in place: nothing is allocated or copied.
  Status SearchBlock(const Block& block, const Slice& internal_key,
                     bool* found_entry, BlockKeyBuffer* entry_key,
                     Slice* entry_value) const;

  /// The underlying table file; ReadRequests against this reader's blocks
  /// target it.
  RandomAccessFile* file() const { return file_.get(); }

 private:
  TableReader(const TableReaderOptions& options,
              std::unique_ptr<RandomAccessFile> file, uint64_t file_number);

  /// Fetches (via cache if configured) the data block at `handle`,
  /// honouring the read's fill_cache and verify_checksums settings.
  std::shared_ptr<const Block> GetDataBlock(const BlockHandle& handle,
                                            const ReadOptions& read_options,
                                            Status* s);

  /// Core fetch: cache lookup, then — on miss — ReadDataBlock through
  /// `file` (the table file, or an iterator's readahead wrapper).
  std::shared_ptr<const Block> FetchDataBlock(const BlockHandle& handle,
                                              const BlockFetchContext& ctx,
                                              const RandomAccessFile* file,
                                              Status* s);

  /// Builds the data block at `handle` on its checked read buffer `buf`,
  /// and caches it when ctx.fill_cache.
  std::shared_ptr<const Block> AdoptBlock(const BlockFetchContext& ctx,
                                          const BlockHandle& handle,
                                          std::unique_ptr<char[]> buf);

  /// FenceBlockProvider: lazily loads and pins the classic fence block for
  /// a learned table's fallback path. Lock-free (CAS publish), so no lock
  /// is ever held across the I/O.
  Status GetFenceIndexBlock(const Block** block) override;

  class TwoLevelIterator;

  TableReaderOptions options_;
  std::unique_ptr<RandomAccessFile> file_;
  uint64_t file_number_;
  std::unique_ptr<IndexReader> index_reader_;
  /// Fence-block handle from the footer; for learned tables the block
  /// itself is loaded on first fallback and published here.
  BlockHandle fence_index_handle_;
  std::atomic<const Block*> fence_index_block_{nullptr};
  /// The filter block's read buffer, which filter_data_ points into.
  std::unique_ptr<char[]> filter_block_;
  Slice filter_data_;
  bool has_filter_ = false;
  TableProperties properties_;
};

}  // namespace lsmlab

#endif  // LSMLAB_TABLE_TABLE_READER_H_
