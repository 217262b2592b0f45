#include "table/table_reader.h"

#include <algorithm>
#include <cassert>

#include "io/readahead_file.h"
#include "util/coding.h"

namespace lsmlab {

TableReader::TableReader(const TableReaderOptions& options,
                         std::unique_ptr<RandomAccessFile> file,
                         uint64_t file_number)
    : options_(options), file_(std::move(file)), file_number_(file_number) {}

TableReader::~TableReader() {
  delete fence_index_block_.load(std::memory_order_acquire);
}

Status TableReader::Open(const TableReaderOptions& options,
                         std::unique_ptr<RandomAccessFile> file,
                         uint64_t file_size, uint64_t file_number,
                         std::unique_ptr<TableReader>* table) {
  table->reset();
  if (file_size < Footer::kEncodedLength) {
    return Status::Corruption("file is too short to be an sstable");
  }

  char footer_space[Footer::kEncodedLength];
  Slice footer_input;
  Status s =
      file->Read(file_size - Footer::kEncodedLength, Footer::kEncodedLength,
                 &footer_input, footer_space);
  if (!s.ok()) {
    return s;
  }
  Footer footer;
  s = footer.DecodeFrom(&footer_input);
  if (!s.ok()) {
    return s;
  }

  auto reader = std::unique_ptr<TableReader>(
      new TableReader(options, std::move(file), file_number));
  reader->fence_index_handle_ = footer.index_handle();

  // Every block below is read once, into a buffer that its Block or its
  // parser uses in place.
  auto read_block = [&](const BlockHandle& handle,
                        std::unique_ptr<char[]>* buf) {
    return ReadBlock(reader->file_.get(), handle, options.verify_checksums,
                     buf);
  };

  // Metaindex: locate filter, properties, and the optional learned index.
  std::unique_ptr<char[]> buf;
  s = read_block(footer.metaindex_handle(), &buf);
  if (!s.ok()) {
    return s;
  }
  Block metaindex_block(std::move(buf),
                        static_cast<size_t>(footer.metaindex_handle().size()));
  auto meta_iter = metaindex_block.NewIterator(BytewiseComparator());

  if (options.filter_policy != nullptr) {
    std::string filter_key =
        std::string("filter.") + options.filter_policy->Name();
    meta_iter->Seek(filter_key);
    if (meta_iter->Valid() && meta_iter->key() == Slice(filter_key)) {
      Slice handle_value = meta_iter->value();
      BlockHandle filter_handle;
      if (filter_handle.DecodeFrom(&handle_value).ok()) {
        s = read_block(filter_handle, &reader->filter_block_);
        if (!s.ok()) {
          return s;
        }
        reader->filter_data_ =
            Slice(reader->filter_block_.get(),
                  static_cast<size_t>(filter_handle.size()));
        reader->has_filter_ = true;
      }
    }
  }

  meta_iter->Seek("lsmlab.properties");
  if (meta_iter->Valid() && meta_iter->key() == Slice("lsmlab.properties")) {
    Slice handle_value = meta_iter->value();
    BlockHandle props_handle;
    if (props_handle.DecodeFrom(&handle_value).ok()) {
      s = read_block(props_handle, &buf);
      if (!s.ok()) {
        return s;
      }
      s = reader->properties_.DecodeFrom(
          Slice(buf.get(), static_cast<size_t>(props_handle.size())));
      if (!s.ok()) {
        return s;
      }
    }
  }

  // Index: a table carrying a learned-index meta block pins only the model;
  // tables without one pin the classic fence block. A malformed learned
  // block fails the open — a reader must never silently downgrade a table
  // that claims a learned index (that would mask corruption).
  bool learned = false;
  meta_iter->Seek("lsmlab.learned_index");
  if (meta_iter->Valid() && meta_iter->key() == Slice("lsmlab.learned_index")) {
    Slice handle_value = meta_iter->value();
    BlockHandle learned_handle;
    s = learned_handle.DecodeFrom(&handle_value);
    if (!s.ok()) {
      return s;
    }
    s = read_block(learned_handle, &buf);
    if (!s.ok()) {
      return s;
    }
    LearnedIndexModel model;
    s = LearnedIndexModel::DecodeFrom(
        Slice(buf.get(), static_cast<size_t>(learned_handle.size())), &model);
    if (!s.ok()) {
      return s;
    }
    if (options.statistics != nullptr) {
      options.statistics->index_bytes_loaded.fetch_add(
          learned_handle.size(), std::memory_order_relaxed);
    }
    // The private-base upcast is only accessible in TableReader's scope, so
    // it cannot happen inside make_unique.
    FenceBlockProvider* provider = reader.get();
    reader->index_reader_ = std::make_unique<LearnedIndexReader>(
        std::move(model), options.comparator, options.statistics, provider);
    learned = true;
  }
  if (!learned) {
    s = read_block(footer.index_handle(), &buf);
    if (!s.ok()) {
      return s;
    }
    if (options.statistics != nullptr) {
      options.statistics->index_bytes_loaded.fetch_add(
          footer.index_handle().size(), std::memory_order_relaxed);
    }
    reader->index_reader_ = std::make_unique<BinarySearchIndexReader>(
        std::make_unique<Block>(
            std::move(buf), static_cast<size_t>(footer.index_handle().size())),
        options.comparator);
  }

  *table = std::move(reader);
  return Status::OK();
}

Status TableReader::GetFenceIndexBlock(const Block** block) {
  const Block* loaded = fence_index_block_.load(std::memory_order_acquire);
  if (loaded != nullptr) {
    *block = loaded;
    return Status::OK();
  }
  std::unique_ptr<char[]> buf;
  Status s = ReadBlock(file_.get(), fence_index_handle_,
                       options_.verify_checksums, &buf);
  if (!s.ok()) {
    return s;
  }
  const Block* fresh =
      new Block(std::move(buf), static_cast<size_t>(fence_index_handle_.size()));
  const Block* expected = nullptr;
  if (fence_index_block_.compare_exchange_strong(expected, fresh,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_acquire)) {
    if (options_.statistics != nullptr) {
      options_.statistics->index_bytes_loaded.fetch_add(
          fresh->size(), std::memory_order_relaxed);
    }
    *block = fresh;
  } else {
    delete fresh;  // A concurrent fallback won the publish race.
    *block = expected;
  }
  return Status::OK();
}

size_t TableReader::IndexMemoryUsage() const {
  size_t total = index_reader_->MemoryUsage();
  const Block* fence = fence_index_block_.load(std::memory_order_acquire);
  if (fence != nullptr) {
    total += fence->size();
  }
  return total;
}

bool TableReader::KeyDefinitelyAbsent(const Slice& user_key) {
  if (!has_filter_ || options_.filter_policy == nullptr) {
    return false;
  }
  if (options_.statistics != nullptr) {
    options_.statistics->filter_checks.fetch_add(1, std::memory_order_relaxed);
  }
  return !options_.filter_policy->KeyMayMatch(user_key, filter_data_);
}

namespace {

void MakeBlockCacheKey(uint64_t file_number, uint64_t offset, char* buf) {
  EncodeFixed64(buf, file_number);
  EncodeFixed64(buf + 8, offset);
}

}  // namespace

std::shared_ptr<const Block> TableReader::GetDataBlock(
    const BlockHandle& handle, const ReadOptions& read_options, Status* s) {
  return FetchDataBlock(handle, MakeFetchContext(read_options), file_.get(),
                        s);
}

std::shared_ptr<const Block> TableReader::FetchDataBlock(
    const BlockHandle& handle, const BlockFetchContext& ctx,
    const RandomAccessFile* file, Status* s) {
  *s = Status::OK();
  std::shared_ptr<const Block> block = LookupCachedBlock(handle.offset());
  return block != nullptr ? block : ReadDataBlock(ctx, handle, file, s);
}

std::shared_ptr<const Block> TableReader::ReadDataBlock(
    const BlockFetchContext& ctx, const BlockHandle& handle,
    const RandomAccessFile* file, Status* s) {
  std::unique_ptr<char[]> buf;
  *s = ReadBlock(file, handle, ctx.verify_checksums, &buf);
  return s->ok() ? AdoptBlock(ctx, handle, std::move(buf)) : nullptr;
}

bool TableReader::LocateDataBlock(const Slice& internal_key,
                                  BlockHandle* handle, Status* s) {
  return index_reader_->Locate(internal_key, handle, s);
}

std::shared_ptr<const Block> TableReader::LookupCachedBlock(uint64_t offset) {
  if (options_.block_cache == nullptr) {
    return nullptr;
  }
  char cache_key[16];
  MakeBlockCacheKey(file_number_, offset, cache_key);
  return std::static_pointer_cast<const Block>(
      options_.block_cache->Lookup(Slice(cache_key, 16)));
}

Status TableReader::FinishBatchedBlockRead(
    const BlockFetchContext& ctx, const BlockHandle& handle,
    const Slice& contents, std::unique_ptr<char[]>* buf,
    std::shared_ptr<const Block>* block) {
  Status s = FinishBlockRead(handle, contents, ctx.verify_checksums, buf);
  *block = s.ok() ? AdoptBlock(ctx, handle, std::move(*buf)) : nullptr;
  return s;
}

std::shared_ptr<const Block> TableReader::AdoptBlock(
    const BlockFetchContext& ctx, const BlockHandle& handle,
    std::unique_ptr<char[]> buf) {
  auto block = std::make_shared<const Block>(
      std::move(buf), static_cast<size_t>(handle.size()));
  if (ctx.fill_cache) {
    char cache_key[16];
    MakeBlockCacheKey(file_number_, handle.offset(), cache_key);
    options_.block_cache->Insert(Slice(cache_key, 16), block, block->size());
  }
  return block;
}

Status TableReader::SearchBlock(const Block& block, const Slice& internal_key,
                                bool* found_entry, BlockKeyBuffer* entry_key,
                                Slice* entry_value) const {
  const InternalKeyComparator& icmp = *options_.comparator;
  Status s;
  *found_entry = block.Seek(icmp, internal_key, entry_key, entry_value, &s) &&
                 icmp.CompareUserKey(ExtractUserKey(entry_key->slice()),
                                     ExtractUserKey(internal_key)) == 0;
  return s;
}

Status TableReader::InternalGet(const ReadOptions& read_options,
                                const Slice& internal_key, bool* found_entry,
                                std::string* entry_key,
                                std::string* entry_value) {
  *found_entry = false;

  BlockHandle handle;
  Status s;
  if (!index_reader_->Locate(internal_key, &handle, &s)) {
    return s;
  }

  auto block = GetDataBlock(handle, read_options, &s);
  if (!s.ok()) {
    return s;
  }
  BlockKeyBuffer key;
  Slice value;
  s = SearchBlock(*block, internal_key, found_entry, &key, &value);
  if (*found_entry) {
    entry_key->assign(key.slice().data(), key.slice().size());
    entry_value->assign(value.data(), value.size());
  }
  return s;
}

/// Classic two-level iteration: an index iterator yields block handles; a
/// data iterator walks the current block. The index iterator is whatever
/// the table's IndexReader provides — handles only, never index keys.
class TableReader::TwoLevelIterator final : public Iterator {
 public:
  TwoLevelIterator(TableReader* table, ReadOptions read_options)
      : table_(table),
        read_options_(read_options),
        ctx_(table->MakeFetchContext(read_options)),
        index_iter_(table->index_reader_->NewIterator()) {}

  bool Valid() const override {
    return data_iter_ != nullptr && data_iter_->Valid();
  }

  void SeekToFirst() override {
    status_ = Status::OK();
    index_iter_->SeekToFirst();
    InitDataBlock();
    if (data_iter_ != nullptr) {
      data_iter_->SeekToFirst();
    }
    SkipEmptyDataBlocksForward();
  }

  void Seek(const Slice& target) override {
    status_ = Status::OK();
    index_iter_->Seek(target);
    InitDataBlock();
    if (data_iter_ != nullptr) {
      data_iter_->Seek(target);
    }
    SkipEmptyDataBlocksForward();
  }

  void Next() override {
    assert(Valid());
    data_iter_->Next();
    SkipEmptyDataBlocksForward();
  }

  Slice key() const override { return data_iter_->key(); }
  Slice value() const override { return data_iter_->value(); }

  Status status() const override {
    if (!index_iter_->status().ok()) {
      return index_iter_->status();
    }
    if (data_iter_ != nullptr && !data_iter_->status().ok()) {
      return data_iter_->status();
    }
    return status_;
  }

 private:
  /// Opens the block the index iterator is on. A seek that lands in the
  /// block already open keeps it, as LevelDB's InitDataBlock does: a scan
  /// re-seeking past a key's hidden versions stays in its block without
  /// another block-cache lookup. (A failed block never stays open.)
  void InitDataBlock() {
    if (!index_iter_->Valid()) {
      data_iter_.reset();
      data_block_.reset();
      return;
    }
    const BlockHandle& handle = index_iter_->handle();
    if (data_iter_ != nullptr && handle.offset() == data_block_offset_) {
      return;
    }
    Status s;
    data_block_ = table_->FetchDataBlock(handle, ctx_, ReadFile(), &s);
    if (!s.ok()) {
      status_ = s;
      data_iter_.reset();
      data_block_.reset();
      return;
    }
    data_iter_ = data_block_->NewIterator(table_->options_.comparator);
    data_block_offset_ = handle.offset();
  }

  /// The file block misses read from: the raw table file, or (when the read
  /// asks for readahead) a per-iterator prefetch wrapper. Fully cached
  /// iterations never reach this file, so readahead costs them nothing
  /// beyond this small idle object.
  const RandomAccessFile* ReadFile() {
    if (read_options_.readahead_bytes == 0) {
      return table_->file_.get();
    }
    if (readahead_ == nullptr) {
      size_t max = read_options_.readahead_bytes;
      size_t initial = std::min<size_t>(16 << 10, max);
      Statistics* stats = table_->options_.statistics;
      readahead_ = std::make_unique<ReadaheadRandomAccessFile>(
          table_->file_.get(), initial, max,
          stats != nullptr ? &stats->readahead_hits : nullptr,
          stats != nullptr ? &stats->readahead_misses : nullptr);
    }
    return readahead_.get();
  }

  /// Moves past blocks that ran out cleanly. A failed block ends the
  /// iteration: stepping past it would let a merge serve the older versions
  /// its entries shadow.
  void SkipEmptyDataBlocksForward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      if (data_iter_ != nullptr && status_.ok()) {
        status_ = data_iter_->status();
      }
      if (!index_iter_->Valid() || !status_.ok()) {
        data_iter_.reset();
        return;
      }
      index_iter_->Next();
      InitDataBlock();
      if (data_iter_ != nullptr) {
        data_iter_->SeekToFirst();
      }
    }
  }

  TableReader* const table_;
  const ReadOptions read_options_;
  const BlockFetchContext ctx_;  // Fetch decision taken once per iterator.
  std::unique_ptr<IndexIterator> index_iter_;
  std::unique_ptr<ReadaheadRandomAccessFile> readahead_;  // Lazy.
  std::shared_ptr<const Block> data_block_;  // Keeps the block alive.
  uint64_t data_block_offset_ = 0;  // Where data_block_ starts.
  std::unique_ptr<Iterator> data_iter_;
  Status status_;
};

std::unique_ptr<Iterator> TableReader::NewIterator(
    const ReadOptions& read_options) {
  return std::make_unique<TwoLevelIterator>(this, read_options);
}

void TableReader::WarmCache() {
  if (options_.block_cache == nullptr) {
    return;
  }
  auto index_iter = index_reader_->NewIterator();
  ReadOptions warm_options;  // fill_cache defaults on.
  for (index_iter->SeekToFirst(); index_iter->Valid(); index_iter->Next()) {
    Status s;
    GetDataBlock(index_iter->handle(), warm_options, &s);
    if (!s.ok()) {
      return;
    }
  }
}

}  // namespace lsmlab
