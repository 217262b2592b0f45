#include "db/shard_engine.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "db/filename.h"
#include "db/internal_iterators.h"
#include "db/merge_operator.h"
#include "db/wal_record.h"
#include "io/wal_reader.h"
#include "table/merging_iterator.h"
#include "table/table_builder.h"
#include "tuning/monkey.h"
#include "util/clock.h"
#include "util/coding.h"
#include "util/comparator.h"
#include "util/logging.h"

namespace lsmlab {

namespace {

/// Applies one WriteBatch into a memtable at consecutive sequence numbers.
/// Shared by WAL replay and the apply half of a commit.
class BatchInserter : public WriteBatch::Handler {
 public:
  BatchInserter(MemTable* mem, SequenceNumber seq) : mem_(mem), seq_(seq) {}
  void TypedRecord(ValueType type, const Slice& key,
                   const Slice& value) override {
    mem_->Add(seq_++, type, key, value);
  }
  void Put(const Slice&, const Slice&) override {}
  void Delete(const Slice&) override {}
  void SingleDelete(const Slice&) override {}
  void Merge(const Slice&, const Slice&) override {}
  SequenceNumber last_sequence() const { return seq_ - 1; }

 private:
  MemTable* const mem_;
  SequenceNumber seq_;
};

/// Key-value separation (WiscKey, tutorial §2.2.2): copies a batch with
/// every put value of at least `threshold` bytes appended to the value log
/// and replaced by its pointer, so the WAL and the memtable carry only the
/// pointer.
class ValueSeparator : public WriteBatch::Handler {
 public:
  ValueSeparator(VlogManager* vlog, size_t threshold, WriteBatch* out)
      : vlog_(vlog), threshold_(threshold), out_(out) {}
  void TypedRecord(ValueType type, const Slice& key,
                   const Slice& value) override {
    if (!status_.ok()) {
      return;
    }
    if (type != kTypeValue || value.size() < threshold_) {
      out_->PutTyped(type, key, value);
      return;
    }
    VlogPointer ptr;
    status_ = vlog_->Append(key, value, &ptr);
    pointer_.clear();
    ptr.EncodeTo(&pointer_);
    out_->PutTyped(kTypeVlogPointer, key, pointer_);
  }
  void Put(const Slice&, const Slice&) override {}
  void Delete(const Slice&) override {}
  void SingleDelete(const Slice&) override {}
  void Merge(const Slice&, const Slice&) override {}
  const Status& status() const { return status_; }

 private:
  VlogManager* const vlog_;
  const size_t threshold_;
  WriteBatch* const out_;
  std::string pointer_;
  Status status_;
};

/// Reads back every value a replayed WAL record points at. A write that was
/// not synced can keep its WAL record through a crash yet lose its value
/// in the value log's torn tail; the write-order prefix then ends before it.
class PointerChecker : public WriteBatch::Handler {
 public:
  explicit PointerChecker(VlogManager* vlog) : vlog_(vlog) {}
  void TypedRecord(ValueType type, const Slice& key,
                   const Slice& value) override {
    VlogPointer ptr;
    if (type != kTypeVlogPointer || !status_.ok()) {
      return;
    }
    if (!ptr.DecodeFrom(value)) {
      status_ = Status::Corruption("bad vlog pointer");
      return;
    }
    if (ptr.file_number != file_number_) {
      file_.reset();  // A WAL's pointers lead into its own log.
      file_number_ = ptr.file_number;
    }
    status_ = vlog_->Read(ptr, key, &scratch_, &file_);
  }
  void Put(const Slice&, const Slice&) override {}
  void Delete(const Slice&) override {}
  void SingleDelete(const Slice&) override {}
  void Merge(const Slice&, const Slice&) override {}
  const Status& status() const { return status_; }

 private:
  VlogManager* const vlog_;
  std::unique_ptr<RandomAccessFile> file_;  // Log file_number_, once open.
  uint64_t file_number_ = 0;
  std::string scratch_;
  Status status_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Open / initialize / recover
// ---------------------------------------------------------------------------

ShardEngine::ShardEngine(const Options& options, std::string dbname,
                         uint64_t cache_scope, const ShardResources& resources)
    : options_(options),
      dbname_(std::move(dbname)),
      internal_comparator_(options_.comparator),
      stats_(resources.stats),
      block_cache_(resources.block_cache),
      pool_(resources.pool),
      compaction_rate_limiter_(resources.rate_limiter),
      table_cache_(&options_, dbname_, &internal_comparator_, block_cache_,
                   stats_, cache_scope) {}

ShardEngine::~ShardEngine() {
  BeginShutdown();
  // The pool is shared and facade-owned: drain it (queued tasks hold
  // `this`) but do not destroy it.
  pool_->WaitForIdle();
}

void ShardEngine::BeginShutdown() {
  MutexLock lock(&mu_);
  shutting_down_ = true;
  background_cv_.SignalAll();
}

Status ShardEngine::Open(const Options& options, const std::string& name,
                         uint64_t cache_scope, const ShardResources& resources,
                         const std::set<uint64_t>* committed_batches,
                         std::unique_ptr<ShardEngine>* dbptr) {
  // Options were validated and normalized by the facade.
  dbptr->reset();
  auto db = std::unique_ptr<ShardEngine>(
      new ShardEngine(options, name, cache_scope, resources));
  Status s = db->Initialize(committed_batches);
  if (!s.ok()) {
    return s;
  }
  *dbptr = std::move(db);
  return Status::OK();
}

Status ShardEngine::Initialize(const std::set<uint64_t>* committed_batches) {
  Env* env = options_.env;
  Status s = env->CreateDir(dbname_);
  if (!s.ok()) {
    return s;
  }

  versions_ = std::make_unique<VersionSet>(dbname_, &options_,
                                           &internal_comparator_);
  picker_ = std::make_unique<CompactionPicker>(&options_);

  if (options_.filter_allocation == FilterAllocation::kMonkey) {
    monkey_bits_ = MonkeyBitsPerLevel(options_.filter_bits_per_key,
                                      options_.num_levels,
                                      options_.size_ratio);
  } else {
    monkey_bits_.assign(static_cast<size_t>(options_.num_levels),
                        options_.filter_bits_per_key);
  }

  bool exists = env->FileExists(CurrentFileName(dbname_));
  if (!exists) {
    if (!options_.create_if_missing) {
      return Status::InvalidArgument(dbname_, "does not exist");
    }
    s = versions_->CreateNew();
    if (!s.ok()) {
      return s;
    }
  } else {
    if (options_.error_if_exists) {
      return Status::InvalidArgument(dbname_, "exists");
    }
    s = versions_->Recover();
    if (!s.ok()) {
      return s;
    }
  }

  if (options_.kv_separation) {
    // Recovery's first memtable opens the first log.
    vlog_ = std::make_unique<VlogManager>(dbname_, env);
  }

  s = Recover(committed_batches);
  if (!s.ok()) {
    return s;
  }

  MutexLock lock(&mu_);
  RemoveObsoleteFiles();
  MaybeScheduleCompaction();
  return Status::OK();
}

std::unique_ptr<MemTable> ShardEngine::MakeMemTable(
    uint64_t log_number) const {
  return std::make_unique<MemTable>(
      &internal_comparator_, options_.memtable_rep,
      options_.memtable_hash_bucket_count, options_.write_buffer_size,
      log_number);
}

Status ShardEngine::Recover(const std::set<uint64_t>* committed_batches) {
  // Replay every WAL at or above the manifest's log number, in order; the
  // records of older logs are all in tables. A value log shares its WAL's
  // number and may outlive it, so no new file may reuse a value log's
  // number either.
  std::vector<std::string> children;
  Status s = options_.env->GetChildren(dbname_, &children);
  if (!s.ok()) {
    return s;
  }
  std::vector<uint64_t> logs;
  for (const auto& child : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(child, &number, &type) ||
        (type != FileType::kLogFile && type != FileType::kVlogFile)) {
      continue;
    }
    versions_->MarkFileNumberUsed(number);
    if (type == FileType::kLogFile && number >= versions_->log_number()) {
      logs.push_back(number);
    }
  }
  std::sort(logs.begin(), logs.end());

  SequenceNumber max_sequence = versions_->last_sequence();
  VersionEdit edit;
  for (size_t i = 0; i < logs.size(); ++i) {
    uint64_t log_number = logs[i];
    bool stop_replay = false;
    s = RecoverLogFile(log_number, committed_batches, &max_sequence, &edit,
                       &stop_replay);
    if (!s.ok()) {
      return s;
    }
    if (stop_replay) {
      // Point-in-time recovery: a corrupt record truncated this log's
      // replay; anything in later logs is past the corruption point and
      // must be dropped to keep the recovered state a write-order prefix.
      LSMLAB_LOG_WARN(options_.info_log.get(),
                      "point-in-time recovery stopped at log %llu; "
                      "dropping %zu later log(s)",
                      static_cast<unsigned long long>(log_number),
                      logs.size() - i - 1);
      // The skipped logs must not survive this recovery: RemoveObsoleteFiles
      // only deletes logs below min_log, so an undeleted skipped log with a
      // number above the new active WAL would be replayed on the next open,
      // resurrecting the dropped writes out of order. Their numbers are
      // marked used (so the new WAL and manifest log_number land above
      // them — even a failed delete is then ignored by the next Recover());
      // delete them before the new WAL is created.
      for (size_t j = i + 1; j < logs.size(); ++j) {
        // A failed delete is safe: the number is marked used above.
        (void)options_.env->RemoveFile(LogFileName(dbname_, logs[j]));
      }
      break;
    }
  }

  // A snapshot is the last sequence when it was taken, and
  // ReadOptions::snapshot_seqno = 0 means "no snapshot". An engine with no
  // writes yet therefore starts at 1, a sequence no entry carries, so a
  // snapshot taken before its first write still hides every later write.
  versions_->SetLastSequence(std::max<SequenceNumber>(max_sequence, 1));

  // Start a fresh memtable + log; everything replayed is now either in L0
  // tables (via the edit) or re-bufferable. Recovery is single-threaded,
  // but the memtable/log fields are guarded, so take mu_ anyway.
  MutexLock lock(&mu_);
  s = NewMemTableAndLog();
  if (!s.ok()) {
    return s;
  }
  edit.SetLogNumber(log_file_number_);
  s = versions_->LogAndApply(&edit);
  // Replay tables are installed (or recovery failed); drop their pins so
  // RemoveObsoleteFiles sees a clean slate.
  pending_outputs_.clear();
  if (s.ok()) {
    // First view of this DB's lifetime; every later publish replaces it.
    PublishReadView();
  }
  return s;
}

Status ShardEngine::RecoverLogFile(
    uint64_t log_number, const std::set<uint64_t>* committed_batches,
    SequenceNumber* max_sequence, VersionEdit* edit, bool* stop_replay) {
  *stop_replay = false;
  std::unique_ptr<SequentialFile> file;
  Status s = options_.env->NewSequentialFile(LogFileName(dbname_, log_number),
                                             &file);
  if (!s.ok()) {
    return s;
  }

  // Captures the first corruption the record reader reports. A cleanly
  // truncated tail reads as EOF and is never reported — both recovery
  // modes tolerate it (the WAL contract: an unacknowledged tail write may
  // be lost). A checksum/length corruption IS reported, and the mode
  // decides: absolute consistency refuses to open; point-in-time stops
  // replay at the corruption point instead of skipping past it.
  struct Reporter : public wal::Reader::Reporter {
    Logger* logger;
    Status status;
    void Corruption(size_t bytes, const Status& s) override {
      LSMLAB_LOG_WARN(logger, "WAL corruption: dropping %zu bytes: %s", bytes,
                      s.ToString().c_str());
      if (status.ok()) {
        status = s;
      }
    }
  } reporter;
  reporter.logger = options_.info_log.get();

  wal::Reader reader(file.get(), &reporter);
  Slice record;
  std::string scratch;
  std::unique_ptr<MemTable> mem;
  PointerChecker checker(vlog_.get());

  while (reader.ReadRecord(&record, &scratch)) {
    if (!reporter.status.ok()) {
      // The reader skipped a corrupt region to find this record; applying
      // it would recover writes newer than ones already lost. Stop here —
      // the mode check below decides whether that is fatal.
      break;
    }
    // A cross-shard slice lies where its shard applied it: nothing else
    // wrote the shard between its append and its insert. So it replays in
    // place, at its own sequence, iff its batch committed.
    Slice rep;
    uint64_t cross_shard_id = 0;
    if (!SplitWalRecord(record, &rep, &cross_shard_id)) {
      reporter.Corruption(record.size(),
                          Status::Corruption("unknown WAL record tag"));
      break;
    }
    if (cross_shard_id != 0 && (committed_batches == nullptr ||
                                committed_batches->count(cross_shard_id) == 0)) {
      continue;
    }
    WriteBatch batch;
    s = batch.SetRep(rep);
    if (!s.ok()) {
      return s;
    }
    if (vlog_ != nullptr) {
      s = batch.Iterate(&checker);
      if (!s.ok()) {
        return s;
      }
      s = checker.status();
      if (s.IsCorruption() || s.IsNotFound()) {
        // A torn tail, or a log whose creation the crash undid: the
        // mode check below decides, as for a torn WAL record.
        reporter.Corruption(record.size(), s);
        break;
      }
      if (!s.ok()) {
        return s;  // A failed open or read says nothing about the log.
      }
    }
    if (mem == nullptr) {
      mem = MakeMemTable();
    }
    BatchInserter inserter(mem.get(), batch.sequence());
    s = batch.Iterate(&inserter);
    if (!s.ok()) {
      return s;
    }
    if (batch.Count() > 0 && inserter.last_sequence() > *max_sequence) {
      *max_sequence = inserter.last_sequence();
    }

    if (mem->DataSize() >= options_.write_buffer_size) {
      s = WriteLevel0Table(std::move(mem), kMaxSequenceNumber, edit,
                           /*dropped=*/nullptr);
      if (!s.ok()) {
        return s;
      }
    }
  }
  if (!reporter.status.ok()) {
    if (options_.wal_recovery_mode == WalRecoveryMode::kAbsoluteConsistency) {
      return reporter.status;
    }
    *stop_replay = true;
  }
  if (mem != nullptr && !mem->Empty()) {
    s = WriteLevel0Table(std::move(mem), kMaxSequenceNumber, edit,
                         /*dropped=*/nullptr);
    if (!s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

Status ShardEngine::NewMemTableAndLog() {
  uint64_t new_log_number = versions_->NewFileNumber();
  std::unique_ptr<WritableFile> lfile;
  if (options_.enable_wal) {
    Status s = options_.env->NewWritableFile(
        LogFileName(dbname_, new_log_number), &lfile);
    if (!s.ok()) {
      return s;
    }
  }
  if (vlog_ != nullptr) {
    // The value log rolls with the WAL, so every pointer a memtable holds
    // points into the memtable's own log. The roll syncs the outgoing log:
    // a sealed memtable's values are durable before its flush installs.
    Status s = vlog_->OpenActive(new_log_number);
    if (!s.ok()) {
      return s;
    }
  }
  log_file_ = std::move(lfile);
  log_ = log_file_ ? std::make_unique<wal::Writer>(log_file_.get()) : nullptr;
  log_file_number_ = new_log_number;
  mem_ = std::shared_ptr<MemTable>(MakeMemTable(new_log_number));
  if (vlog_ != nullptr) {
    // A reader may hold the memtable past its flush; its log stays until
    // then (RemoveObsoleteFiles).
    std::erase_if(memtables_, [](const std::weak_ptr<MemTable>& weak) {
      return weak.expired();
    });
    memtables_.push_back(mem_);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Status ShardEngine::Put(const WriteOptions& options, const Slice& key,
               const Slice& value) {
  return WriteInternal(options, kTypeValue, key, value);
}

Status ShardEngine::Delete(const WriteOptions& options, const Slice& key) {
  // A tombstone: key plus an (empty) marker value (tutorial §2.1.2).
  return WriteInternal(options, kTypeDeletion, key, Slice());
}

Status ShardEngine::SingleDelete(const WriteOptions& options, const Slice& key) {
  return WriteInternal(options, kTypeSingleDeletion, key, Slice());
}

Status ShardEngine::Merge(const WriteOptions& options, const Slice& key,
                 const Slice& operand) {
  if (options_.merge_operator == nullptr) {
    return MergeOperatorMissing();
  }
  return WriteInternal(options, kTypeMerge, key, operand);
}

Status ShardEngine::DeleteRange(const WriteOptions& options, const Slice& begin,
                       const Slice& end) {
  // Simplification (documented): snapshot-scan the range and tombstone each
  // live key. Native range tombstones are future work.
  ReadOptions read_options;
  auto iter = NewIterator(read_options);
  std::vector<std::string> doomed;
  for (iter->Seek(begin); iter->Valid(); iter->Next()) {
    if (options_.comparator->Compare(iter->key(), end) >= 0) {
      break;
    }
    doomed.push_back(iter->key().ToString());
  }
  Status s = iter->status();
  if (!s.ok()) {
    return s;
  }
  for (const auto& key : doomed) {
    s = Delete(options, key);
    if (!s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

Status ShardEngine::WriteInternal(const WriteOptions& options, ValueType type,
                         const Slice& key, const Slice& value) {
  WriteBatch batch;
  batch.ReserveRecord(key, value);  // One allocation for the whole record.
  batch.PutTyped(type, key, value);
  return WriteBatchInternal(options, &batch);
}

Status ShardEngine::Write(const WriteOptions& options, WriteBatch* batch) {
  if (batch == nullptr || batch->Count() == 0) {
    return Status::OK();
  }
  return WriteBatchInternal(options, batch);
}

namespace {
/// Hard cap on the serialized size of one write group (one WAL record).
constexpr size_t kMaxGroupBytes = 1 << 20;
/// When the leader's own batch is small, limit how much follower data may
/// ride along so a tiny write's latency is not held hostage by a megabyte
/// of followers.
constexpr size_t kSmallBatchBytes = 128 << 10;
}  // namespace

Status ShardEngine::WriteBatchInternal(const WriteOptions& options,
                              WriteBatch* batch) {
  Writer w(batch, options.sync, options.no_slowdown);
  return EnqueueWriter(&w);
}

Status ShardEngine::SealActiveMemTable(bool force, bool for_checkpoint) {
  Writer w(nullptr, /*sync=*/false, /*no_slowdown=*/false);
  w.force_seal = force;
  w.checkpoint_seal = for_checkpoint;
  return EnqueueWriter(&w);
}

Status ShardEngine::EnqueueWriter(Writer* w) {
  if (!AwaitLeadership(w)) {
    return w->status;  // A leader committed this write within its group.
  }
  // Leader path: commit the group (or seal the memtable) with the queue
  // frozen behind us — nothing else can enter the write path until we
  // hand leadership on below.
  Status s;
  if (w->batch == nullptr) {
    MutexLock lock(&mu_);
    if (error_state_.hard() && !w->force_seal) {
      s = error_state_.status;
    } else if (!mem_->Empty() || w->force_seal || w->checkpoint_seal) {
      // A forced seal rotates away from a poisoned WAL, which must not be
      // fsynced again; its acked contents are re-persisted by the flush
      // Resume() schedules. A checkpoint seal always keeps the fsync: the
      // sealed log becomes checkpoint state.
      s = NewMemTableAndLogLocked(/*skip_old_wal_sync=*/w->force_seal);
    }
  } else {
    WriteBatch* logged = nullptr;
    s = LogWriteGroup(w, write_group_, &logged);
    if (s.ok()) {
      s = ApplyWriteGroup(logged, write_group_.size());
    }
  }
  HandOnLeadership(w, s);
  return s;
}

bool ShardEngine::AwaitLeadership(Writer* w) {
  MutexLock qlock(&writer_queue_mu_);
  write_queue_.push_back(w);
  while (!w->done && write_queue_.front() != w) {
    w->cv.Wait(writer_queue_mu_);
  }
  if (w->done) {
    return false;
  }
  // Leadership is ours until we hand it on, so is write_group_.
  write_group_.clear();
  BuildWriteGroup(w, &write_group_);
  return true;
}

void ShardEngine::HandOnLeadership(Writer* leader, const Status& s) {
  MutexLock qlock(&writer_queue_mu_);
  for (Writer* member : write_group_) {
    assert(write_queue_.front() == member);
    write_queue_.pop_front();
    if (member != leader) {
      member->status = s;
      member->done = true;
      member->cv.Signal();
    }
  }
  if (!write_queue_.empty()) {
    write_queue_.front()->cv.Signal();
  }
}

void ShardEngine::BuildWriteGroup(Writer* leader, std::vector<Writer*>* group) {
  // Leader is at the queue front.
  group->push_back(leader);
  if (leader->batch == nullptr || leader->cross_shard_id != 0) {
    return;  // Seals and cross-shard slices never batch with writes.
  }
  size_t bytes = leader->batch->ApproximateSize();
  const size_t max_bytes =
      bytes <= kSmallBatchBytes ? bytes + kSmallBatchBytes : kMaxGroupBytes;

  for (auto it = write_queue_.begin() + 1; it != write_queue_.end(); ++it) {
    Writer* follower = *it;
    if (follower->batch == nullptr || follower->cross_shard_id != 0) {
      break;  // Memtable-seal / cross-shard barrier.
    }
    if (follower->sync && !leader->sync) {
      break;  // Would silently upgrade the leader's durability obligation.
    }
    if (follower->no_slowdown != leader->no_slowdown) {
      break;  // Stall-ladder policy must be uniform across the group.
    }
    bytes += follower->batch->ApproximateSize();
    if (bytes > max_bytes) {
      break;
    }
    group->push_back(follower);
  }
}

Status ShardEngine::LogWriteGroup(Writer* leader,
                                  const std::vector<Writer*>& group,
                                  WriteBatch** logged) {
  Status s;
  WriteBatch* merged = nullptr;
  SequenceNumber seq_start = 0;
  wal::Writer* log = nullptr;
  WritableFile* log_file = nullptr;

  {
    MutexLock lock(&mu_);
    s = MakeRoomForWrite(leader->no_slowdown);
    if (s.ok()) {
      if (group.size() == 1) {
        merged = leader->batch;
      } else {
        group_batch_.Clear();
        for (Writer* member : group) {
          group_batch_.Append(*member->batch);
        }
        merged = &group_batch_;
      }
      // Allocate — but do not publish — the group's sequence range. Readers
      // keep snapshotting the old last_sequence, so the entries stay
      // invisible until the apply half; a failed append therefore consumes
      // no sequence numbers.
      seq_start = versions_->last_sequence() + 1;
      merged->SetSequence(seq_start);
      // The WAL handles are stable outside mu_: they are only swapped by a
      // write-queue leader (MakeRoomForWrite / seal requests), and we are
      // the sole leader until the group completes.
      log = log_.get();
      log_file = log_file_.get();
    }
  }
  if (!s.ok()) {
    return s;
  }

  if (vlog_ != nullptr) {
    // The one place values become pointers: once per group, as leader, so
    // no seal can come between a value's append and its pointer's insert,
    // and the value lands in the log of the memtable that holds it.
    separated_batch_.Clear();
    ValueSeparator separator(vlog_.get(), options_.kv_separation_threshold,
                             &separated_batch_);
    s = merged->Iterate(&separator);
    if (s.ok()) {
      s = separator.status();
    }
    separated_batch_.SetSequence(seq_start);
    merged = &separated_batch_;
  }
  if (s.ok() && log != nullptr) {
    // One WAL record and at most one fsync for the whole group, outside
    // mu_ — the point of group commit (fsync amortization, §2.2.5).
    Slice record = merged->rep();
    std::string tagged;
    if (leader->cross_shard_id != 0) {
      PutCrossShardTag(&tagged, leader->cross_shard_id);
      tagged.append(record.data(), record.size());
      record = tagged;
    }
    s = log->AddRecord(record);
    if (s.ok()) {
      stats_->wal_bytes_written.fetch_add(record.size(),
                                         std::memory_order_relaxed);
      if (leader->sync || options_.sync_wal) {
        // The record may hold pointers into the active vlog; the values
        // must be durable no later than the pointers to them.
        if (vlog_ != nullptr) {
          s = vlog_->Sync();
        }
        if (s.ok()) {
          s = log_file->Sync();
        }
        if (s.ok()) {
          stats_->wal_syncs.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }
  if (!s.ok()) {
    // The WAL's or the value log's on-disk offset is now ambiguous (a
    // failed append or fsync may or may not have persisted bytes — the
    // fsyncgate pathology), so no further append to either is safe: hard
    // error. Resume() recovers by rotating to a fresh WAL and value log.
    MutexLock lock(&mu_);
    RecordBackgroundError(s, ErrorSeverity::kHard, ErrorSource::kWal);
    return s;
  }
  *logged = merged;
  return Status::OK();
}

Status ShardEngine::ApplyWriteGroup(WriteBatch* logged, size_t group_size) {
  const uint32_t count = logged->Count();
  Status s;
  {
    MutexLock lock(&mu_);
    BatchInserter inserter(mem_.get(), logged->sequence());
    s = logged->Iterate(&inserter);
    if (s.ok()) {
      versions_->SetLastSequence(inserter.last_sequence());
    } else {
      // A partially applied group leaks unpublished sequence numbers into
      // the memtable; flushing it would persist unacked writes. Hard error,
      // and deliberately not resumable — reopen replays the WAL cleanly.
      RecordBackgroundError(s, ErrorSeverity::kHard, ErrorSource::kMemtable);
    }
  }
  if (group_size > 1) {
    group_batch_.Clear();  // Release the coalesced bytes promptly.
  }
  if (s.ok()) {
    stats_->writes.fetch_add(count, std::memory_order_relaxed);
    stats_->write_groups.fetch_add(1, std::memory_order_relaxed);
    stats_->RecordWriteGroupSize(group_size);
  }
  return s;
}

Status ShardEngine::LogCrossShard(Writer* w) {
  // A slice never joins another leader's group (BuildWriteGroup stops at
  // it), so it always comes to lead.
  AwaitLeadership(w);
  return LogWriteGroup(w, write_group_, &w->logged);
}

Status ShardEngine::EndCrossShard(Writer* w, CrossShardFate fate,
                                  const Status& cause) {
  Status s = cause;
  if (fate == CrossShardFate::kCommitted) {
    s = ApplyWriteGroup(w->logged, 1);
  } else if (fate == CrossShardFate::kInDoubt) {
    MutexLock lock(&mu_);
    RecordBackgroundError(cause, ErrorSeverity::kHard,
                          ErrorSource::kCommitLog);
  }
  HandOnLeadership(w, s);
  return s;
}

Status ShardEngine::MakeRoomForWrite(bool no_slowdown) {
  bool allow_delay = true;
  while (true) {
    if (error_state_.hard()) {
      // Read-only mode: reads keep serving from the last ReadView, writes
      // fail fast with the poisoning error until Resume() clears it.
      return error_state_.status;
    }

    int l0_files = versions_->current()->NumFiles(0);

    if (allow_delay && l0_files >= options_.level0_slowdown_writes_trigger &&
        l0_files < options_.level0_stop_writes_trigger) {
      // Soft stall: give compaction a 1ms head start, once per write.
      if (no_slowdown) {
        return Status::Busy("write slowdown active");
      }
      mu_.Unlock();
      options_.clock->SleepForMicros(1000);
      stats_->write_slowdown_micros.fetch_add(1000, std::memory_order_relaxed);
      mu_.Lock();
      allow_delay = false;
      continue;
    }

    if (mem_->DataSize() < options_.write_buffer_size) {
      return Status::OK();  // Room available.
    }

    // The active memtable is full.
    if (static_cast<int>(imms_.size()) >=
        options_.max_write_buffer_number - 1) {
      // All buffers full: hard stall until a flush retires one.
      if (no_slowdown) {
        return Status::Busy("memtable limit");
      }
      uint64_t start = options_.clock->NowMicros();
      MaybeScheduleFlush();
      while (!error_state_.hard() &&
             static_cast<int>(imms_.size()) >=
                 options_.max_write_buffer_number - 1) {
        background_cv_.Wait(mu_);
      }
      stats_->write_stall_micros.fetch_add(
          options_.clock->NowMicros() - start, std::memory_order_relaxed);
      continue;
    }

    if (l0_files >= options_.level0_stop_writes_trigger) {
      // Hard stall on L0 pileup.
      if (no_slowdown) {
        return Status::Busy("l0 stop trigger");
      }
      uint64_t start = options_.clock->NowMicros();
      MaybeScheduleCompaction();
      while (!error_state_.hard() &&
             versions_->current()->NumFiles(0) >=
                 options_.level0_stop_writes_trigger) {
        background_cv_.Wait(mu_);
      }
      stats_->write_stall_micros.fetch_add(
          options_.clock->NowMicros() - start, std::memory_order_relaxed);
      continue;
    }

    // Seal the active memtable and swap in a fresh one (§2.2.1: multiple
    // buffers absorb bursts while flushes drain).
    Status s = NewMemTableAndLogLocked();
    if (!s.ok()) {
      return s;
    }
  }
}

// Seals mem_ into imms_ and creates a fresh memtable + WAL. mu_ held.
Status ShardEngine::NewMemTableAndLogLocked(bool skip_old_wal_sync) {
  lock_rank::IoAllowedSection wal_rotation_io(
      "WAL rotation under mu_ is the seal protocol: the outgoing log's "
      "fsync and the new log's creation must be atomic with the memtable "
      "swap they accompany, and only the write leader reaches this path.");
  if (options_.enable_wal && log_file_ != nullptr && !skip_old_wal_sync) {
    // Fsync the outgoing WAL before sealing. Once sealed, this log's tail is
    // never synced again, so an unsynced tail here could vanish in a crash
    // while a *newer* WAL survives — recovery would then see a hole in the
    // write order. Syncing at the seal point keeps every sealed log a
    // durable prefix: only the active WAL's tail is ever at risk. Its
    // pointers resolve in the value log, which syncs first.
    Status s = vlog_ != nullptr ? vlog_->Sync() : Status::OK();
    if (s.ok()) {
      s = log_file_->Sync();
    }
    if (!s.ok()) {
      RecordBackgroundError(s, ErrorSeverity::kHard, ErrorSource::kWal);
      return s;
    }
    stats_->wal_syncs.fetch_add(1, std::memory_order_relaxed);
  }

  imms_.push_back(mem_);
  imm_log_numbers_.push_back(log_file_number_);
  Status s = NewMemTableAndLog();
  if (!s.ok()) {
    imms_.pop_back();
    imm_log_numbers_.pop_back();
    return s;
  }
  PublishReadView();
  MaybeScheduleFlush();
  return Status::OK();
}

void ShardEngine::PublishReadView() {
  auto view = std::make_shared<ReadView>();
  view->mem = mem_;
  view->imms.assign(imms_.rbegin(), imms_.rend());  // Newest first.
  view->version = versions_->current();
  {
    MutexLock lock(&read_view_mu_);
    read_view_ = std::move(view);
  }
  stats_->read_views_published.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

Status ShardEngine::ResolveValue(const Slice& user_key, ValueType type,
                                 const Slice& raw, std::string* value) {
  if (type == kTypeVlogPointer) {
    VlogPointer ptr;
    if (vlog_ == nullptr || !ptr.DecodeFrom(raw)) {
      return Status::Corruption("bad vlog pointer");
    }
    return vlog_->Read(ptr, user_key, value);
  }
  value->assign(raw.data(), raw.size());
  return Status::OK();
}

Status ShardEngine::ResolveMerge(Iterator* iter, const Slice& user_key,
                                 std::string* value) {
  if (options_.merge_operator == nullptr) {
    return MergeOperatorMissing();
  }
  // Every entry after the newest visible one is older, so the walk needs no
  // snapshot check.
  std::vector<std::string> operand_storage;  // Newest first.
  std::string base_storage;
  bool has_base = false;
  for (; iter->Valid(); iter->Next()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(iter->key(), &parsed)) {
      return Status::Corruption("malformed internal key in merge chain");
    }
    if (options_.comparator->Compare(parsed.user_key, user_key) != 0) {
      break;  // Past this key's history.
    }
    if (parsed.type == kTypeMerge) {
      operand_storage.push_back(iter->value().ToString());
      continue;
    }
    // A base value ends the chain; so does a tombstone, merging over
    // nothing.
    if (parsed.type != kTypeDeletion && parsed.type != kTypeSingleDeletion) {
      Status s = ResolveValue(parsed.user_key, parsed.type, iter->value(),
                              &base_storage);
      if (!s.ok()) {
        return s;
      }
      has_base = true;
    }
    break;
  }
  if (!iter->status().ok()) {
    return iter->status();
  }
  // The operator takes the operands oldest first.
  std::vector<Slice> operands(operand_storage.rbegin(),
                              operand_storage.rend());
  Slice base(base_storage);
  if (!options_.merge_operator->Merge(user_key, has_base ? &base : nullptr,
                                      operands, value)) {
    return Status::Corruption("merge operands failed to combine");
  }
  return Status::OK();
}

Status ShardEngine::StepLookup(LookupCursor* c,
                               std::shared_ptr<const Block> fetched) {
  // 1. Memtables: the active one, then the immutables, newest first. Each
  // memtable's key filter rules it out before its rep is searched.
  const ReadView& view = c->view;
  for (; c->next_memtable <= view.imms.size(); ++c->next_memtable) {
    MemTable* mem = c->next_memtable == 0
                        ? view.mem.get()
                        : view.imms[c->next_memtable - 1].get();
    bool skipped = false;
    if (mem->Get(c->lkey, &c->raw, &c->type, &skipped)) {
      c->state = LookupCursor::kFound;
      return Status::OK();
    }
    if (skipped) {
      stats_->memtables_skipped_by_filter.fetch_add(1,
                                                    std::memory_order_relaxed);
    }
  }

  // 2. Sorted runs, shallow to deep; within a tiered level newest run first
  // (§2.1.2). The filter gates every probe (§2.1.3), the index locates the
  // one data block that may hold the key, and a miss moves on to the next
  // run.
  const Version& version = *view.version;
  const Slice user_key = c->lkey.user_key();
  const Slice internal_key = c->lkey.internal_key();
  // The current run's block, once known; the cursor keeps it if it holds
  // the entry.
  std::shared_ptr<const Block> block = std::move(fetched);
  while (true) {
    if (block == nullptr) {
      const FileMetaData* file = nullptr;
      while (c->level < version.num_levels() &&
             (file = version.NextFileContaining(c->level, user_key,
                                                &c->next_file)) == nullptr) {
        ++c->level;
        c->next_file = 0;
      }
      if (file == nullptr) {
        c->state = LookupCursor::kAbsent;
        return Status::OK();
      }
      Status s = table_cache_.GetReader(*file, &c->reader);
      if (!s.ok()) {
        return s;
      }
      if (c->reader->KeyDefinitelyAbsent(user_key)) {
        stats_->runs_skipped_by_filter.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      stats_->runs_probed.fetch_add(1, std::memory_order_relaxed);
      if (c->reader->LocateDataBlock(internal_key, &c->block, &s)) {
        block = c->reader->LookupCachedBlock(c->block.offset());
        if (block == nullptr) {
          c->state = LookupCursor::kNeedBlock;
          return Status::OK();
        }
      } else if (!s.ok()) {
        return s;
      }
      // Otherwise the index placed the key past the run's last block.
    }
    bool found = false;
    if (block != nullptr) {
      BlockKeyBuffer entry_key;
      Status s = c->reader->SearchBlock(*block, internal_key, &found,
                                        &entry_key, &c->raw);
      if (!s.ok()) {
        return s;
      }
      if (found) {
        c->type = ExtractValueType(entry_key.slice());
        c->raw_block = std::move(block);
        c->state = LookupCursor::kFound;
        return Status::OK();
      }
      block.reset();
    }
    if (c->reader->has_filter()) {
      // The filter said "maybe" but the run lacks the key.
      stats_->filter_false_positives.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

Status ShardEngine::LookupInPlace(const ReadOptions& options,
                                  LookupCursor* c) {
  Status s = StepLookup(c, nullptr);
  while (s.ok() && c->state == LookupCursor::kNeedBlock) {
    std::shared_ptr<const Block> block = c->reader->ReadDataBlock(
        c->reader->MakeFetchContext(options), c->block, c->reader->file(), &s);
    if (s.ok()) {
      s = StepLookup(c, std::move(block));
    }
  }
  return s;
}

Status ShardEngine::FinishLookup(const ReadOptions& options,
                                 const LookupCursor& c, std::string* value) {
  assert(c.state == LookupCursor::kFound || c.state == LookupCursor::kAbsent);
  if (c.state == LookupCursor::kAbsent) {
    return Status::NotFound("key not found");
  }
  if (c.type == kTypeDeletion || c.type == kTypeSingleDeletion) {
    return Status::NotFound("key deleted");
  }
  stats_->point_lookup_found.fetch_add(1, std::memory_order_relaxed);
  if (c.type == kTypeMerge) {
    // Walk the key's history in the very view the lookup probed; the
    // lookup key is the seek target for its snapshot.
    auto iter = NewInternalIterator(options, c.view);
    iter->Seek(c.lkey.internal_key());
    return ResolveMerge(iter.get(), c.lkey.user_key(), value);
  }
  return ResolveValue(c.lkey.user_key(), c.type, c.raw, value);
}

Status ShardEngine::Get(const ReadOptions& options, const Slice& key,
                        std::string* value) {
  stats_->point_lookups.fetch_add(1, std::memory_order_relaxed);

  // Steady-state Get takes no DB-wide mutex: one atomic load pins the whole
  // read state (memtables + version), one atomic load picks the snapshot.
  // A published last_sequence implies the covered write is already visible
  // in the view (the write committed before publication, and view stores
  // are release-ordered), so this pair can never miss a completed write.
  std::shared_ptr<const ReadView> view = AcquireReadView();
  SequenceNumber snapshot = options.snapshot_seqno != 0
                                ? options.snapshot_seqno
                                : versions_->last_sequence();
  LookupCursor c(*view, key, snapshot);
  Status s = LookupInPlace(options, &c);
  return s.ok() ? FinishLookup(options, c, value) : s;
}

std::vector<Status> ShardEngine::MultiGet(const ReadOptions& options,
                                          const std::vector<Slice>& keys,
                                          std::vector<std::string>* values) {
  // Batch-level counters (multiget_batches / multiget_keys / point_lookups)
  // are recorded by the facade, which may split one client batch across
  // several engines; bumping them here too would double-count.
  // Like Get, reuse the caller's strings: resize without clearing, and
  // empty only the values of keys that end without an OK status.
  const size_t n = keys.size();
  values->resize(n);
  std::vector<Status> statuses(n);
  if (n == 0) {
    return statuses;
  }

  // One view and one snapshot serve the whole batch, so every key reads the
  // same state (same guarantees as Get, amortized over n keys).
  std::shared_ptr<const ReadView> view = AcquireReadView();
  SequenceNumber snapshot = options.snapshot_seqno != 0
                                ? options.snapshot_seqno
                                : versions_->last_sequence();
  // Every key's walk in one allocation: its cursor, built in place (a
  // cursor's LookupKey is neither copyable nor movable), the block its next
  // step starts from, and the round read it waits on.
  struct KeyWalk {
    std::optional<LookupCursor> cursor;
    std::shared_ptr<const Block> fetched;
    size_t read = 0;
    bool done = false;
  };
  std::vector<KeyWalk> walks(n);
  for (size_t i = 0; i < n; ++i) {
    walks[i].cursor.emplace(*view, keys[i], snapshot);
  }

  // Wavefront: each round steps every unfinished cursor until it finishes
  // or stops at an uncached block, reads the stopped cursors' blocks —
  // deduped by (file, offset) — in one Env::MultiRead, and hands each
  // cursor its block for the next round. A key reads run k+1 only after
  // its run-k probe missed: Get's walk, with a round's device trips
  // collapsed into one submission. The round arrays are sized once per
  // batch, by the first round that reads.
  struct RoundRead {
    std::unique_ptr<char[]> buf;  // Adopted by the block built from it.
    size_t asker;                 // The first key to ask for the block.
  };
  std::vector<ReadRequest> reqs;
  std::vector<RoundRead> reads;
  while (true) {
    reqs.clear();
    reads.clear();
    for (size_t i = 0; i < n; ++i) {
      KeyWalk& w = walks[i];
      if (w.done) {
        continue;
      }
      LookupCursor& c = *w.cursor;
      Status s = StepLookup(&c, std::move(w.fetched));
      if (!s.ok() || c.state != LookupCursor::kNeedBlock) {
        statuses[i] = s.ok() ? FinishLookup(options, c, &(*values)[i]) : s;
        w.done = true;
        continue;
      }
      size_t r = 0;
      while (r < reqs.size() && (reqs[r].file != c.reader->file() ||
                                 reqs[r].offset != c.block.offset())) {
        ++r;
      }
      if (r == reqs.size()) {
        reqs.reserve(n);
        reads.reserve(n);
        reads.push_back(RoundRead{NewBlockReadBuffer(c.block), i});
        ReadRequest req;
        req.file = c.reader->file();
        req.offset = c.block.offset();
        req.len = static_cast<size_t>(c.block.size()) + kBlockTrailerSize;
        req.scratch = reads.back().buf.get();
        reqs.push_back(req);
      }
      w.read = r;
    }
    if (reqs.empty()) {
      break;
    }

    options_.env->MultiRead(reqs.data(), reqs.size());
    stats_->io_batches.fetch_add(1, std::memory_order_relaxed);
    stats_->io_batch_reads.fetch_add(reqs.size(), std::memory_order_relaxed);
    // Materialize each unique block once, into its asker's walk (verified,
    // built and cached the way the reader's fetch context says).
    uint64_t bytes = 0;
    for (size_t r = 0; r < reqs.size(); ++r) {
      if (reqs[r].status.ok()) {
        bytes += reqs[r].result.size();
        KeyWalk& asker = walks[reads[r].asker];
        const LookupCursor& c = *asker.cursor;
        reqs[r].status = c.reader->FinishBatchedBlockRead(
            c.reader->MakeFetchContext(options), c.block, reqs[r].result,
            &reads[r].buf, &asker.fetched);
      }
    }
    stats_->io_batch_bytes.fetch_add(bytes, std::memory_order_relaxed);
    for (size_t i = 0; i < n; ++i) {
      KeyWalk& w = walks[i];
      if (w.done) {
        continue;
      }
      const Status& read_status = reqs[w.read].status;
      if (!read_status.ok()) {
        statuses[i] = read_status;
        w.done = true;
      } else if (reads[w.read].asker != i) {
        w.fetched = walks[reads[w.read].asker].fetched;
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) {
      (*values)[i].clear();
    }
  }
  return statuses;
}

// ---------------------------------------------------------------------------
// Iterators / scans
// ---------------------------------------------------------------------------

std::unique_ptr<Iterator> ShardEngine::NewInternalIterator(
    const ReadOptions& options, const ReadView& view) {
  // Mutex-free: every child holds a shared_ptr to what it reads (its
  // memtable, or the Version its run's files belong to), so the merged
  // iterator outlives any concurrent flush or compaction. One child per
  // sorted run: a scan opens one file per run, not one per file.
  const std::vector<SortedRun> runs = view.version->SortedRuns();
  std::vector<std::unique_ptr<Iterator>> children;
  children.reserve(1 + view.imms.size() + runs.size());
  children.push_back(std::make_unique<MemTableIteratorAdapter>(view.mem));
  for (const auto& imm : view.imms) {
    children.push_back(std::make_unique<MemTableIteratorAdapter>(imm));
  }
  for (SortedRun run : runs) {
    children.push_back(NewRunIterator(view.version, run, &internal_comparator_,
                                      &table_cache_, options));
  }
  return NewMergingIterator(&internal_comparator_, std::move(children));
}

/// User-facing iterator: collapses versions, hides tombstones, resolves
/// value-log pointers, and honours the snapshot.
///
/// A key's hidden entries are the older versions behind its newest visible
/// entry or tombstone, and the versions newer than the snapshot. Updates
/// are out of place (tutorial §2.1.1), so a hot key can hold thousands of
/// them in the memtable and in L0 files. The iterator steps over
/// kMaxSequentialSkip of them in a row, then Seeks past the rest, so a
/// key's history costs one descent per sorted run instead of one step per
/// version.
class ShardEngine::DBIter final : public Iterator {
 public:
  /// RocksDB's default max_sequential_skip_in_iterations.
  static constexpr int kMaxSequentialSkip = 8;

  DBIter(ShardEngine* db, std::unique_ptr<Iterator> internal, SequenceNumber snapshot)
      : db_(db), iter_(std::move(internal)), snapshot_(snapshot) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    iter_->SeekToFirst();
    iter_already_advanced_ = false;
    FindNextUserEntry(/*skipping=*/false);
  }

  void Seek(const Slice& target) override {
    seek_key_.clear();
    AppendInternalKey(&seek_key_, ParsedInternalKey(target, snapshot_,
                                                    kValueTypeForSeek));
    iter_->Seek(seek_key_);
    iter_already_advanced_ = false;
    FindNextUserEntry(/*skipping=*/false);
  }

  void Next() override {
    assert(valid_);
    if (iter_already_advanced_) {
      // A merge-chain resolution consumed this key's history and left the
      // internal iterator on the entry that ended the chain already.
      iter_already_advanced_ = false;
    } else {
      iter_->Next();
    }
    // Every remaining entry of the key just yielded is an older version.
    FindNextUserEntry(/*skipping=*/true);
  }

  Slice key() const override {
    assert(valid_);
    return Slice(current_key_);
  }
  Slice value() const override {
    assert(valid_);
    return Slice(current_value_);
  }
  Status status() const override {
    return status_.ok() ? iter_->status() : status_;
  }

 private:
  /// Moves to the newest visible entry of the next live user key. With
  /// `skipping`, the remaining entries of current_key_ are hidden older
  /// versions. A bool, not an empty current_key_, marks the state: "" is a
  /// valid user key.
  void FindNextUserEntry(bool skipping) {
    valid_ = false;
    const Comparator* ucmp = db_->options_.comparator;
    int skipped = 0;  // Hidden entries of current_key_ stepped over in a row.
    while (iter_->Valid()) {
      ParsedInternalKey parsed;
      if (!ParseInternalKey(iter_->key(), &parsed)) {
        status_ = Status::Corruption("malformed internal key in iterator");
        return;
      }
      const bool too_new = parsed.sequence > snapshot_;
      if ((too_new || skipping) &&
          ucmp->Compare(parsed.user_key, current_key_) == 0) {
        if (++skipped > kMaxSequentialSkip) {
          SkipHiddenVersions(skipping);
          skipped = 0;
        } else {
          iter_->Next();
        }
        continue;
      }
      // A new user key, or the first entry of this one the snapshot sees.
      current_key_.assign(parsed.user_key.data(), parsed.user_key.size());
      skipping = false;
      skipped = too_new ? 1 : 0;  // A version past the snapshot is hidden.
      if (too_new) {
        iter_->Next();
        continue;
      }
      if (parsed.type == kTypeDeletion ||
          parsed.type == kTypeSingleDeletion) {
        // Tombstone: hide all older versions of this key.
        skipping = true;
        iter_->Next();
        continue;
      }
      if (parsed.type == kTypeMerge) {
        // Collect the operand chain down to the base value (§2.2.6). Every
        // operand is needed, so the chain is walked, never jumped. The
        // resolver leaves the internal iterator on the entry that ended the
        // chain, so Next() must not advance it.
        status_ = db_->ResolveMerge(iter_.get(), current_key_, &current_value_);
        if (!status_.ok()) {
          return;
        }
        iter_already_advanced_ = true;
        valid_ = true;
        return;
      }
      // Newest visible version of a live key.
      Status s = db_->ResolveValue(parsed.user_key, parsed.type,
                                   iter_->value(), &current_value_);
      if (!s.ok()) {
        status_ = s;
        return;
      }
      valid_ = true;
      return;
    }
  }

  /// Seeks past current_key_'s remaining hidden entries: with `skipping`,
  /// to the last internal key the user key can have, (key, 0, deletion);
  /// otherwise past the versions newer than the snapshot, to the key's
  /// newest visible version.
  void SkipHiddenVersions(bool skipping) {
    seek_key_.clear();
    AppendInternalKey(&seek_key_,
                      skipping ? ParsedInternalKey(current_key_, 0,
                                                   kTypeDeletion)
                               : ParsedInternalKey(current_key_, snapshot_,
                                                   kValueTypeForSeek));
    iter_->Seek(seek_key_);
    db_->stats_->iter_reseeks.fetch_add(1, std::memory_order_relaxed);
  }

  ShardEngine* const db_;
  std::unique_ptr<Iterator> iter_;
  const SequenceNumber snapshot_;
  bool valid_ = false;
  bool iter_already_advanced_ = false;
  // The key yielded while valid_; during a move, the key whose hidden
  // entries are being passed. Assigned in place, reusing its capacity.
  std::string current_key_;
  std::string current_value_;
  std::string seek_key_;  // Seek and reseek targets, reusing one buffer.
  Status status_;
};

std::unique_ptr<Iterator> ShardEngine::NewIterator(const ReadOptions& options) {
  // range_scans is the facade's counter: one client scan may open one
  // iterator per shard.
  std::shared_ptr<const ReadView> view = AcquireReadView();
  SequenceNumber snapshot = options.snapshot_seqno != 0
                                ? options.snapshot_seqno
                                : versions_->last_sequence();
  auto internal = NewInternalIterator(options, *view);
  return std::make_unique<DBIter>(this, std::move(internal), snapshot);
}

SequenceNumber ShardEngine::GetSnapshot() {
  MutexLock lock(&mu_);
  // The sequence load is lock-free, but registration must not race
  // OldestSnapshot (compaction's drop-floor), which reads under mu_.
  SequenceNumber snapshot = versions_->last_sequence();
  snapshots_.insert(snapshot);
  return snapshot;
}

void ShardEngine::ReleaseSnapshot(SequenceNumber snapshot) {
  MutexLock lock(&mu_);
  auto it = snapshots_.find(snapshot);
  if (it != snapshots_.end()) {
    snapshots_.erase(it);
  }
}

SequenceNumber ShardEngine::OldestSnapshot() const {
  return snapshots_.empty() ? versions_->last_sequence()
                            : *snapshots_.begin();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::string ShardEngine::DebugShardSection() const {
  MutexLock lock(&mu_);
  std::string out = versions_->current()->DebugString();
  out += "running jobs: " + std::to_string(compactions_running_) + "\n";
  for (const auto& rc : running_compactions_) {
    const CompactionPlan& plan = rc.job->plan();
    out += "  job " + std::to_string(rc.job_id) + ": L" +
           std::to_string(plan.input_level) + "->L" +
           std::to_string(plan.output_level) + ", " +
           std::to_string(plan.inputs.size()) + " input file(s)\n";
  }
  if (!error_state_.ok()) {
    out += std::string("background error: [") +
           ErrorSeverityName(error_state_.severity) + "/" +
           ErrorSourceName(error_state_.source) + "] " +
           error_state_.status.ToString() + "\n";
  }
  if (!error_state_.first_status.ok()) {
    // First-error provenance: retries and promotions may overwrite the
    // current status, but the original cause is what an operator debugs.
    out += std::string("first background error: [") +
           ErrorSourceName(error_state_.first_source) + "] " +
           error_state_.first_status.ToString() + " at t=" +
           std::to_string(error_state_.first_error_micros) + " us\n";
  }
  return out;
}

int ShardEngine::TotalSortedRuns() const {
  MutexLock lock(&mu_);
  return versions_->current()->TotalSortedRuns();
}

uint64_t ShardEngine::TotalSstBytes() const {
  MutexLock lock(&mu_);
  return versions_->current()->TotalBytes();
}

uint64_t ShardEngine::CountLiveEntries() {
  auto iter = NewIterator(ReadOptions());
  uint64_t count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ++count;
  }
  return count;
}

Status ShardEngine::ValidateTreeInvariants() const {
  std::shared_ptr<const Version> version;
  {
    MutexLock lock(&mu_);
    version = versions_->current();
  }
  const Comparator* ucmp = options_.comparator;
  for (int level = 0; level < version->num_levels(); ++level) {
    const auto& files = version->files(level);
    for (const auto& f : files) {
      if (f.file_number == 0 || f.file_size == 0) {
        return Status::Corruption("file with zero number/size at level " +
                                  std::to_string(level));
      }
      if (ucmp->Compare(f.smallest.user_key(), f.largest.user_key()) > 0) {
        return Status::Corruption("file with inverted key range at level " +
                                  std::to_string(level));
      }
      if (f.num_tombstones > f.num_entries) {
        return Status::Corruption("more tombstones than entries at level " +
                                  std::to_string(level));
      }
      if (f.num_tombstones > 0 && f.oldest_tombstone_time_micros == 0) {
        return Status::Corruption(
            "tombstones without an age stamp at level " +
            std::to_string(level));
      }
      if (!options_.env->FileExists(TableFileName(dbname_, f.file_number))) {
        return Status::Corruption(
            "version references missing table file " +
            std::to_string(f.file_number) + " at level " +
            std::to_string(level));
      }
      if (f.oldest_vlog != 0 &&
          !options_.env->FileExists(VlogFileName(dbname_, f.oldest_vlog))) {
        return Status::Corruption(
            "table file " + std::to_string(f.file_number) +
            " points into missing value log " +
            std::to_string(f.oldest_vlog));
      }
    }
    // Leveled levels (other than the overlap-tolerant L0) must hold sorted,
    // pairwise-disjoint files: together they form one sorted run.
    if (level > 0 && !version->IsTieredLevel(level)) {
      for (size_t i = 1; i < files.size(); ++i) {
        if (ucmp->Compare(files[i - 1].largest.user_key(),
                          files[i].smallest.user_key()) >= 0) {
          return Status::Corruption("overlapping files in leveled level " +
                                    std::to_string(level));
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace lsmlab
