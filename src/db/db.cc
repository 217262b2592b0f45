// ShardedDB: the range-sharded facade over N ShardEngine cores. Routing,
// cross-shard commits, multi-shard snapshots/iterators, and the
// ownership of every process-wide resource live here; all LSM mechanics
// live in db/shard_engine.{cc,h}.

#include "db/db.h"

#include <algorithm>
#include <deque>
#include <functional>

#include "db/filename.h"
#include "db/merge_operator.h"
#include "db/shard_directory.h"
#include "io/wal_reader.h"
#include "table/merging_iterator.h"
#include "util/clock.h"
#include "util/coding.h"
#include "util/comparator.h"

namespace lsmlab {

namespace {

/// Fills unset substrate pointers with the defaults.
Options NormalizeOptions(const Options& options) {
  Options result = options;
  if (result.env == nullptr) {
    result.env = Env::Default();
  }
  if (result.clock == nullptr) {
    result.clock = SystemClock();
  }
  if (result.comparator == nullptr) {
    result.comparator = BytewiseComparator();
  }
  return result;
}

/// Tag bit distinguishing an N > 1 snapshot handle from a raw engine
/// sequence. Engine sequences are capped at kMaxSequenceNumber (2^56 - 1),
/// so bit 63 is always free.
constexpr SequenceNumber kSnapshotHandleBit = 1ull << 63;

/// Byte copy with a synced target (WriteStringToFile fsyncs before close).
/// Checkpoint/restore copy rather than link whenever the source can still
/// change (COMMITLOG) or the copy must not share fate with the backup
/// (restore).
Status CopyFileBytes(Env* env, const std::string& src,
                     const std::string& target) {
  std::string contents;
  Status s = ReadFileToString(env, src, &contents);
  if (!s.ok()) {
    return s;
  }
  return WriteStringToFile(env, contents, target);
}

/// Leading line of the CHECKPOINT completion record; versioned so a future
/// layout change cannot be silently restored by an old binary.
constexpr char kCheckpointMagic[] = "lsmlab-checkpoint v1\n";

/// Routes every record of a batch into its shard's sub-batch, preserving
/// order and the raw type tag (vlog-pointer records survive verbatim).
class ShardSplitter : public WriteBatch::Handler {
 public:
  ShardSplitter(std::vector<WriteBatch>* parts,
                std::function<int(const Slice&)> router)
      : parts_(parts), router_(std::move(router)) {}

  void TypedRecord(ValueType type, const Slice& key,
                   const Slice& value) override {
    (*parts_)[static_cast<size_t>(router_(key))].PutTyped(type, key, value);
  }

  // Never reached: TypedRecord intercepts every record.
  void Put(const Slice&, const Slice&) override {}
  void Delete(const Slice&) override {}
  void SingleDelete(const Slice&) override {}
  void Merge(const Slice&, const Slice&) override {}

 private:
  std::vector<WriteBatch>* parts_;
  std::function<int(const Slice&)> router_;
};

/// Spots Merge records, which need Options::merge_operator.
class MergeFinder : public WriteBatch::Handler {
 public:
  void Put(const Slice&, const Slice&) override {}
  void Delete(const Slice&) override {}
  void SingleDelete(const Slice&) override {}
  void Merge(const Slice&, const Slice&) override { found = true; }

  bool found = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// Open / topology / commit log
// ---------------------------------------------------------------------------

ShardedDB::ShardedDB(const Options& options, std::string dbname)
    : options_(NormalizeOptions(options)), dbname_(std::move(dbname)) {}

ShardedDB::~ShardedDB() {
  // Stop every shard's background admission first so one shard's queued
  // work cannot delay another's shutdown, then drain the shared pool once.
  for (auto& shard : shards_) {
    if (shard != nullptr) {
      shard->BeginShutdown();
    }
  }
  if (pool_ != nullptr) {
    pool_->WaitForIdle();
  }
  shards_.clear();  // Engines die before the resources they borrow.
  pool_.reset();
}

Status ShardedDB::Open(const Options& options, const std::string& name,
                       std::unique_ptr<ShardedDB>* dbptr) {
  dbptr->reset();
  Status s = options.Validate();
  if (!s.ok()) {
    return s;
  }
  auto db = std::unique_ptr<ShardedDB>(new ShardedDB(options, name));
  s = db->Initialize();
  if (!s.ok()) {
    return s;
  }
  *dbptr = std::move(db);
  return Status::OK();
}

Status ShardedDB::ResolveTopology(bool* fresh) {
  *fresh = false;
  Env* env = options_.env;
  int n = 1;
  std::vector<std::string> keys;
  Status s = ShardDirectory::LoadTopology(env, dbname_, &n, &keys);
  if (s.ok()) {
    // The persisted topology wins over Options: the split is fixed at
    // creation.
    num_shards_ = n;
    split_keys_ = std::move(keys);
    return Status::OK();
  }
  if (!s.IsNotFound()) {
    return s;  // A SHARDS file exists but is unreadable/corrupt.
  }
  if (env->FileExists(CurrentFileName(dbname_))) {
    // Existing flat (pre-sharding or N=1) database: keep it single-shard
    // regardless of Options.
    num_shards_ = 1;
    split_keys_.clear();
    return Status::OK();
  }
  *fresh = true;
  num_shards_ = std::max(1, options_.num_shards);
  split_keys_ = options_.shard_split_keys;
  if (num_shards_ > 1 && split_keys_.empty()) {
    // Uniform first-byte split of the keyspace.
    for (int k = 1; k < num_shards_; ++k) {
      split_keys_.push_back(std::string(
          1, static_cast<char>(static_cast<unsigned>(256 * k / num_shards_))));
    }
  }
  if (num_shards_ > 1) {
    return ShardDirectory::SaveTopology(env, dbname_, num_shards_,
                                        split_keys_);
  }
  return Status::OK();
}

Status ShardedDB::ReadCommitLog(std::set<uint64_t>* committed) {
  std::unique_ptr<SequentialFile> file;
  Status s =
      options_.env->NewSequentialFile(CommitLogFileName(dbname_), &file);
  if (s.IsNotFound()) {
    return Status::OK();
  }
  if (!s.ok()) {
    return s;
  }
  // A torn tail (crash mid-append) truncates the record stream at the last
  // valid CRC — exactly the commit rule: a commit record is binding only
  // once fully durable.
  wal::Reader reader(file.get(), /*reporter=*/nullptr);
  Slice record;
  std::string scratch;
  while (reader.ReadRecord(&record, &scratch)) {
    if (record.size() >= 8) {
      committed->insert(DecodeFixed64(record.data()));
    }
  }
  return Status::OK();
}

Status ShardedDB::ResetCommitLog() {
  MutexLock lock(&commit_mu_);
  commit_log_.reset();
  commit_log_file_.reset();
  // NewWritableFile truncates: every surviving commit record was consumed
  // by engine recovery (the replayed slices now live in L0 tables, and
  // their WALs sit below each shard's manifest log number, which recovery
  // never replays again), so batch ids restart at 1 for this incarnation.
  // The truncation is synced so a stale record cannot alias a new id after
  // a crash.
  Status s = options_.env->NewWritableFile(CommitLogFileName(dbname_),
                                           &commit_log_file_);
  if (s.ok()) {
    s = commit_log_file_->Sync();
  }
  if (!s.ok()) {
    commit_log_file_.reset();
    return s;
  }
  commit_log_ = std::make_unique<wal::Writer>(commit_log_file_.get());
  return Status::OK();
}

Status ShardedDB::Initialize() {
  Env* env = options_.env;
  Status s = env->CreateDir(dbname_);
  if (!s.ok()) {
    return s;
  }
  if (env->FileExists(CheckpointInProgressFileName(dbname_))) {
    // An interrupted checkpoint is not a database: its file set stops at
    // whatever instant the copy died. Never open it.
    return Status::Corruption(
        dbname_, "partial checkpoint (CHECKPOINT.inprogress present)");
  }
  bool fresh = false;
  s = ResolveTopology(&fresh);
  if (!s.ok()) {
    return s;
  }

  // Process-wide resources: one block cache, one compaction rate budget,
  // one background pool for all shards.
  if (options_.block_cache_capacity > 0) {
    block_cache_ = std::make_unique<LruCache>(options_.block_cache_capacity);
  }
  compaction_rate_limiter_ = std::make_unique<RateLimiter>(
      options_.compaction_rate_limit_bytes_per_sec, options_.clock);
  pool_ =
      std::make_unique<ThreadPool>(std::max(1, options_.background_threads));

  ShardResources resources;
  resources.block_cache = block_cache_.get();
  resources.pool = pool_.get();
  resources.rate_limiter = compaction_rate_limiter_.get();
  resources.stats = &stats_;

  std::set<uint64_t> committed;
  if (num_shards_ > 1) {
    s = ReadCommitLog(&committed);
    if (!s.ok()) {
      return s;
    }
  }

  shards_.resize(static_cast<size_t>(num_shards_));
  for (int k = 0; k < num_shards_; ++k) {
    const std::string shard_dir =
        num_shards_ == 1 ? dbname_ : ShardDirectory::ShardDirName(dbname_, k);
    s = ShardEngine::Open(options_, shard_dir, static_cast<uint64_t>(k),
                          resources,
                          num_shards_ > 1 ? &committed : nullptr,
                          &shards_[static_cast<size_t>(k)]);
    if (!s.ok()) {
      return s;
    }
  }

  if (num_shards_ > 1) {
    s = ResetCommitLog();
    if (!s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

int ShardedDB::ShardForKey(const Slice& key) const {
  const Comparator* cmp = options_.comparator;
  int k = 0;
  while (k < static_cast<int>(split_keys_.size()) &&
         cmp->Compare(key, split_keys_[static_cast<size_t>(k)]) >= 0) {
    ++k;
  }
  return k;
}

ReadOptions ShardedDB::ShardReadOptions(const ReadOptions& options,
                                        int shard) const {
  ReadOptions ro = options;
  if (ro.snapshot_seqno & kSnapshotHandleBit) {
    MutexLock lock(&commit_mu_);
    auto it = snapshot_handles_.find(ro.snapshot_seqno & ~kSnapshotHandleBit);
    ro.snapshot_seqno = it != snapshot_handles_.end()
                            ? it->second[static_cast<size_t>(shard)]
                            : 0;
  }
  return ro;
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

Status ShardedDB::Put(const WriteOptions& options, const Slice& key,
                      const Slice& value) {
  return shards_[static_cast<size_t>(ShardForKey(key))]->Put(options, key,
                                                             value);
}

Status ShardedDB::Delete(const WriteOptions& options, const Slice& key) {
  return shards_[static_cast<size_t>(ShardForKey(key))]->Delete(options, key);
}

Status ShardedDB::SingleDelete(const WriteOptions& options, const Slice& key) {
  return shards_[static_cast<size_t>(ShardForKey(key))]->SingleDelete(options,
                                                                      key);
}

Status ShardedDB::Merge(const WriteOptions& options, const Slice& key,
                        const Slice& operand) {
  return shards_[static_cast<size_t>(ShardForKey(key))]->Merge(options, key,
                                                               operand);
}

Status ShardedDB::DeleteRange(const WriteOptions& options, const Slice& begin,
                              const Slice& end) {
  if (num_shards_ == 1) {
    return shards_[0]->DeleteRange(options, begin, end);
  }
  const Comparator* cmp = options_.comparator;
  if (cmp->Compare(begin, end) >= 0) {
    return Status::OK();
  }
  const int first = ShardForKey(begin);
  const int last = ShardForKey(end);
  Status result;
  for (int k = first; k <= last && k < num_shards_; ++k) {
    const Slice lo =
        k == first ? begin : Slice(split_keys_[static_cast<size_t>(k - 1)]);
    const Slice hi =
        k == last ? end : Slice(split_keys_[static_cast<size_t>(k)]);
    if (cmp->Compare(lo, hi) >= 0) {
      continue;
    }
    Status s = shards_[static_cast<size_t>(k)]->DeleteRange(options, lo, hi);
    if (!s.ok() && result.ok()) {
      result = s;
    }
  }
  return result;
}

Status ShardedDB::Write(const WriteOptions& options, WriteBatch* batch) {
  if (options_.merge_operator == nullptr && batch != nullptr) {
    // Refuse before any WAL append: an operand no reader can resolve would
    // otherwise outlive the process.
    MergeFinder finder;
    Status s = batch->Iterate(&finder);
    if (!s.ok()) {
      return s;
    }
    if (finder.found) {
      return MergeOperatorMissing();
    }
  }
  if (num_shards_ == 1) {
    return shards_[0]->Write(options, batch);
  }
  std::vector<WriteBatch> parts(static_cast<size_t>(num_shards_));
  ShardSplitter splitter(
      &parts, [this](const Slice& key) { return ShardForKey(key); });
  Status s = batch->Iterate(&splitter);
  if (!s.ok()) {
    return s;
  }
  std::vector<int> involved;
  for (int k = 0; k < num_shards_; ++k) {
    if (parts[static_cast<size_t>(k)].Count() > 0) {
      involved.push_back(k);
    }
  }
  if (involved.empty()) {
    return Status::OK();
  }
  if (involved.size() == 1) {
    // Single-shard batch: the engine's own atomicity (one WAL record, one
    // sequence range) suffices — no commit record, no commit lock.
    const size_t k = static_cast<size_t>(involved[0]);
    return shards_[k]->Write(options, &parts[k]);
  }
  stats_.cross_shard_batches.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(&commit_mu_);
  return CommitCrossShard(options, &parts, involved);
}

Status ShardedDB::CommitCrossShard(const WriteOptions& options,
                                   std::vector<WriteBatch>* parts,
                                   const std::vector<int>& involved) {
  if (commit_log_ == nullptr) {
    return Status::IOError(dbname_,
                           "commit log closed after a failed commit; reopen");
  }
  const uint64_t id = next_batch_id_++;

  // Lead every involved shard's write queue, in ascending shard order, and
  // log its slice there: one WAL record tagged `id`, synced. Only this
  // thread, under commit_mu_, ever leads more than one queue, so taking
  // them in a fixed order cannot deadlock.
  std::deque<ShardEngine::Writer> writers;
  Status s;
  for (int k : involved) {
    writers.emplace_back(&(*parts)[static_cast<size_t>(k)], /*sync=*/true,
                         options.no_slowdown);
    writers.back().cross_shard_id = id;
    s = shards_[static_cast<size_t>(k)]->LogCrossShard(&writers.back());
    if (!s.ok()) {
      break;
    }
    stats_.shard_prepares.fetch_add(1, std::memory_order_relaxed);
  }

  // Commit point: one synced record in the commit log. Recovery replays
  // the slices iff it finds the record.
  auto fate = ShardEngine::CrossShardFate::kAborted;
  if (s.ok()) {
    fate = ShardEngine::CrossShardFate::kCommitted;
    if (options_.enable_wal) {
      std::string rec;
      PutFixed64(&rec, id);
      s = commit_log_->AddRecord(rec);
      if (s.ok()) {
        s = commit_log_->Sync();
      }
      if (!s.ok()) {
        // The record may or may not be on disk, and the log's end is
        // unknown, so no later record may follow it: close the log. The
        // involved shards stay in a hard error until a reopen reads the
        // log and settles the batch everywhere.
        commit_log_.reset();
        commit_log_file_.reset();
        fate = ShardEngine::CrossShardFate::kInDoubt;
      }
    }
  }

  // Apply every slice (or none) and hand each queue on.
  Status result = s;
  for (size_t i = 0; i < writers.size(); ++i) {
    Status st = shards_[static_cast<size_t>(involved[i])]->EndCrossShard(
        &writers[i], fate, s);
    if (fate == ShardEngine::CrossShardFate::kCommitted && st.ok()) {
      stats_.shard_commits.fetch_add(1, std::memory_order_relaxed);
    } else if (result.ok()) {
      result = st;
    }
  }
  if (fate != ShardEngine::CrossShardFate::kCommitted) {
    stats_.shard_aborts.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

Status ShardedDB::Get(const ReadOptions& options, const Slice& key,
                      std::string* value) {
  if (num_shards_ == 1) {
    return shards_[0]->Get(options, key, value);
  }
  const int k = ShardForKey(key);
  return shards_[static_cast<size_t>(k)]->Get(ShardReadOptions(options, k),
                                              key, value);
}

std::vector<Status> ShardedDB::MultiGet(const ReadOptions& options,
                                        const std::vector<Slice>& keys,
                                        std::vector<std::string>* values) {
  // Batch-level accounting lives here: one client batch, however many
  // shards it fans out to.
  stats_.multiget_batches.fetch_add(1, std::memory_order_relaxed);
  stats_.multiget_keys.fetch_add(keys.size(), std::memory_order_relaxed);
  stats_.point_lookups.fetch_add(keys.size(), std::memory_order_relaxed);
  if (num_shards_ == 1) {
    return shards_[0]->MultiGet(options, keys, values);
  }
  std::vector<std::vector<Slice>> shard_keys(static_cast<size_t>(num_shards_));
  std::vector<std::vector<size_t>> shard_index(
      static_cast<size_t>(num_shards_));
  for (size_t i = 0; i < keys.size(); ++i) {
    const size_t k = static_cast<size_t>(ShardForKey(keys[i]));
    shard_keys[k].push_back(keys[i]);
    shard_index[k].push_back(i);
  }
  values->resize(keys.size());  // Every slot is moved in from its shard.
  std::vector<Status> statuses(keys.size());
  for (int k = 0; k < num_shards_; ++k) {
    const size_t sk = static_cast<size_t>(k);
    if (shard_keys[sk].empty()) {
      continue;
    }
    // Each shard keeps its full batched path: one ReadView, one MultiRead
    // submission per round.
    std::vector<std::string> shard_values;
    std::vector<Status> shard_statuses = shards_[sk]->MultiGet(
        ShardReadOptions(options, k), shard_keys[sk], &shard_values);
    for (size_t j = 0; j < shard_index[sk].size(); ++j) {
      statuses[shard_index[sk][j]] = std::move(shard_statuses[j]);
      (*values)[shard_index[sk][j]] = std::move(shard_values[j]);
    }
  }
  return statuses;
}

std::unique_ptr<Iterator> ShardedDB::NewIterator(const ReadOptions& options) {
  stats_.range_scans.fetch_add(1, std::memory_order_relaxed);
  if (num_shards_ == 1) {
    return shards_[0]->NewIterator(options);
  }
  // Resolve one sequence per shard: a snapshot handle's pinned cut, a raw
  // sequence passed through verbatim (callers at N > 1 should prefer
  // GetSnapshot), or 0 everywhere for a fresh cut. The children are built
  // under the commit lock, so a fresh cut holds all shards of every
  // cross-shard batch or none of them. Each shard takes its read view
  // before its sequence, so, as at N = 1, no flush that starts later can
  // drop a version the cut sees.
  std::vector<SequenceNumber> cut(static_cast<size_t>(num_shards_),
                                  options.snapshot_seqno);
  std::vector<std::unique_ptr<Iterator>> children;
  children.reserve(static_cast<size_t>(num_shards_));
  MutexLock lock(&commit_mu_);
  if (options.snapshot_seqno & kSnapshotHandleBit) {
    auto it =
        snapshot_handles_.find(options.snapshot_seqno & ~kSnapshotHandleBit);
    cut = it != snapshot_handles_.end()
              ? it->second
              : std::vector<SequenceNumber>(cut.size(), 0);
  }
  for (int k = 0; k < num_shards_; ++k) {
    ReadOptions ro = options;
    ro.snapshot_seqno = cut[static_cast<size_t>(k)];
    children.push_back(shards_[static_cast<size_t>(k)]->NewIterator(ro));
  }
  // Shards hold disjoint key ranges, so the merge degenerates to ordered
  // concatenation — but reusing the merging iterator keeps one code path.
  return NewMergingIterator(options_.comparator, std::move(children));
}

SequenceNumber ShardedDB::GetSnapshot() {
  if (num_shards_ == 1) {
    return shards_[0]->GetSnapshot();
  }
  MutexLock lock(&commit_mu_);
  std::vector<SequenceNumber> cut;
  cut.reserve(static_cast<size_t>(num_shards_));
  for (auto& shard : shards_) {
    cut.push_back(shard->GetSnapshot());  // Pins the compaction floor.
  }
  const uint64_t handle = next_snapshot_handle_++;
  snapshot_handles_[handle] = std::move(cut);
  return kSnapshotHandleBit | handle;
}

void ShardedDB::ReleaseSnapshot(SequenceNumber snapshot) {
  if (num_shards_ == 1) {
    shards_[0]->ReleaseSnapshot(snapshot);
    return;
  }
  MutexLock lock(&commit_mu_);
  auto it = snapshot_handles_.find(snapshot & ~kSnapshotHandleBit);
  if (it == snapshot_handles_.end()) {
    return;
  }
  for (int k = 0; k < num_shards_; ++k) {
    shards_[static_cast<size_t>(k)]->ReleaseSnapshot(
        it->second[static_cast<size_t>(k)]);
  }
  snapshot_handles_.erase(it);
}

// ---------------------------------------------------------------------------
// Control operations
// ---------------------------------------------------------------------------

Status ShardedDB::Flush() {
  Status first;
  for (auto& shard : shards_) {
    Status s = shard->Flush();
    if (!s.ok() && first.ok()) {
      first = s;
    }
  }
  return first;
}

Status ShardedDB::CompactRange() {
  Status first;
  for (auto& shard : shards_) {
    Status s = shard->CompactRange();
    if (!s.ok() && first.ok()) {
      first = s;
    }
  }
  return first;
}

Status ShardedDB::WaitForBackgroundWork() {
  Status first;
  for (auto& shard : shards_) {
    Status s = shard->WaitForBackgroundWork();
    if (!s.ok() && first.ok()) {
      first = s;
    }
  }
  return first;
}

Status ShardedDB::GarbageCollectVlog() {
  Status first;
  for (auto& shard : shards_) {
    Status s = shard->GarbageCollectVlog();
    if (!s.ok() && first.ok()) {
      first = s;
    }
  }
  return first;
}

Status ShardedDB::Resume() {
  stats_.resume_calls.fetch_add(1, std::memory_order_relaxed);
  Status first;
  for (auto& shard : shards_) {
    Status s = shard->Resume();
    if (!s.ok() && first.ok()) {
      first = s;
    }
  }
  return first;
}

// ---------------------------------------------------------------------------
// Checkpoint / restore / scrub
// ---------------------------------------------------------------------------

Status ShardedDB::Checkpoint(const std::string& dir) {
  Env* env = options_.env;
  Status s = env->CreateDir(dir);
  if (!s.ok() && !env->FileExists(dir)) {
    return s;
  }
  if (env->FileExists(CheckpointMarkerFileName(dir)) ||
      env->FileExists(CheckpointInProgressFileName(dir))) {
    return Status::InvalidArgument(dir, "already holds a checkpoint");
  }
  // Poison marker first (synced): until the completion record exists,
  // neither Restore nor Open will accept this directory, so a crash at any
  // point of the capture leaves a rejected directory, never a torn backup.
  s = WriteStringToFile(env, "checkpoint in progress\n",
                        CheckpointInProgressFileName(dir));
  if (!s.ok()) {
    return s;
  }

  // The whole capture runs under the commit lock: no cross-shard batch can
  // commit between one shard's cut and another's, so the per-shard cuts
  // compose into one consistent multi-shard instant — the same argument as
  // GetSnapshot's consistent cut, extended to durable state.
  MutexLock lock(&commit_mu_);
  for (int k = 0; k < num_shards_; ++k) {
    const std::string shard_dir =
        num_shards_ == 1 ? dir : ShardDirectory::ShardDirName(dir, k);
    s = shards_[static_cast<size_t>(k)]->CheckpointInto(shard_dir);
    if (!s.ok()) {
      return s;
    }
  }
  if (num_shards_ > 1) {
    // Topology is fixed at creation; copy it verbatim.
    s = CopyFileBytes(env, ShardsFileName(dbname_), ShardsFileName(dir));
    if (!s.ok()) {
      return s;
    }
    // Commit log: copy, never link — the live file keeps growing, and a
    // hard link would leak post-cut commit records into the backup. It is
    // quiescent under commit_mu_, so the copy ends exactly at the cut.
    if (env->FileExists(CommitLogFileName(dbname_))) {
      s = CopyFileBytes(env, CommitLogFileName(dbname_),
                        CommitLogFileName(dir));
      if (!s.ok()) {
        return s;
      }
    }
  }
  // Completion record last (synced): its presence is the one and only thing
  // that makes `dir` a valid checkpoint.
  const std::string record =
      std::string(kCheckpointMagic) + "shards=" + std::to_string(num_shards_) +
      "\n";
  s = WriteStringToFile(env, record, CheckpointMarkerFileName(dir));
  if (!s.ok()) {
    return s;
  }
  return env->RemoveFile(CheckpointInProgressFileName(dir));
}

Status ShardedDB::Restore(const Options& options,
                          const std::string& checkpoint_dir,
                          const std::string& target_dir) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  if (env->FileExists(CheckpointInProgressFileName(checkpoint_dir))) {
    return Status::Corruption(checkpoint_dir,
                              "interrupted checkpoint (in-progress marker)");
  }
  std::string record;
  Status s = ReadFileToString(
      env, CheckpointMarkerFileName(checkpoint_dir), &record);
  if (!s.ok()) {
    return Status::Corruption(checkpoint_dir,
                              "missing CHECKPOINT completion record");
  }
  if (record.rfind(kCheckpointMagic, 0) != 0) {
    return Status::Corruption(checkpoint_dir,
                              "unrecognized checkpoint format");
  }
  int shards = 0;
  const size_t pos = record.find("shards=");
  if (pos == std::string::npos ||
      (shards = std::atoi(record.c_str() + pos + 7)) < 1) {
    return Status::Corruption(checkpoint_dir,
                              "malformed checkpoint shard count");
  }
  if (env->FileExists(CurrentFileName(target_dir)) ||
      env->FileExists(ShardsFileName(target_dir))) {
    return Status::InvalidArgument(target_dir, "already holds a database");
  }
  s = env->CreateDir(target_dir);
  if (!s.ok() && !env->FileExists(target_dir)) {
    return s;
  }

  // Byte copies, not links: the restored DB will truncate its COMMITLOG and
  // append to fresh WALs, and none of that may bleed back into the backup.
  auto copy_dir = [env](const std::string& from, const std::string& to) {
    std::vector<std::string> children;
    Status cs = env->GetChildren(from, &children);
    if (!cs.ok()) {
      return cs;
    }
    for (const std::string& child : children) {
      if (child == "CHECKPOINT" || child == "CHECKPOINT.inprogress" ||
          child.rfind("shard-", 0) == 0) {
        // Markers never travel; shard directories are copied explicitly
        // below (POSIX GetChildren lists them, MemEnv does not).
        continue;
      }
      cs = CopyFileBytes(env, from + "/" + child, to + "/" + child);
      if (!cs.ok()) {
        return cs;
      }
    }
    return Status::OK();
  };
  s = copy_dir(checkpoint_dir, target_dir);
  if (!s.ok()) {
    return s;
  }
  if (shards > 1) {
    for (int k = 0; k < shards; ++k) {
      const std::string to = ShardDirectory::ShardDirName(target_dir, k);
      s = env->CreateDir(to);
      if (!s.ok() && !env->FileExists(to)) {
        return s;
      }
      s = copy_dir(ShardDirectory::ShardDirName(checkpoint_dir, k), to);
      if (!s.ok()) {
        return s;
      }
    }
  }
  return Status::OK();
}

Status ShardedDB::VerifyChecksums() {
  Status first;
  for (auto& shard : shards_) {
    Status s = shard->VerifyChecksums();
    if (!s.ok() && first.ok()) {
      first = s;
    }
  }
  return first;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::string ShardedDB::LevelsDebugString() const {
  std::string out = "db: shards=" + std::to_string(num_shards_) +
                    " sorted_runs=" + std::to_string(TotalSortedRuns()) +
                    " sst_bytes=" + std::to_string(TotalSstBytes()) + "\n";
  for (int k = 0; k < num_shards_; ++k) {
    const size_t i = static_cast<size_t>(k);
    const std::string lo = k == 0 ? "-inf" : "\"" + split_keys_[i - 1] + "\"";
    const std::string hi =
        k == num_shards_ - 1 ? "+inf" : "\"" + split_keys_[i] + "\"";
    out += "shard " + std::to_string(k) + " [" + lo + ", " + hi + "):\n";
    out += shards_[i]->DebugShardSection();
  }
  return out;
}

std::string ShardedDB::DebugLevelSummary() const {
  // Every shard shares stats_, so it prints once, after all the sections.
  return LevelsDebugString() + stats_.ToString();
}

int ShardedDB::TotalSortedRuns() const {
  int total = 0;
  for (const auto& shard : shards_) {
    total += shard->TotalSortedRuns();
  }
  return total;
}

uint64_t ShardedDB::TotalSstBytes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->TotalSstBytes();
  }
  return total;
}

uint64_t ShardedDB::CountLiveEntries() {
  uint64_t total = 0;
  for (auto& shard : shards_) {
    total += shard->CountLiveEntries();
  }
  return total;
}

ErrorState ShardedDB::BackgroundErrorState() const {
  for (const auto& shard : shards_) {
    ErrorState state = shard->BackgroundErrorState();
    if (!state.ok() || !state.first_status.ok()) {
      return state;
    }
  }
  return ErrorState();
}

Status ShardedDB::ValidateTreeInvariants() const {
  for (const auto& shard : shards_) {
    Status s = shard->ValidateTreeInvariants();
    if (!s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DestroyDB
// ---------------------------------------------------------------------------

Status DestroyDB(const Options& options, const std::string& name) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  Status result;
  auto record = [&result](const Status& s) {
    if (!s.ok() && result.ok()) {
      result = s;
    }
  };
  auto clean_dir = [&](const std::string& dir) {
    std::vector<std::string> children;
    Status s = env->GetChildren(dir, &children);
    if (s.IsNotFound()) {
      return;
    }
    if (!s.ok()) {
      record(s);
      return;
    }
    for (const auto& child : children) {
      record(env->RemoveFile(dir + "/" + child));
    }
  };

  // Shard subdirectories first (topology file or probing — MemEnv-style
  // filesystems do not list subdirectories in GetChildren), then the flat
  // root contents, then the directories themselves.
  for (const auto& dir : ShardDirectory::ListShardDirs(env, name)) {
    clean_dir(dir);
    // Best effort: the recorded per-file errors already cover the cause.
    (void)env->RemoveDir(dir);
  }

  std::vector<std::string> children;
  Status s = env->GetChildren(name, &children);
  if (s.IsNotFound()) {
    return Status::OK();
  }
  if (!s.ok()) {
    return s;
  }
  for (const auto& child : children) {
    if (child.rfind("shard-", 0) == 0) {
      continue;  // A shard directory (POSIX lists it); already cleaned.
    }
    record(env->RemoveFile(name + "/" + child));
  }
  record(env->RemoveDir(name));
  return result;
}

}  // namespace lsmlab
