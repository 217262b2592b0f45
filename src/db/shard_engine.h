#ifndef LSMLAB_DB_SHARD_ENGINE_H_
#define LSMLAB_DB_SHARD_ENGINE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cache/lru_cache.h"
#include "compaction/compaction_job.h"
#include "compaction/compaction_picker.h"
#include "db/dbformat.h"
#include "db/error_state.h"
#include "db/statistics.h"
#include "db/table_cache.h"
#include "db/write_batch.h"
#include "io/wal_writer.h"
#include "kvsep/vlog.h"
#include "memtable/memtable.h"
#include "table/iterator.h"
#include "table/table_builder.h"
#include "util/histogram.h"
#include "util/mutex.h"
#include "util/options.h"
#include "util/rate_limiter.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "version/version_set.h"

namespace lsmlab {

/// An immutable snapshot of everything a point lookup or iterator needs:
/// the active memtable, the immutable memtables (newest first — probe
/// order) and the current Version. Readers take their snapshot sequence
/// from the live counter, never from the view. Reference-counted and
/// swapped behind a dedicated pointer-sized leaf lock, so readers acquire a
/// consistent view with one shared_ptr copy instead of locking the DB mutex
/// and copying vectors.
/// (A std::atomic<shared_ptr> would read nicer but is a hidden spinlock in
/// libstdc++ whose relaxed unlock trips ThreadSanitizer; an explicit leaf
/// mutex costs the same two atomic ops and is model-clean.) The shared_ptrs
/// inside double as lifetime pins: a reader holding a stale view keeps its
/// memtables and SSTables alive even after a flush or compaction replaced
/// them.
struct ReadView {
  std::shared_ptr<MemTable> mem;
  /// Immutable memtables, newest first.
  std::vector<std::shared_ptr<MemTable>> imms;
  std::shared_ptr<const Version> version;
};

/// Process-wide resources a ShardEngine borrows from its owning facade
/// (DESIGN.md, "Sharding architecture"). None are owned by the engine; the
/// facade guarantees they outlive every engine. Sharing them is what makes
/// an N-shard DB one database rather than N: one block cache, one
/// background pool, one compaction rate budget, one Statistics block.
struct ShardResources {
  LruCache* block_cache = nullptr;
  ThreadPool* pool = nullptr;
  RateLimiter* rate_limiter = nullptr;
  Statistics* stats = nullptr;
};

/// ShardEngine is the lsmlab storage engine core: a single-keyspace
/// LSM-tree exposing the external operations of tutorial §2.1.2 (put, get,
/// scan, delete) with every internal design decision (§2.2, §2.3)
/// controlled by Options. One engine owns one directory: its WAL, memtable
/// lifecycle, manifest/VersionSet, error state, and background scheduling.
/// The public entry point is the ShardedDB facade in db/db.h, which routes
/// a range-partitioned keyspace across N engines; with one shard the
/// facade is a pass-through and the engine *is* the database.
///
/// Concurrency model: any number of reader threads; flushes and compactions
/// run on a (shared) background pool. Writers go through a
/// LevelDB/RocksDB-style group-commit queue (leader/follower protocol):
/// each writer enqueues itself under `writer_queue_mu_`; the front writer
/// becomes *leader*, coalesces the batches of compatible queued followers
/// into one group, and commits the whole group — one sequence range, one
/// WAL record, and (for sync writes) one fsync — before waking the
/// followers with their statuses. Only the leader ever runs the
/// write-stall ladder (MakeRoomForWrite) or touches the WAL, so the
/// expensive WAL append + Sync happen entirely outside `mu_`; `mu_` is
/// held only to make room, to assign sequence numbers, and to apply the
/// merged batch to the memtable. Lock ordering: `writer_queue_mu_` is
/// acquired before `mu_`, never after it. Forward iteration only.
///
/// A commit has two halves: the log half (make room, reserve the sequence
/// range, separate values, append and sync the WAL record) and the apply
/// half (insert into the memtable, publish the sequence). A group's leader
/// runs both back to back. A batch that spans shards runs them through the
/// same queue, driven by the facade (LogCrossShard / EndCrossShard): it
/// leads every involved shard's queue, logs each slice as one synced WAL
/// record tagged with the batch id, syncs its commit record, then applies
/// every slice. Nothing else writes a shard while the facade leads it, so
/// recovery replays a tagged record where it lies, iff the facade's commit
/// log holds its id.
class ShardEngine {
 public:
  /// Opens (creating if configured) the engine at `name`, borrowing the
  /// facade's shared `resources`. `cache_scope` (the shard index) names
  /// the engine's tables in the shared block cache. `committed_batches`
  /// lists the cross-shard batch ids whose commit record survived in the
  /// facade's commit log (null at N = 1); recovery replays a tagged WAL
  /// record only if its id is there. Read only during Open. Assumes
  /// `options` were already validated and normalized by the facade.
  static Status Open(const Options& options, const std::string& name,
                     uint64_t cache_scope, const ShardResources& resources,
                     const std::set<uint64_t>* committed_batches,
                     std::unique_ptr<ShardEngine>* dbptr);

  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  // --- External operations (tutorial §2.1.2) -------------------------------
  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value);
  /// Logical delete: writes a tombstone (§2.1.2).
  Status Delete(const WriteOptions& options, const Slice& key);
  /// Single-delete for keys written at most once; the tombstone annihilates
  /// with the first older put it meets during compaction (§2.3.3).
  Status SingleDelete(const WriteOptions& options, const Slice& key);
  /// Range delete, realized as a snapshot scan writing one tombstone per
  /// live key in [begin, end) — the simple strategy predating native range
  /// tombstones (documented simplification).
  Status DeleteRange(const WriteOptions& options, const Slice& begin,
                     const Slice& end);

  /// Read-modify-write without reading (tutorial §2.2.6): buffers a merge
  /// operand combined with the base value lazily at read/compaction time.
  /// Requires Options::merge_operator.
  Status Merge(const WriteOptions& options, const Slice& key,
               const Slice& operand);

  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value);

  /// Batched point lookup: resolves every key under one ReadView (one
  /// atomic acquire for the whole batch) by stepping one lookup cursor per
  /// key through Get's walk in rounds; each round's uncached data blocks,
  /// deduped, go out as one Env::MultiRead. Returns one Status per key,
  /// aligned with `keys`; `values` is resized to match. Batch-level
  /// statistics (multiget_batches / multiget_keys / point_lookups) are the
  /// facade's to record — it may split one client batch across several
  /// engines.
  std::vector<Status> MultiGet(const ReadOptions& options,
                               const std::vector<Slice>& keys,
                               std::vector<std::string>* values);

  /// Applies all operations in `batch` atomically: one WAL record, one
  /// sequence-number range, all-or-nothing recovery.
  Status Write(const WriteOptions& options, WriteBatch* batch);

  // --- Cross-shard commit (facade-driven) ----------------------------------
  /// One queued write or memtable-seal request. A writer blocks on its own
  /// condition variable until a leader commits its batch for it, or until
  /// it reaches the queue front and leads a group itself. done and status
  /// are written by the leader and read by the owner, both under
  /// writer_queue_mu_ (not expressible as GUARDED_BY: the mutex is an
  /// engine member, not ours). The facade makes one per shard that a
  /// cross-shard batch involves.
  struct Writer {
    Writer(WriteBatch* b, bool s, bool ns)
        : batch(b), sync(s), no_slowdown(ns) {}

    WriteBatch* batch;  // nullptr marks a memtable-seal request (Flush()).
    bool sync;
    bool no_slowdown;
    /// Non-zero for one shard's slice of a cross-shard batch: the batch id
    /// its WAL record is tagged with. Such a writer leads alone.
    uint64_t cross_shard_id = 0;
    /// Seal requests only: rotate even if the memtable is empty or a hard
    /// error is in force (Resume() swapping out a poisoned WAL).
    bool force_seal = false;
    /// Seal requests only: checkpoint WAL cut. Rotates even when the
    /// memtable is empty, but unlike force_seal keeps the outgoing fsync
    /// (the sealed log joins a checkpoint — it must be a durable prefix)
    /// and still refuses to run under a hard error.
    bool checkpoint_seal = false;
    /// Cross-shard slices only: the batch the log half wrote (values
    /// separated, sequence assigned), for the apply half.
    WriteBatch* logged = nullptr;
    bool done = false;
    Status status;
    CondVar cv;
  };

  /// What became of a cross-shard batch, for EndCrossShard.
  enum class CrossShardFate {
    /// The commit record is durable: apply the slice.
    kCommitted,
    /// No commit record was written: the slice stays unapplied, and
    /// recovery skips its WAL record.
    kAborted,
    /// The commit record's append or sync failed, so it may or may not be
    /// on disk: only a reopen can tell whether the batch committed.
    kInDoubt,
  };

  /// Queues `w` (a slice with its cross_shard_id set and sync on), waits
  /// for the write-queue leadership and runs the log half of a commit on
  /// the slice: one WAL record tagged with the id, synced. The caller keeps
  /// the leadership, whatever the status, until EndCrossShard.
  Status LogCrossShard(Writer* w) EXCLUDES(writer_queue_mu_, mu_);
  /// Ends `w`'s part of its cross-shard batch and hands the leadership on.
  /// kCommitted runs the apply half and returns its status. kInDoubt puts
  /// the shard into a hard error that Resume() refuses: a later write must
  /// not land behind a WAL record whose fate is unknown. Otherwise returns
  /// `cause`.
  Status EndCrossShard(Writer* w, CrossShardFate fate, const Status& cause)
      EXCLUDES(writer_queue_mu_, mu_);

  /// Iterator over user keys (newest visible version of each, tombstones
  /// suppressed). Forward-only. Scan statistics (range_scans) are the
  /// facade's to record.
  std::unique_ptr<Iterator> NewIterator(const ReadOptions& options);

  /// Snapshots pin a sequence number; reads at a snapshot see only writes
  /// with sequence <= it, and compactions preserve what snapshots need.
  SequenceNumber GetSnapshot();
  void ReleaseSnapshot(SequenceNumber snapshot);

  // --- Internal operations, exposed for control & experiments --------------
  /// Forces the current memtable to disk and waits for the flush.
  Status Flush();
  /// Merges everything down as far as the layout allows (manual, blocking):
  /// one top-down pass of ManualCompaction.
  Status CompactRange();
  /// Blocks until no flush or compaction is queued or running.
  Status WaitForBackgroundWork();
  /// Value-log GC (WiscKey): flushes, whose seal rolls the value log, then
  /// runs ManualCompaction with the new active log as the relocation
  /// cutoff. Every log below it that nothing points into any more is gone
  /// when it returns. No-op without kv separation.
  Status GarbageCollectVlog();

  /// Captures a consistent online checkpoint of this shard into `dir`
  /// (created if absent): seals + fsyncs the active WAL (checkpoint seal —
  /// rotate even when empty, never skip the outgoing sync), then under mu_
  /// hard-links every sealed WAL, every table of the pinned current
  /// version, and every vlog (each synced by the roll that sealed it, or
  /// by the GC job that relocated into it) into `dir` and writes a fresh
  /// manifest snapshot + CURRENT there. Holding mu_ across the capture
  /// freezes version installs and file GC, so the linked set and the
  /// manifest describe one instant. Transient link failures retry with
  /// capped exponential backoff. Fails (without partial cleanup — the
  /// caller owns the directory) under a hard background error.
  Status CheckpointInto(const std::string& dir)
      EXCLUDES(writer_queue_mu_, mu_);

  /// Rate-limited scrub: walks every live SSTable of the current version
  /// through block-trailer checksum verification (bypassing the block
  /// cache) and every on-disk vlog through record parsing + key echo
  /// checks. Returns the first corruption with file provenance; bumps
  /// scrub_bytes_verified / scrub_corruptions.
  Status VerifyChecksums() EXCLUDES(mu_);

  /// Clears a background-error state after the operator fixed the cause
  /// (freed disk space, remounted the device). For a hard manifest error it
  /// rolls a fresh manifest; for a hard WAL error it rotates the WAL and
  /// flushes the sealed memtable so no acked write depends on the poisoned
  /// log; soft errors are simply cleared and their work rescheduled. A
  /// partially-applied write group (memtable source) is not resumable —
  /// reopen instead. Returns the error still in force if repair fails.
  /// resume_calls statistics are the facade's to record.
  Status Resume() EXCLUDES(writer_queue_mu_, mu_);

  /// Stops accepting background work and wakes waiters. The facade calls
  /// this on every shard before draining the shared pool, so one slow
  /// shard's queue cannot delay another's shutdown. Idempotent; the
  /// destructor also calls it.
  void BeginShutdown() EXCLUDES(mu_);

  // --- Introspection --------------------------------------------------------
  /// This shard's part of the facade's dump: its non-empty levels
  /// (Version::DebugString), running compaction jobs, and current and
  /// first background error. The shared Statistics are the facade's to
  /// print, once for all shards.
  std::string DebugShardSection() const;
  /// Number of sorted runs a point lookup may probe.
  int TotalSortedRuns() const;
  uint64_t TotalSstBytes() const;
  /// Approximate count of live (visible) entries; walks a full iterator.
  uint64_t CountLiveEntries();
  const Options& options() const { return options_; }

  /// Snapshot of the background-error condition (current error, severity,
  /// source, and first-error provenance).
  ErrorState BackgroundErrorState() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return error_state_;
  }

  /// Structural self-check of the LSM invariants (DESIGN.md §4): leveled
  /// levels hold disjoint, sorted files; every file's metadata matches its
  /// contents; no level exceeds num_levels; the table files and the oldest
  /// value log each file points into exist. Returns the first violation.
  /// Intended for tests and debugging; walks file metadata only.
  Status ValidateTreeInvariants() const;

 private:
  ShardEngine(const Options& options, std::string dbname,
              uint64_t cache_scope, const ShardResources& resources);

  Status Initialize(const std::set<uint64_t>* committed_batches);
  Status Recover(const std::set<uint64_t>* committed_batches);
  /// Replays one WAL file into memtables and flushes each through
  /// WriteLevel0Table, adding the tables it writes to `edit`. Must be
  /// called *without* mu_ (the flush pins its output under it); recovery
  /// is single-threaded, so the tables it builds race nothing.
  /// `*stop_replay` is set when a corrupt record was tolerated under
  /// point-in-time recovery: replay must not continue into later logs
  /// (recovering past the corruption would break prefix consistency).
  /// A cross-shard slice replays where it lies iff `committed_batches`
  /// holds its id.
  Status RecoverLogFile(uint64_t log_number,
                        const std::set<uint64_t>* committed_batches,
                        SequenceNumber* max_sequence, VersionEdit* edit,
                        bool* stop_replay) EXCLUDES(mu_);
  /// Creates a fresh WAL and memtable, and rolls the value log to the
  /// WAL's number.
  Status NewMemTableAndLog() REQUIRES(mu_);
  /// Seals the active memtable into imms_ and swaps in a fresh one. The
  /// outgoing WAL is fsynced first so every sealed (non-active) log is a
  /// fully durable prefix — a crash can then only lose the tail of the
  /// *active* WAL, preserving prefix-consistent recovery across log files.
  /// `skip_old_wal_sync` is for Resume(): the outgoing WAL is known-poisoned
  /// and its contents are re-persisted via the flush the caller schedules.
  Status NewMemTableAndLogLocked(bool skip_old_wal_sync = false)
      REQUIRES(mu_);
  std::unique_ptr<MemTable> MakeMemTable(uint64_t log_number = 0) const;

  Status WriteInternal(const WriteOptions& options, ValueType type,
                       const Slice& key, const Slice& value);
  /// Shared core of every write: enqueues onto the group-commit writer
  /// queue and returns once a leader (possibly this writer) has committed
  /// the batch.
  Status WriteBatchInternal(const WriteOptions& options, WriteBatch* batch);
  /// Enqueues `w`, waits for a leader to commit it (or for leadership), and
  /// as leader commits the whole group and hands leadership on.
  Status EnqueueWriter(Writer* w) EXCLUDES(writer_queue_mu_, mu_);
  /// Queues `w` and waits until a leader has committed it (returns false)
  /// or it leads (returns true, with its group in write_group_).
  bool AwaitLeadership(Writer* w) EXCLUDES(writer_queue_mu_);
  /// Leader-only: delivers `s` to the group's followers, dequeues the group
  /// and wakes the next writer, which then leads.
  void HandOnLeadership(Writer* leader, const Status& s)
      EXCLUDES(writer_queue_mu_);
  /// Collects the leader plus compatible followers from the front of
  /// write_queue_ into `group`. A cross-shard slice never coalesces: it
  /// leads alone, and group building stops at one.
  void BuildWriteGroup(Writer* leader, std::vector<Writer*>* group)
      REQUIRES(writer_queue_mu_);
  /// Leader-only, the log half of a commit: makes room, reserves (without
  /// publishing) the group's sequence range, separates its values, and
  /// appends its batch as one WAL record outside mu_ — tagged when the
  /// leader is a cross-shard slice — syncing it when the leader asks.
  /// `*logged` is the batch the record holds.
  Status LogWriteGroup(Writer* leader, const std::vector<Writer*>& group,
                       WriteBatch** logged) EXCLUDES(mu_);
  /// Leader-only, the apply half: inserts `logged` into the memtable and
  /// publishes its sequence range.
  Status ApplyWriteGroup(WriteBatch* logged, size_t group_size)
      EXCLUDES(mu_);
  /// Seals the active memtable via the writer queue (so the swap cannot
  /// race a leader's WAL write); used by Flush(). With `force`, seals even
  /// when the memtable is empty or a hard error is in force (Resume()'s WAL
  /// rotation, which also skips the outgoing fsync — the log is poisoned).
  /// With `for_checkpoint`, rotates even when the memtable is empty but
  /// keeps the outgoing fsync and still fails under a hard error: the
  /// sealed log becomes part of a checkpoint, so it must be durable and
  /// trustworthy.
  Status SealActiveMemTable(bool force = false, bool for_checkpoint = false);
  /// Links `src` to `target`, retrying transient failures with capped
  /// exponential backoff (background_error_retry_initial_micros schedule).
  Status LinkFileWithRetry(const std::string& src, const std::string& target);
  /// Blocks (or fails with Busy under no_slowdown) until the write path has
  /// room; implements the slowdown/stop stall ladder (tutorial §2.2.3).
  /// Only the current write-queue leader may call this. Drops and reacquires
  /// mu_ internally around delay sleeps and stall waits.
  Status MakeRoomForWrite(bool no_slowdown) REQUIRES(mu_);

  /// Flush, the first merge (tutorial §2.1.1): runs `mem` through the
  /// compaction stream into at most one L0 table, never split, at high
  /// rate-limiter priority and never aborted by shutdown. The snapshot
  /// floor is OldestSnapshot() when a live flush starts, and
  /// kMaxSequenceNumber in recovery, where no reader exists yet. Adds the
  /// table to `edit` only if the stream wrote one. What the rules dropped
  /// goes to `dropped` (null in recovery), for the caller to record once
  /// `edit` installs. Takes mu_ internally to pin the output.
  Status WriteLevel0Table(std::shared_ptr<MemTable> mem,
                          SequenceNumber oldest_snapshot, VersionEdit* edit,
                          Dropped* dropped) EXCLUDES(mu_);
  TableBuilderOptions MakeBuilderOptions(int level) const;
  /// The engine's side of a merge (flush or compaction job): its files,
  /// caches, rate limiter and output pins, under snapshot floor
  /// `oldest_snapshot`.
  MergeContext MakeMergeContext(SequenceNumber oldest_snapshot);

  /// Classifies and records a background error (severity, source, first
  /// cause), bumps the matching stat, and wakes waiters.
  void RecordBackgroundError(const Status& s, ErrorSeverity severity,
                             ErrorSource source) REQUIRES(mu_);
  /// Backoff delay before soft-error retry number `attempt` (0-based).
  uint64_t RetryDelayMicros(int attempt) const;
  /// Sleeps ~`micros` on the calling (pool) thread in small chunks,
  /// returning false early if the DB began shutting down.
  bool SleepForRetry(uint64_t micros) EXCLUDES(mu_);
  /// Pool tasks re-running failed work after backoff.
  void RetryFlushAfterBackoff(uint64_t delay_micros) EXCLUDES(mu_);
  void RetryCompactionAfterBackoff(uint64_t delay_micros) EXCLUDES(mu_);

  void MaybeScheduleFlush() REQUIRES(mu_);
  /// Admission loop: keeps picking and admitting compaction jobs whose
  /// key-ranges and files are disjoint from every running job, until the
  /// picker finds nothing admissible or the concurrency limit is reached.
  void MaybeScheduleCompaction() REQUIRES(mu_);
  void BackgroundFlush() EXCLUDES(mu_);
  /// Pool entry point for one admitted job: runs it off mu_, installs its
  /// edit (or cleans up), unregisters its claims, and re-runs admission.
  void BackgroundCompaction(std::shared_ptr<CompactionJob> job) EXCLUDES(mu_);

  /// Registers `plan`'s files and key-range claims, bumps the running
  /// count, and schedules the job on the pool.
  void AdmitCompactionLocked(CompactionPlan plan) REQUIRES(mu_);
  /// Drops a finished job's file and range claims.
  void UnregisterCompactionLocked(uint64_t job_id) REQUIRES(mu_);
  /// The one install step of background and manual compactions: installs
  /// a finished job under mu_, then, when the options ask for it, re-warms
  /// the block cache with its outputs with no lock held.
  Status InstallCompaction(CompactionJob* job) EXCLUDES(mu_);
  /// Applies a finished job's edit atomically, releases its output pins,
  /// records per-level stats, and collects obsolete inputs.
  Status InstallCompactionLocked(CompactionJob* job) REQUIRES(mu_);
  /// The manual compaction pass of CompactRange and vlog GC, with automatic
  /// admissions held off: each level merges into the next once, L0 to the
  /// last, then the last level merges in place. With `relocate_below` 0
  /// every non-empty level merges, and the last only when it holds several
  /// runs; otherwise only levels with a file that points into a value log
  /// below it, relocating those values.
  Status ManualCompaction(uint64_t relocate_below) EXCLUDES(mu_);

  /// Deletes the files nothing needs any more: tables no live Version
  /// holds, old manifests, WALs below the oldest unflushed memtable's, and
  /// every value log below the oldest one that a live Version's file or a
  /// live memtable points into.
  void RemoveObsoleteFiles() REQUIRES(mu_);

  SequenceNumber OldestSnapshot() const REQUIRES(mu_);

  Status ResolveValue(const Slice& user_key, ValueType type, const Slice& raw,
                      std::string* value);

  /// The one merge-chain resolver (tutorial §2.2.6), shared by point
  /// lookups and DBIter. `iter` sits on the newest visible merge operand of
  /// `user_key`; collects operands down to a base value, a tombstone or the
  /// end of the key's history, leaves `iter` on the entry that ended the
  /// chain, and applies Options::merge_operator.
  Status ResolveMerge(Iterator* iter, const Slice& user_key,
                      std::string* value);

  // --- Point lookups (DESIGN.md, "Read path") -----------------------------
  /// One key's place in the point-lookup walk (tutorial §2.1.2-§2.1.3): the
  /// active memtable, the immutables newest first, then each level's
  /// candidate runs, shallow to deep. StepLookup moves it; Get and
  /// MultiGet differ only in how they read the blocks it stops at.
  /// A cursor copies nothing: at kFound, `raw` points into a memtable's
  /// arena (the view pins the memtable) or into `raw_block`, which the
  /// cursor pins, so a lookup the memtables or the block cache answer
  /// allocates nothing until FinishLookup copies the value out once.
  struct LookupCursor {
    enum State { kWalking, kNeedBlock, kFound, kAbsent };
    LookupCursor(const ReadView& v, const Slice& key, SequenceNumber snapshot)
        : view(v), lkey(key, snapshot) {}

    const ReadView& view;
    LookupKey lkey;
    State state = kWalking;
    size_t next_memtable = 0;  // 0 is the active one, k is imms[k - 1].
    int level = 0;
    size_t next_file = 0;  // Position of the walk over `level`'s files.
    /// The run being probed; at kNeedBlock, its uncached data block.
    std::shared_ptr<TableReader> reader;
    BlockHandle block;
    /// At kFound: the newest visible entry's type and value.
    ValueType type = kTypeValue;
    Slice raw;
    std::shared_ptr<const Block> raw_block;  // Holds `raw` if from a run.
  };
  /// The one point-lookup walk: advances `c` until it finds the key's
  /// newest visible entry (kFound), passes the deepest run (kAbsent), or
  /// stops at a data block that is not cached (kNeedBlock). The caller
  /// resumes a stopped cursor by passing that block, once read, as
  /// `fetched`. Counts filter skips, runs probed and filter false
  /// positives.
  Status StepLookup(LookupCursor* c, std::shared_ptr<const Block> fetched);
  /// Get's lookup loop: steps `c` to the end of its walk, reading each
  /// uncached block in place with one RandomAccessFile::Read.
  Status LookupInPlace(const ReadOptions& options, LookupCursor* c);
  /// Turns a finished walk into the reader's answer: NotFound for an
  /// absent key or a tombstone, ResolveMerge for a merge operand,
  /// ResolveValue otherwise.
  Status FinishLookup(const ReadOptions& options, const LookupCursor& c,
                      std::string* value);

  // --- Low-contention read path -----------------------------------------
  /// One pointer copy under the dedicated view lock. Never null after
  /// Initialize succeeds.
  std::shared_ptr<const ReadView> AcquireReadView() const
      EXCLUDES(read_view_mu_) {
    MutexLock lock(&read_view_mu_);
    return read_view_;
  }
  /// Rebuilds the view from {mem_, imms_, versions_->current()} and swaps
  /// it in under read_view_mu_. Called only by the paths that change view
  /// membership: Recover, memtable seal, flush install, and compaction
  /// install.
  void PublishReadView() REQUIRES(mu_) EXCLUDES(read_view_mu_);
  class DBIter;
  std::unique_ptr<Iterator> NewInternalIterator(const ReadOptions& options,
                                                const ReadView& view);

  // ---------------------------------------------------------------------
  const Options options_;  // The facade's normalized copy.
  const std::string dbname_;
  InternalKeyComparator internal_comparator_;

  // Facade-owned shared resources (see ShardResources). Never null.
  Statistics* const stats_;
  LruCache* const block_cache_;
  ThreadPool* const pool_;
  RateLimiter* const compaction_rate_limiter_;
  TableCache table_cache_;

  std::unique_ptr<VersionSet> versions_;
  std::unique_ptr<CompactionPicker> picker_;
  std::unique_ptr<VlogManager> vlog_;
  std::vector<double> monkey_bits_;  // Per-level filter bits (Monkey).

  /// The DB mutex: root of the lock hierarchy (see DESIGN.md, "Locking
  /// discipline"). May be held while taking any leaf lock (VersionSet,
  /// picker, caches, pool) but never while taking writer_queue_mu_.
  mutable Mutex mu_{LockRank::kEngineMu, "shard.mu"};
  CondVar background_cv_;

  std::shared_ptr<MemTable> mem_ GUARDED_BY(mu_);
  std::deque<std::shared_ptr<MemTable>> imms_ GUARDED_BY(mu_);  // Oldest 1st.
  /// With kv separation, every memtable the engine created, expired entries
  /// pruned on use: a memtable a reader still holds keeps its value log.
  std::vector<std::weak_ptr<MemTable>> memtables_ GUARDED_BY(mu_);
  /// Leaf lock for the published view pointer only. Its critical section is
  /// a shared_ptr copy (two atomic ops), so readers never wait on flush
  /// installs, manifest writes, or compaction bookkeeping, all of which
  /// hold mu_. Ordered after mu_ (publishers hold mu_ while swapping);
  /// readers take it alone.
  mutable Mutex read_view_mu_{LockRank::kReadView, "shard.read_view_mu"};
  /// Published read snapshot (see ReadView). Republished by the membership-
  /// changing paths (seal, flush install, compaction install, recovery)
  /// while they hold mu_.
  std::shared_ptr<const ReadView> read_view_ GUARDED_BY(read_view_mu_);
  uint64_t log_file_number_ GUARDED_BY(mu_) = 0;
  std::unique_ptr<WritableFile> log_file_ GUARDED_BY(mu_);
  std::unique_ptr<wal::Writer> log_ GUARDED_BY(mu_);
  /// Log numbers backing the immutable memtables (oldest first).
  std::deque<uint64_t> imm_log_numbers_ GUARDED_BY(mu_);

  std::multiset<SequenceNumber> snapshots_ GUARDED_BY(mu_);

  bool flush_scheduled_ GUARDED_BY(mu_) = false;
  bool shutting_down_ GUARDED_BY(mu_) = false;
  /// Background-error condition: severity (soft errors auto-retry with
  /// backoff; hard errors put the DB in read-only mode until Resume()),
  /// source, and first-error provenance. Replaces the old sticky
  /// `background_error_` poison bit.
  ErrorState error_state_ GUARDED_BY(mu_);
  /// Consecutive failed attempts of the flush / compaction currently being
  /// retried; reset on success, promoted to a hard error on exhaustion.
  int flush_retry_attempts_ GUARDED_BY(mu_) = 0;
  int compaction_retry_attempts_ GUARDED_BY(mu_) = 0;
  /// True while a compaction retry is sleeping out its backoff: gates
  /// MaybeScheduleCompaction so the backoff cannot be defeated by an
  /// immediate re-admission, and keeps WaitForBackgroundWork waiting.
  bool compaction_retry_pending_ GUARDED_BY(mu_) = false;

  /// One entry per admitted-but-unfinished compaction job. The claims are
  /// the job's input∪overlap user-key hull at its input and output levels;
  /// the picker refuses any plan whose hull intersects a claim at a shared
  /// level, which is what makes concurrent installs conflict-free.
  struct RunningCompaction {
    uint64_t job_id = 0;
    std::shared_ptr<CompactionJob> job;
    std::vector<ClaimedRange> claims;
  };
  std::vector<RunningCompaction> running_compactions_ GUARDED_BY(mu_);
  /// File numbers owned by running jobs (inputs and overlap); the picker
  /// treats them as untouchable.
  std::set<uint64_t> compacting_files_ GUARDED_BY(mu_);
  int compactions_running_ GUARDED_BY(mu_) = 0;
  uint64_t next_compaction_job_id_ GUARDED_BY(mu_) = 1;
  /// True while CompactRange holds the tree exclusively: blocks new
  /// automatic admissions.
  bool manual_compaction_active_ GUARDED_BY(mu_) = false;

  /// Table files currently being written (flush/compaction outputs) that no
  /// Version references yet. RemoveObsoleteFiles must not delete them.
  /// Entries are erased once the file is installed in a Version or its
  /// builder gave up and removed it.
  std::set<uint64_t> pending_outputs_ GUARDED_BY(mu_);

  /// Group-commit writer queue (leader/follower). Acquired before mu_,
  /// never while holding mu_. The front writer is the current leader; it is
  /// the only thread allowed in MakeRoomForWrite, the WAL, or group_batch_
  /// until it hands leadership to the next queued writer.
  Mutex writer_queue_mu_ ACQUIRED_BEFORE(mu_){LockRank::kWriterQueue,
                                              "shard.writer_queue_mu"};
  std::deque<Writer*> write_queue_ GUARDED_BY(writer_queue_mu_);
  /// Leader-only scratch batch holding a coalesced group (> 1 writer).
  /// Owned by whichever thread is leader — an exclusion the analysis cannot
  /// express, so it carries no GUARDED_BY; the leader protocol in
  /// EnqueueWriter/LogWriteGroup is its lock.
  WriteBatch group_batch_;
  /// Leader-only, like group_batch_: the writers of the group being
  /// committed, reused from group to group so a write allocates no list.
  std::vector<Writer*> write_group_;
  /// Leader-only, like group_batch_: the group's batch with its large
  /// values separated into the value log.
  WriteBatch separated_batch_;
};

}  // namespace lsmlab

#endif  // LSMLAB_DB_SHARD_ENGINE_H_
