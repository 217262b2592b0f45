#ifndef LSMLAB_DB_DB_H_
#define LSMLAB_DB_DB_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cache/lru_cache.h"
#include "db/error_state.h"
#include "db/shard_engine.h"
#include "db/statistics.h"
#include "db/write_batch.h"
#include "io/env.h"
#include "io/wal_writer.h"
#include "table/iterator.h"
#include "util/mutex.h"
#include "util/options.h"
#include "util/rate_limiter.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace lsmlab {

/// ShardedDB is the public face of the lsmlab storage engine: a
/// range-partitioned facade over Options::num_shards independent ShardEngine
/// cores (DESIGN.md, "Sharding architecture"). Each engine owns one
/// directory — its WAL, memtables, manifest, error state — while the
/// process-wide resources (block cache, background thread pool, compaction
/// rate limiter, Statistics) live here and are shared by every shard, so an
/// N-shard DB is still one database: one memory budget, one background-I/O
/// budget, one stats block.
///
/// With num_shards == 1 (the default) the facade is a pass-through and the
/// on-disk layout is the historical flat single-engine directory,
/// byte-for-byte. With N > 1 each shard lives in `<db>/shard-<k>/`, the
/// topology is persisted in `<db>/SHARDS` (fixed at creation; wins over
/// Options on reopen), and cross-shard WriteBatches commit atomically
/// through each shard's group-commit queue: the facade leads every
/// involved shard's queue, logs each slice as one synced WAL record tagged
/// with the batch id, syncs a commit record in `<db>/COMMITLOG`, then
/// applies every slice. Recovery replays a tagged record iff its commit
/// record survived — all shards or none. A failed commit-record append or
/// sync closes the commit log and leaves the involved shards in a hard
/// error that only a reopen clears.
///
/// Reads route by key range; MultiGet fans out per shard and keeps each
/// shard's batched-I/O path; iterators merge the per-shard iterators with
/// the standard merging iterator over one consistent multi-shard cut.
/// Snapshots at N > 1 are handles (bit 63 set) mapping to one pinned
/// sequence per shard, cut under the cross-shard commit lock so they never
/// observe half of an atomic batch.
class ShardedDB {
 public:
  /// Opens (creating if configured) the database at `name`.
  static Status Open(const Options& options, const std::string& name,
                     std::unique_ptr<ShardedDB>* dbptr);

  ~ShardedDB();

  ShardedDB(const ShardedDB&) = delete;
  ShardedDB& operator=(const ShardedDB&) = delete;

  // --- External operations (tutorial §2.1.2) -------------------------------
  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value);
  /// Logical delete: writes a tombstone (§2.1.2).
  Status Delete(const WriteOptions& options, const Slice& key);
  /// Single-delete for keys written at most once; the tombstone annihilates
  /// with the first older put it meets during compaction (§2.3.3).
  Status SingleDelete(const WriteOptions& options, const Slice& key);
  /// Range delete, realized as a snapshot scan writing one tombstone per
  /// live key in [begin, end); at N > 1 the range is clamped to each
  /// overlapping shard. Not atomic across keys (documented simplification).
  Status DeleteRange(const WriteOptions& options, const Slice& begin,
                     const Slice& end);

  /// Read-modify-write without reading (tutorial §2.2.6): buffers a merge
  /// operand combined with the base value lazily at read/compaction time.
  /// Requires Options::merge_operator.
  Status Merge(const WriteOptions& options, const Slice& key,
               const Slice& operand);

  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value);

  /// Batched point lookup: splits the batch by shard and resolves each
  /// shard's keys under one ReadView, one Env::MultiRead submission per
  /// round of uncached blocks. Returns one Status per key, aligned with `keys`;
  /// `values` is resized to match.
  std::vector<Status> MultiGet(const ReadOptions& options,
                               const std::vector<Slice>& keys,
                               std::vector<std::string>* values);

  /// Applies all operations in `batch` atomically. Within one shard: one
  /// WAL record, one sequence range. Across shards: see the class comment
  /// — every involved shard's slice and the commit record are synced, so
  /// an acknowledged cross-shard batch is durable regardless of
  /// WriteOptions::sync.
  Status Write(const WriteOptions& options, WriteBatch* batch);

  /// Iterator over user keys (newest visible version of each, tombstones
  /// suppressed). Forward-only. At N > 1, a merge of per-shard iterators
  /// over one consistent cut.
  std::unique_ptr<Iterator> NewIterator(const ReadOptions& options);

  /// Snapshots pin a sequence number; reads at a snapshot see only writes
  /// with sequence <= it, and compactions preserve what snapshots need.
  /// At N > 1 the returned value is a handle (bit 63 set) standing for one
  /// pinned sequence per shard.
  SequenceNumber GetSnapshot();
  void ReleaseSnapshot(SequenceNumber snapshot);

  // --- Internal operations, exposed for control & experiments --------------
  /// Forces the current memtable(s) to disk and waits for the flush(es).
  Status Flush();
  /// Merges everything down as far as the layout allows (manual, blocking).
  Status CompactRange();
  /// Blocks until no flush or compaction is queued or running.
  Status WaitForBackgroundWork();
  /// Value-log GC (WiscKey): each shard flushes, relocates every value a
  /// table still points at in an older log into its active log, and
  /// deletes the logs nothing points into any more (a log an open
  /// iterator's view points into stays until the iterator goes). No-op
  /// without kv separation.
  Status GarbageCollectVlog();

  /// Clears background-error states after the operator fixed the cause;
  /// see ShardEngine::Resume. Fans out to every shard; returns the first
  /// error still in force.
  Status Resume();

  /// Takes a consistent online checkpoint (backup) of the whole database
  /// into `dir` (created if absent, must not already hold a checkpoint).
  /// Safe under full concurrent write load: each shard cuts its WAL (seal +
  /// fsync) and hard-links its immutable files, and the whole capture runs
  /// under the cross-shard commit lock, so a cross-shard batch is never split
  /// across the checkpoint boundary. The directory is only a valid
  /// checkpoint once its CHECKPOINT completion record exists — Restore
  /// rejects anything less, so an interrupted checkpoint can never be
  /// mistaken for a backup. The source DB is never modified beyond the WAL
  /// rotation.
  Status Checkpoint(const std::string& dir) EXCLUDES(commit_mu_);

  /// Materializes the checkpoint at `checkpoint_dir` as a fresh, openable
  /// database at `target_dir` (byte copies — the restored DB never shares
  /// files with the backup). Validates the CHECKPOINT completion record
  /// first and refuses partial or in-progress checkpoints; refuses a
  /// `target_dir` that already holds a database.
  static Status Restore(const Options& options,
                        const std::string& checkpoint_dir,
                        const std::string& target_dir);

  /// Rate-limited scrub: walks every live SSTable and vlog of every shard
  /// through checksum / record-framing verification, reporting the first
  /// corruption with file provenance. Bumps scrub_bytes_verified /
  /// scrub_corruptions.
  Status VerifyChecksums();

  // --- Introspection --------------------------------------------------------
  Statistics* statistics() { return &stats_; }
  LruCache* block_cache() { return block_cache_.get(); }
  /// Tree dump: a header (shards, sorted runs, SST bytes), then per shard
  /// its key range, non-empty levels with their index-kind census, running
  /// compaction jobs, and current and first background error.
  std::string LevelsDebugString() const;
  /// LevelsDebugString() followed by Statistics::ToString(), printed once:
  /// the shards share one Statistics, so a per-shard copy would
  /// double-count. For tests, benches and operators.
  std::string DebugLevelSummary() const;
  /// Total sorted runs across all shards (a point lookup probes only its
  /// own shard's runs).
  int TotalSortedRuns() const;
  uint64_t TotalSstBytes() const;
  /// Approximate count of live (visible) entries; walks a full iterator.
  uint64_t CountLiveEntries();
  const Options& options() const { return options_; }
  int num_shards() const { return num_shards_; }
  /// Interior split keys ([k-1] is the lower bound of shard k); empty at
  /// N = 1.
  const std::vector<std::string>& shard_split_keys() const {
    return split_keys_;
  }

  /// Snapshot of the background-error condition: the first shard's non-OK
  /// state, or OK.
  ErrorState BackgroundErrorState() const;

  /// Structural self-check of the LSM invariants (DESIGN.md §4) on every
  /// shard. Returns the first violation.
  Status ValidateTreeInvariants() const;

 private:
  ShardedDB(const Options& options, std::string dbname);

  Status Initialize();
  /// Resolves the shard topology: the SHARDS file when present (it wins),
  /// an existing flat layout (forced N = 1), or Options for a fresh DB
  /// (with uniform first-byte splits when none are given).
  Status ResolveTopology(bool* fresh);
  /// Reads `<db>/COMMITLOG` into `committed` (cross-shard batch ids whose
  /// commit record survived), tolerating a torn tail.
  Status ReadCommitLog(std::set<uint64_t>* committed);
  /// Truncates and reopens `<db>/COMMITLOG` for the new incarnation —
  /// every engine already replayed its slices, so the old records are
  /// spent.
  Status ResetCommitLog() EXCLUDES(commit_mu_);

  /// Shard serving `key`: upper_bound over the interior split keys.
  int ShardForKey(const Slice& key) const;
  /// Rewrites a snapshot handle (bit 63) into shard `shard`'s pinned
  /// sequence; passes raw sequences through.
  ReadOptions ShardReadOptions(const ReadOptions& options, int shard) const
      EXCLUDES(commit_mu_);

  /// Commits a batch spanning `involved` shards (see the class comment);
  /// called with commit_mu_ held (it serializes cross-shard commits against
  /// each other and against snapshot cuts).
  Status CommitCrossShard(const WriteOptions& options,
                          std::vector<WriteBatch>* parts,
                          const std::vector<int>& involved)
      REQUIRES(commit_mu_);

  // ---------------------------------------------------------------------
  const Options options_;  // Normalized copy (env/clock/comparator filled).
  const std::string dbname_;
  Statistics stats_;

  int num_shards_ = 1;
  std::vector<std::string> split_keys_;  // num_shards_ - 1 interior keys.

  // Process-wide resources, shared by every shard (see ShardResources).
  std::unique_ptr<LruCache> block_cache_;
  std::unique_ptr<RateLimiter> compaction_rate_limiter_;
  std::unique_ptr<ThreadPool> pool_;

  std::vector<std::unique_ptr<ShardEngine>> shards_;

  /// Serializes cross-shard commits, snapshot cuts, and consistent
  /// iterator cuts at N > 1. Outermost lock: never taken while a caller is
  /// inside a single-shard engine operation, only around a cross-shard
  /// commit, per-shard sequence reads and building a scan's per-shard
  /// iterators.
  mutable Mutex commit_mu_{LockRank::kCommitMu, "sharded_db.commit_mu"};
  uint64_t next_batch_id_ GUARDED_BY(commit_mu_) = 1;
  /// Null once a commit record failed to append or sync, until a reopen.
  std::unique_ptr<WritableFile> commit_log_file_ GUARDED_BY(commit_mu_);
  std::unique_ptr<wal::Writer> commit_log_ GUARDED_BY(commit_mu_);

  /// N > 1 snapshot registry: handle -> one pinned sequence per shard.
  std::map<uint64_t, std::vector<SequenceNumber>> snapshot_handles_
      GUARDED_BY(commit_mu_);
  uint64_t next_snapshot_handle_ GUARDED_BY(commit_mu_) = 1;
};

/// The historical engine name; the facade is the DB.
using DB = ShardedDB;

/// Destroys the database at `name` (removes all its files, including shard
/// subdirectories). For tests and benches.
Status DestroyDB(const Options& options, const std::string& name);

}  // namespace lsmlab

#endif  // LSMLAB_DB_DB_H_
