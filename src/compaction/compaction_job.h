#ifndef LSMLAB_COMPACTION_COMPACTION_JOB_H_
#define LSMLAB_COMPACTION_COMPACTION_JOB_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "compaction/compaction.h"
#include "compaction/compaction_stream.h"
#include "util/arena.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lsmlab {

/// One background compaction, extracted from the DB into a self-contained
/// job object: it owns its arena, per-job stats, output set, and the
/// VersionEdit that installs its result. The scheduler (DB) creates a job
/// from a CompactionPlan, calls Run() off the DB mutex, and either installs
/// edit() or calls Cleanup().
///
/// Subcompaction splitting: when the output level is leveled and
/// Options::max_subcompactions > 1, Run() partitions the input user-key
/// space at file-boundary keys into N disjoint shards, executes them in
/// parallel on the thread pool (Priority::kMedium), and stitches the shard
/// outputs back into one atomic edit. All versions of a user key land in
/// exactly one shard, so the merge drop rules (shadowing, bottommost
/// tombstone drop, single-delete annihilation) stay correct per shard.
/// While waiting for its shards the coordinating thread helps drain the
/// kMedium queue, so splitting cannot deadlock even on a 1-thread pool.
class CompactionJob {
 public:
  CompactionJob(uint64_t id, CompactionPlan plan, MergeContext context);

  CompactionJob(const CompactionJob&) = delete;
  CompactionJob& operator=(const CompactionJob&) = delete;

  /// Executes the merge (possibly sharded). Returns OK on success,
  /// Status::Aborted when should_abort() interrupted it, or the first I/O /
  /// corruption error. On non-OK the caller must invoke Cleanup().
  Status Run();

  /// Removes every output file this job wrote and releases their pins.
  /// Idempotent; for the failure/abort path.
  void Cleanup();

  uint64_t id() const { return id_; }
  const CompactionPlan& plan() const { return plan_; }
  /// The stitched edit: inputs and overlap removed, outputs added.
  VersionEdit* edit() { return &edit_; }
  const std::vector<FileMetaData>& outputs() const { return outputs_; }

  // Per-job stats, valid after Run().
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  /// One key-range shard of the merge: [begin, end) over user keys, with
  /// nullopt meaning unbounded on that side.
  struct Shard {
    std::optional<Slice> begin;
    std::optional<Slice> end;
    std::vector<FileMetaData> outputs;
    /// What the shard's drop rules discarded, recorded only once every
    /// shard has succeeded: a failed job's drops must not count.
    Dropped dropped;
    Status status;
  };

  /// Copies `key` into the job arena; the result stays valid for the job's
  /// lifetime (shards reference boundary keys concurrently).
  Slice CopyToArena(const Slice& key);

  /// Chooses interior split keys from the input/overlap file boundaries.
  /// Empty result means "run unsharded".
  std::vector<Slice> ComputeShardBoundaries() const;

  /// Runs one shard's children through the compaction stream; called
  /// concurrently for distinct shards.
  Status RunShard(Shard* shard);

  /// Pool entry point: runs shard `index`, records its status, and signals
  /// the coordinator.
  void ExecuteShard(size_t index);

  const uint64_t id_;
  const CompactionPlan plan_;
  const MergeContext ctx_;
  /// Whether output may be split into target_file_size files (leveled
  /// output) — also the precondition for subcompaction splitting.
  const bool split_outputs_;

  Arena arena_;  // Holds shard-boundary key copies.
  std::vector<Shard> shards_;
  VersionEdit edit_;
  std::vector<FileMetaData> outputs_;

  Mutex shard_mu_{LockRank::kCompactionJob, "compaction_job.shard_mu"};
  CondVar shard_cv_;
  size_t shards_done_ GUARDED_BY(shard_mu_) = 0;
  /// Set by the first failing/aborting shard so siblings bail out early.
  std::atomic<bool> failed_{false};

  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
  bool ran_ = false;
};

}  // namespace lsmlab

#endif  // LSMLAB_COMPACTION_COMPACTION_JOB_H_
