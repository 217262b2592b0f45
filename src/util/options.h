#ifndef LSMLAB_UTIL_OPTIONS_H_
#define LSMLAB_UTIL_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace lsmlab {

class Clock;
class Comparator;
class Env;
class FilterPolicy;
class Logger;
class MergeOperator;

/// Disk data layout of the LSM-tree (tutorial §2.1.2, §2.2.2). Determines
/// how many sorted runs a level may hold before a merge is forced.
enum class DataLayout {
  /// At most one run per level; every incoming run is greedily merged.
  kLeveling,
  /// Each level accumulates up to `size_ratio` runs before merging down.
  kTiering,
  /// Dostoevsky: tiering on all intermediate levels, leveling on the last.
  kLazyLeveling,
  /// RocksDB default: tiering in level 0 only, leveling in levels >= 1.
  kOneLeveling,
};

/// Granularity of a compaction job (tutorial §2.2.3).
enum class CompactionGranularity {
  /// Merge all data of the level with the next level at once.
  kWholeLevel,
  /// Pick one file at a time, amortizing the compaction I/O.
  kPartial,
};

/// Which file a partial compaction picks (tutorial §2.2.3).
enum class FilePickPolicy {
  /// Cycle through the key space (LevelDB-style).
  kRoundRobin,
  /// File with the least key-range overlap with the next level.
  kLeastOverlap,
  /// File with the highest tombstone density (delete-aware, Lethe-style).
  kMostTombstones,
  /// File least recently appended to the level ("cold" data first).
  kOldestFirst,
  /// File covering the largest key range (drains wide files early).
  kWidestRange,
};

/// How a memtable organizes entries in memory (tutorial §2.2.1; the four
/// RocksDB MemTableRep choices).
enum class MemTableRepType {
  kSkipList,
  kVector,
  kHashSkipList,
  kHashLinkList,
};

/// How Bloom-filter memory is divided among levels (tutorial §2.1.3).
enum class FilterAllocation {
  /// Same bits-per-key at every level.
  kUniform,
  /// Monkey: exponentially more bits per key at shallower levels, minimizing
  /// the expected number of superfluous I/Os for a fixed memory budget.
  kMonkey,
};

/// Per-SSTable index structure over the data blocks (tutorial §2.1.3;
/// DESIGN.md, "Pluggable per-table indexes"). SSTables are immutable, so a
/// learned model can be fitted once at build time and never retrained.
enum class IndexType {
  /// Classic binary-searched fence pointers (the pinned index block).
  kBinarySearchFence,
  /// Epsilon-bounded piecewise-linear model (PGM/PLR-style) over a monotone
  /// key-to-number transform; falls back to fence pointers per table when
  /// the keyspace defeats the transform, and per lookup on digest ties, so
  /// correctness never depends on the model.
  kLearnedPLR,
};

/// How strictly WAL — and manifest — replay treats a corrupt record
/// (RocksDB-inspired). The manifest follows the same policy because it uses
/// the same log format and the same argument applies: acked records are
/// fsynced, so a checksum failure is a torn unacked tail after a crash.
enum class WalRecoveryMode {
  /// Any reported corruption fails the open. A cleanly truncated tail (the
  /// torn-write signature the WAL format detects as EOF) is still
  /// tolerated; a checksum mismatch anywhere is not.
  kAbsoluteConsistency,
  /// Replay stops at the first corrupt record: everything before it is
  /// recovered, everything after (including later WAL files) is dropped.
  /// This is the crash-consistent prefix semantics most deployments want.
  kPointInTimeRecovery,
};

/// Options is the knob board of lsmlab: every first-order design decision
/// called out by the tutorial is an independent field here.
struct Options {
  // --- Substrate -----------------------------------------------------------
  /// Environment used for all file I/O. Defaults to the POSIX filesystem.
  Env* env = nullptr;  // nullptr means Env::Default()
  /// Clock used for TTLs and throttling. Defaults to the system clock.
  Clock* clock = nullptr;  // nullptr means SystemClock()
  /// Total order over user keys.
  const Comparator* comparator = nullptr;  // nullptr means BytewiseComparator()
  /// Destination for info logging. Null disables logging.
  std::shared_ptr<Logger> info_log;

  bool create_if_missing = true;
  bool error_if_exists = false;

  // --- In-memory component (§2.2.1) ---------------------------------------
  /// Memtable implementation.
  MemTableRepType memtable_rep = MemTableRepType::kSkipList;
  /// Bytes buffered in memory before a flush is scheduled.
  size_t write_buffer_size = 4 << 20;
  /// Number of memtables (active + immutable) tolerated before write stalls;
  /// >= 2 absorbs ingestion bursts while a flush is in flight.
  int max_write_buffer_number = 2;
  /// Bucket count for the hashed memtable representations.
  size_t memtable_hash_bucket_count = 4096;

  // --- Disk data layout (§2.1.2, §2.2.2) -----------------------------------
  DataLayout data_layout = DataLayout::kOneLeveling;
  /// Size ratio T between adjacent levels; also the run count per tiered
  /// level. The single most influential LSM tuning knob.
  int size_ratio = 10;
  /// Number of runs in L0 that triggers a flush-into-L1 compaction.
  int level0_file_num_compaction_trigger = 4;
  /// Number of runs in L0 at which writes are slowed (soft stall).
  int level0_slowdown_writes_trigger = 12;
  /// Number of runs in L0 at which writes stop (hard stall).
  int level0_stop_writes_trigger = 20;
  /// Capacity of level 1 in bytes; level i holds base * T^(i-1).
  uint64_t max_bytes_for_level_base = 16 << 20;
  /// Target size of one SSTable file.
  uint64_t target_file_size = 2 << 20;
  /// Maximum number of levels.
  int num_levels = 7;

  // --- Compaction primitives (§2.2.3, §2.2.4) ------------------------------
  CompactionGranularity compaction_granularity =
      CompactionGranularity::kPartial;
  FilePickPolicy file_pick_policy = FilePickPolicy::kLeastOverlap;
  /// Background threads shared by flushes and compactions.
  int background_threads = 1;
  /// Maximum key-range shards a single large compaction may be split into
  /// and executed in parallel on the background pool (subcompactions).
  /// 1 disables splitting. Only compactions writing to a leveled level are
  /// ever split: a tiered output must stay one run.
  int max_subcompactions = 1;
  /// If > 0, background disk bandwidth (flush + compaction writes) is
  /// throttled to this many bytes/sec (SILK-style; flushes request at high
  /// priority, so under contention compactions yield to them).
  uint64_t compaction_rate_limit_bytes_per_sec = 0;
  /// FADE (Lethe): if > 0, a file whose oldest tombstone is older than this
  /// many microseconds becomes the top compaction priority, bounding delete
  /// persistence latency.
  uint64_t tombstone_ttl_micros = 0;

  // --- Read path (§2.1.3) ---------------------------------------------------
  /// Point-query filter; nullptr disables filtering.
  std::shared_ptr<const FilterPolicy> filter_policy;
  /// How filter memory is split across levels.
  FilterAllocation filter_allocation = FilterAllocation::kUniform;
  /// Bits per key for the filter (average across tree for kMonkey).
  double filter_bits_per_key = 10.0;
  /// Block size for SSTable data blocks.
  size_t block_size = 4096;
  /// Restart interval for prefix compression within a block.
  int block_restart_interval = 16;
  /// Capacity in bytes of the shared block cache; 0 disables caching.
  size_t block_cache_capacity = 8 << 20;
  /// Re-warm block cache with the output of a compaction (Leaper-inspired).
  bool cache_rewarm_after_compaction = false;
  /// Verify block checksums whenever a table file is read (index, filter,
  /// properties, and data blocks). Per-read ReadOptions::verify_checksums
  /// additionally forces checksumming of data blocks for that read only.
  bool verify_checksums = false;
  /// Index structure new SSTables are built with. Existing tables keep the
  /// index they were written with; readers dispatch per table, so mixed
  /// trees (e.g. after changing this and reopening) are fully supported.
  IndexType index_type = IndexType::kBinarySearchFence;
  /// Error bound of the kLearnedPLR model: a prediction is at most this many
  /// blocks away from the true block for every fitted fence pointer. Larger
  /// epsilon -> fewer segments (smaller model) but a wider probe window.
  uint32_t learned_index_epsilon = 8;
  /// Per-level override of index_type: entry i applies to tables written for
  /// level i; levels past the end of the vector use index_type. Lets the
  /// tuner mix, e.g. fence pointers at L0 (short-lived runs, build cost
  /// dominates) and learned indexes at deep levels (long-lived runs, index
  /// residency dominates). Empty applies index_type everywhere.
  std::vector<IndexType> index_type_per_level;

  // --- Read-modify-write (§2.2.6) -------------------------------------------
  /// Combines merge operands with base values; required to use DB::Merge.
  std::shared_ptr<const MergeOperator> merge_operator;

  // --- Durability ----------------------------------------------------------
  /// Write-ahead logging; disable only for bulk loads that can be redone.
  bool enable_wal = true;
  /// fsync WAL on every write (vs. on flush only).
  bool sync_wal = false;
  /// How WAL replay reacts to a corrupt record (DESIGN.md, "Failure model
  /// & recovery").
  WalRecoveryMode wal_recovery_mode = WalRecoveryMode::kPointInTimeRecovery;

  // --- Background-error recovery -------------------------------------------
  /// How many times a failed flush or compaction (a *soft* error: nothing
  /// partially published) is retried with capped exponential backoff before
  /// being promoted to a hard error. 0 restores the old sticky behavior:
  /// the first background failure poisons the DB until Resume()/reopen.
  int max_background_error_retries = 6;
  /// Backoff before the first retry; doubles per attempt.
  uint64_t background_error_retry_initial_micros = 1000;
  /// Backoff cap.
  uint64_t background_error_retry_max_micros = 200000;

  // --- Range sharding (DESIGN.md, "Sharding architecture") -----------------
  /// Number of range-partitioned shards the DB is split into. Each shard is
  /// an independent LSM engine (own WAL, memtables, version set, background
  /// scheduling) behind one facade; process-wide resources (block cache,
  /// thread pool, rate limiter, statistics) are shared. 1 (the
  /// default) is the classic single-engine layout, byte-for-byte unchanged.
  /// The topology is fixed at creation (persisted in a SHARDS file) and
  /// wins over these options on reopen.
  int num_shards = 1;
  /// Shard key-range boundaries: shard k serves [shard_split_keys[k-1],
  /// shard_split_keys[k]). Must hold num_shards - 1 strictly increasing
  /// keys, or be empty to split the keyspace uniformly by first byte.
  std::vector<std::string> shard_split_keys;

  // --- Key-value separation (§2.2.2, WiscKey) -------------------------------
  /// If true, values >= kv_separation_threshold bytes are stored in a value
  /// log; the LSM keeps (key -> log pointer).
  bool kv_separation = false;
  size_t kv_separation_threshold = 128;

  /// Validates cross-field consistency (e.g. stall thresholds ordered).
  Status Validate() const;

  /// One-line description of the design point, for bench labelling.
  std::string DesignPointLabel() const;
};

/// Per-read options.
struct ReadOptions {
  /// Verify block checksums on read.
  bool verify_checksums = false;
  /// Populate the block cache with blocks read by this operation.
  bool fill_cache = true;
  /// If nonzero, read at this sequence number (snapshot read).
  uint64_t snapshot_seqno = 0;
  /// Iterators only: ceiling of the per-iterator readahead window. Data
  /// blocks are fetched through a buffer that doubles from one block up to
  /// this many bytes while the scan stays sequential. 0 disables readahead
  /// (every block is its own device read).
  size_t readahead_bytes = 256 << 10;
};

/// Per-write options.
struct WriteOptions {
  /// If true, fsync the WAL before acknowledging the write.
  bool sync = false;
  /// If true, never block on write stalls; return Status::Busy instead.
  bool no_slowdown = false;
};

const char* DataLayoutName(DataLayout layout);
const char* FilePickPolicyName(FilePickPolicy policy);
const char* MemTableRepTypeName(MemTableRepType type);
const char* IndexTypeName(IndexType type);

/// The index type tables written for `level` get, honouring the per-level
/// override (entries past the vector's end fall back to index_type).
IndexType ResolveIndexTypeForLevel(const Options& options, int level);

}  // namespace lsmlab

#endif  // LSMLAB_UTIL_OPTIONS_H_
