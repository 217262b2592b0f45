#ifndef LSMLAB_COMPACTION_COMPACTION_STREAM_H_
#define LSMLAB_COMPACTION_COMPACTION_STREAM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "db/dbformat.h"
#include "db/statistics.h"
#include "db/table_cache.h"
#include "kvsep/vlog.h"
#include "table/iterator.h"
#include "table/table_builder.h"
#include "util/options.h"
#include "util/rate_limiter.h"
#include "util/thread_pool.h"
#include "version/version_edit.h"

namespace lsmlab {

/// Everything a merge needs from the engine: a flush's as much as a
/// compaction job's. Callbacks must be safe to call without the DB mutex
/// held (they take it internally).
struct MergeContext {
  const Options* options = nullptr;
  std::string dbname;
  const InternalKeyComparator* icmp = nullptr;
  TableCache* table_cache = nullptr;
  VlogManager* vlog = nullptr;  // Null without kv separation.
  RateLimiter* rate_limiter = nullptr;  // Never null.
  Statistics* stats = nullptr;
  ThreadPool* pool = nullptr;  // Null disables subcompactions.
  /// Snapshot floor for the drop rules, fixed when the merge starts.
  SequenceNumber oldest_snapshot = 0;
  /// Vlog GC's cutoff: the value behind every kept pointer into a log
  /// numbered below it moves into the active log. 0 (no relocation) for
  /// every merge but GC's.
  uint64_t relocate_below = 0;
  /// Allocates a fresh file number and pins it in pending_outputs_.
  std::function<uint64_t()> pin_new_file_number;
  /// Erases a pin placed by pin_new_file_number.
  std::function<void(uint64_t)> unpin_output;
  /// True when a compaction job should abandon work (engine shutdown).
  std::function<bool()> should_abort;
  /// Per-level table-builder options (Monkey filter bits etc.).
  std::function<TableBuilderOptions(int level)> make_builder_options;
};

/// The one owner of a merge's table files, a flush's L0 file and a
/// compaction shard's outputs alike: pins a file number and creates the
/// file at the first entry, builds it while charging the rate limiter in
/// chunks, with `split` cuts a file at target_file_size on a user-key
/// boundary, and finishes, syncs and closes each file into a FileMetaData
/// that names the oldest value log the file points into.
/// On error the file in progress is removed and unpinned; finished files
/// stay pinned until the caller installs or removes them. Flushes charge
/// the limiter at high priority so a compaction burst cannot stall them
/// into a write stop (SILK, tutorial §2.2.3). `ctx` must outlive the writer.
class OutputWriter {
 public:
  OutputWriter(const MergeContext& ctx, int level,
               uint64_t oldest_tombstone_micros, bool split,
               bool high_priority);
  ~OutputWriter() { Abandon(); }

  OutputWriter(const OutputWriter&) = delete;
  OutputWriter& operator=(const OutputWriter&) = delete;

  Status Add(const Slice& internal_key, const Slice& value);
  /// Finishes the file in progress, if any, and settles the rate limiter.
  Status Finish();
  /// Drops the file in progress, if any: removes it and unpins it.
  void Abandon();

  /// Finished files, in key order.
  const std::vector<FileMetaData>& files() const { return files_; }

 private:
  Status FinishFile();

  const MergeContext& ctx_;
  TableBuilderOptions builder_options_;
  const bool split_;
  const bool high_priority_;

  std::unique_ptr<WritableFile> file_;
  std::unique_ptr<TableBuilder> builder_;
  uint64_t file_number_ = 0;
  InternalKey smallest_, largest_;
  uint64_t oldest_vlog_ = 0;  // Of the file in progress; 0 for none.
  uint64_t rate_limit_pending_ = 0;
  std::vector<FileMetaData> files_;
};

/// What a merge's drop rules discarded.
struct Dropped {
  uint64_t entries = 0;  // Shadowed versions and annihilated puts.
  uint64_t tombstones = 0;

  /// Counts the drops in the tickers; called once the merge has succeeded,
  /// so a retried merge counts its drops once.
  void RecordIn(Statistics* stats) const;
};

/// The compaction stream: runs `input`, already positioned, through the
/// drop rules of tutorial §2.1.1-§2.1.2 into `out`, up to the input's end
/// or user key `end`. An entry under a newer value, tombstone or pointer of
/// its key at or below ctx.oldest_snapshot drops (a merge operand shadows
/// nothing); with `bottommost`, so does a tombstone at or below it; and a
/// SingleDelete annihilates with the put below it. A kept pointer into a
/// log below ctx.relocate_below is relocated (vlog GC). A flush is the
/// first such merge, a compaction shard every later one. `should_abort`
/// (null: never) is polled every few hundred entries. On error the file in
/// progress is gone and finished files stay in out->files() for the caller
/// to remove.
Status RunCompactionStream(const MergeContext& ctx, bool bottommost,
                           Iterator* input, const std::optional<Slice>& end,
                           const std::function<bool()>& should_abort,
                           OutputWriter* out, Dropped* dropped);

}  // namespace lsmlab

#endif  // LSMLAB_COMPACTION_COMPACTION_STREAM_H_
