#ifndef LSMLAB_DB_STATISTICS_H_
#define LSMLAB_DB_STATISTICS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "util/histogram.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lsmlab {

/// The ticker registry: every counter Statistics keeps, declared once and
/// in member order. TICKER(name) is one Ticker; LEVEL_TICKER(name) is a
/// LevelTicker, one Ticker per compaction output level (clamped to
/// kMaxStatsLevels - 1). The members and the ForEachTicker() /
/// ForEachLevelTicker() visitors expand this list, and Reset() and
/// ToString() walk the visitors, so a ticker added here is reset and dumped
/// with no further edits.
#define LSMLAB_STATISTICS_TICKERS(TICKER, LEVEL_TICKER)                       \
  /* Read path. */                                                            \
  TICKER(point_lookups)                                                       \
  TICKER(point_lookup_found)                                                  \
  /* Memtables a point lookup passed over because the memtable's key filter   \
     ruled the key out, without searching the memtable's rep. */              \
  TICKER(memtables_skipped_by_filter)                                         \
  TICKER(runs_probed) /* Sorted runs actually read. */                        \
  TICKER(runs_skipped_by_filter)                                              \
  TICKER(filter_checks)                                                       \
  TICKER(filter_false_positives)                                              \
  TICKER(range_scans)                                                         \
  /* Seeks a scan issued to jump past the rest of a key's hidden versions     \
     after stepping over kMaxSequentialSkip of them (DESIGN.md, "Hidden       \
     history"). */                                                            \
  TICKER(iter_reseeks)                                                        \
  /* Table-reader resolutions served without opening the file (the file's    \
     pinned handle, shared by every Version holding it, already held it) vs.  \
     resolutions that had to open and parse the table footer. */              \
  TICKER(table_cache_hits)                                                    \
  TICKER(table_cache_misses)                                                  \
  /* ReadView republications (membership changes of {mem, imms, version});    \
     steady-state reads acquire the current view without touching them. */    \
  TICKER(read_views_published)                                                \
  /* MultiGet batches and the keys they carried; keys / batches is the mean   \
     batch size. */                                                           \
  TICKER(multiget_batches)                                                    \
  TICKER(multiget_keys)                                                       \
  /* Batched I/O (DESIGN.md, "Batched I/O"): MultiRead submissions issued     \
     by the read path, the block reads they carried (reads / batches is the   \
     mean submission depth), and the bytes those reads returned. */           \
  TICKER(io_batches)                                                          \
  TICKER(io_batch_reads)                                                      \
  TICKER(io_batch_bytes)                                                      \
  /* Iterator readahead: data-block reads served from the prefetch buffer     \
     vs. reads that had to go to the device. */                               \
  TICKER(readahead_hits)                                                      \
  TICKER(readahead_misses)                                                    \
  /* Learned per-table indexes (DESIGN.md, "Pluggable per-table indexes"):    \
     lookups the model certified from digests alone vs. lookups that hit a    \
     digest tie and fell back to the binary-searched fence block. A           \
     mispredicting model shows up here, not as silent slowdown. */            \
  TICKER(learned_index_hits)                                                  \
  TICKER(learned_index_fallbacks)                                             \
  /* Index bytes pinned in memory by table opens plus lazy fence-block        \
     loads; learned tables pin the (much smaller) model block up front and    \
     the fence block only on first fallback. */                               \
  TICKER(index_bytes_loaded)                                                  \
  /* Write path. `writes` counts operations; `write_groups` counts leader     \
     commits, so writes / write_groups is the mean group-commit batch         \
     size. */                                                                 \
  TICKER(writes)                                                              \
  TICKER(write_groups)                                                        \
  TICKER(wal_syncs)                                                           \
  TICKER(wal_bytes_written)                                                   \
  TICKER(write_stall_micros)                                                  \
  TICKER(write_slowdown_micros)                                               \
  /* Internal operations. */                                                  \
  TICKER(flushes)                                                             \
  TICKER(compactions)                                                         \
  TICKER(compaction_bytes_read)                                               \
  TICKER(compaction_bytes_written)                                            \
  TICKER(flush_bytes_written)                                                 \
  TICKER(tombstones_dropped)                                                  \
  TICKER(entries_dropped_obsolete)                                            \
  /* Background job engine, credited to the compaction's output level. */     \
  LEVEL_TICKER(compactions_at_level)                                          \
  LEVEL_TICKER(compaction_bytes_read_at_level)                                \
  LEVEL_TICKER(compaction_bytes_written_at_level)                             \
  /* Gauge: compactions admitted and not yet finished. Reset() keeps it. */   \
  TICKER(compactions_running)                                                 \
  /* High-water mark of compactions_running (observed parallelism). */        \
  TICKER(max_compactions_running)                                             \
  /* Subcompaction shards executed (counts only split jobs' shards). */       \
  TICKER(subcompactions)                                                      \
  /* Background-error recovery (DESIGN.md, "Failure model & recovery"). */    \
  /* Soft (retryable) background errors recorded; counts every occurrence,    \
     so one transient window may record several. */                           \
  TICKER(bg_error_soft)                                                       \
  /* Transitions into the hard (read-only) error state. */                    \
  TICKER(bg_error_hard)                                                       \
  /* Retry attempts scheduled after soft errors. */                           \
  TICKER(bg_retries)                                                          \
  /* Retried flushes/compactions that subsequently succeeded. */              \
  TICKER(bg_retry_success)                                                    \
  /* DB::Resume() invocations. */                                             \
  TICKER(resume_calls)                                                        \
  /* Checksum scrub (DB::VerifyChecksums): bytes walked through               \
     block-trailer / record-framing verification, and corruptions found. */   \
  TICKER(scrub_bytes_verified)                                                \
  TICKER(scrub_corruptions)                                                   \
  /* Sharded facade (DESIGN.md, "Sharding architecture"). Only the facade     \
     increments these; engines never touch them, so shared Statistics are     \
     never double-counted. */                                                 \
  /* WriteBatches that spanned more than one shard. */                        \
  TICKER(cross_shard_batches)                                                 \
  /* Per-shard slices of cross-shard batches logged: one synced, tagged WAL   \
     record each, so a 4-shard batch adds 4. */                               \
  TICKER(shard_prepares)                                                      \
  /* Per-shard slices applied after their batch's commit record was synced;   \
     a 4-shard batch adds 4. */                                               \
  TICKER(shard_commits)                                                       \
  /* Cross-shard batches that did not commit: a slice failed to log, or the   \
     commit record failed to append or sync. */                               \
  TICKER(shard_aborts)

/// Engine-wide counters. Every experiment reads these to report the
/// I/O-shape metrics the tutorial reasons about (superfluous probes saved by
/// filters, compaction traffic, stall time). All tickers are atomics;
/// increments are relaxed.
struct Statistics {
  static constexpr int kMaxStatsLevels = 16;
  using Ticker = std::atomic<uint64_t>;
  using LevelTicker = std::array<Ticker, kMaxStatsLevels>;

#define LSMLAB_TICKER_MEMBER(name) Ticker name{0};
#define LSMLAB_LEVEL_TICKER_MEMBER(name) LevelTicker name{};
  LSMLAB_STATISTICS_TICKERS(LSMLAB_TICKER_MEMBER, LSMLAB_LEVEL_TICKER_MEMBER)
#undef LSMLAB_TICKER_MEMBER
#undef LSMLAB_LEVEL_TICKER_MEMBER

#define LSMLAB_VISIT_TICKER(name) fn(#name, self.name);
#define LSMLAB_SKIP_TICKER(name)
  /// Registry visitors, in list order: fn(name, ticker) for every scalar
  /// ticker, fn(name, slots) for every LevelTicker. `self` is a Statistics
  /// or a const Statistics.
  template <typename Self, typename Fn>
  static void ForEachTicker(Self& self, Fn&& fn) {
    LSMLAB_STATISTICS_TICKERS(LSMLAB_VISIT_TICKER, LSMLAB_SKIP_TICKER)
  }
  template <typename Self, typename Fn>
  static void ForEachLevelTicker(Self& self, Fn&& fn) {
    LSMLAB_STATISTICS_TICKERS(LSMLAB_SKIP_TICKER, LSMLAB_VISIT_TICKER)
  }
#undef LSMLAB_VISIT_TICKER
#undef LSMLAB_SKIP_TICKER

  /// Zeroes every ticker and both histograms. compactions_running is a live
  /// gauge — zeroing it would corrupt the scheduler's accounting — so it is
  /// kept, and the high-water mark restarts at it.
  void Reset() {
    ForEachTicker(*this, [this](const char*, Ticker& t) {
      if (&t != &compactions_running) {
        t = 0;
      }
    });
    ForEachLevelTicker(*this, [](const char*, LevelTicker& slots) {
      for (auto& t : slots) {
        t = 0;
      }
    });
    max_compactions_running = compactions_running.load();
    {
      MutexLock lock(&write_group_size_mu_);
      write_group_size_.Clear();
    }
    {
      MutexLock lock(&compaction_duration_mu_);
      compaction_duration_micros_.Clear();
    }
  }

  /// The statistics dump: every scalar ticker as `name=value`, one per line
  /// in registry order; each LevelTicker's non-zero slots as
  /// `name: L<level>=value ...`; then both histograms.
  std::string ToString() const {
    std::string out;
    ForEachTicker(*this, [&out](const char* name, const Ticker& t) {
      out += std::string(name) + "=" + std::to_string(t.load()) + "\n";
    });
    ForEachLevelTicker(*this, [&out](const char* name,
                                     const LevelTicker& slots) {
      std::string line;
      for (size_t level = 0; level < slots.size(); ++level) {
        if (uint64_t value = slots[level].load(); value != 0) {
          line += " L" + std::to_string(level) + "=" + std::to_string(value);
        }
      }
      if (!line.empty()) {
        out += std::string(name) + ":" + line + "\n";
      }
    });
    out += "write_group_size: " + WriteGroupSizes().ToString() + "\n";
    out += "compaction_duration_micros: " + CompactionDurations().ToString() +
           "\n";
    return out;
  }

  double FilterFalsePositiveRate() const {
    uint64_t checks = filter_checks.load();
    return checks == 0 ? 0.0
                       : static_cast<double>(filter_false_positives.load()) /
                             static_cast<double>(checks);
  }

  /// Records the number of writers coalesced into one group commit.
  void RecordWriteGroupSize(uint64_t writers_in_group)
      EXCLUDES(write_group_size_mu_) {
    MutexLock lock(&write_group_size_mu_);
    write_group_size_.Add(static_cast<double>(writers_in_group));
  }

  /// Snapshot of the group-size distribution (writers per WAL record).
  Histogram WriteGroupSizes() const EXCLUDES(write_group_size_mu_) {
    MutexLock lock(&write_group_size_mu_);
    return write_group_size_;
  }

  /// WAL fsyncs per operation; < 1 under sync writes means fsyncs are being
  /// amortized across group-committed writers.
  double WalSyncsPerWrite() const {
    uint64_t w = writes.load();
    return w == 0 ? 0.0
                  : static_cast<double>(wal_syncs.load()) /
                        static_cast<double>(w);
  }

  /// Credits a finished compaction against its output level's counters.
  void RecordCompactionAtLevel(int output_level, uint64_t bytes_read,
                               uint64_t bytes_written) {
    size_t slot = static_cast<size_t>(
        std::min(std::max(output_level, 0), kMaxStatsLevels - 1));
    compactions_at_level[slot].fetch_add(1, std::memory_order_relaxed);
    compaction_bytes_read_at_level[slot].fetch_add(bytes_read,
                                                   std::memory_order_relaxed);
    compaction_bytes_written_at_level[slot].fetch_add(
        bytes_written, std::memory_order_relaxed);
  }

  /// Marks a compaction admitted; returns nothing but maintains the gauge
  /// and its high-water mark.
  void OnCompactionAdmitted() {
    uint64_t running =
        compactions_running.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t seen = max_compactions_running.load(std::memory_order_relaxed);
    while (running > seen &&
           !max_compactions_running.compare_exchange_weak(
               seen, running, std::memory_order_relaxed)) {
    }
  }

  void OnCompactionFinished() {
    compactions_running.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Records the wall-clock duration of one compaction job.
  void RecordCompactionDuration(uint64_t micros)
      EXCLUDES(compaction_duration_mu_) {
    MutexLock lock(&compaction_duration_mu_);
    compaction_duration_micros_.Add(static_cast<double>(micros));
  }

  /// Snapshot of the per-job compaction duration distribution (micros).
  Histogram CompactionDurations() const EXCLUDES(compaction_duration_mu_) {
    MutexLock lock(&compaction_duration_mu_);
    return compaction_duration_micros_;
  }

 private:
  mutable Mutex write_group_size_mu_{LockRank::kStatistics,
                                     "stats.write_group_size_mu"};
  Histogram write_group_size_ GUARDED_BY(write_group_size_mu_);
  mutable Mutex compaction_duration_mu_{LockRank::kStatistics,
                                        "stats.compaction_duration_mu"};
  Histogram compaction_duration_micros_ GUARDED_BY(compaction_duration_mu_);
};

}  // namespace lsmlab

#endif  // LSMLAB_DB_STATISTICS_H_
