#ifndef LSMBENCH_RUNNER_H_
#define LSMBENCH_RUNNER_H_

// Runs one workload: a number of rounds, each on a fresh DB in its own
// directory with its own set-up, then a timed closed-loop phase driven by one
// client thread. Collects end-to-end samples and, per round, the engine
// counters of the phase.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "timing_env.h"
#include "util/histogram.h"
#include "util/options.h"
#include "workload.h"

namespace lsmbench {

struct RunConfig {
  WorkloadSpec spec;
  uint64_t seed = 1;
  double seconds = 10;
  /// Parent of the per-round DB directories (created and removed here).
  std::string dir;
  /// Non-null for the traced run: the DB's env becomes a TimingEnv feeding
  /// this tracer, which records only while a phase runs.
  Tracer* tracer = nullptr;
  /// Negative test: corrupts one expectation so the oracle must fail.
  bool break_oracle = false;
};

/// Engine counters of the timed phases, summed over rounds.
struct LayerTotals {
  uint64_t point_lookups = 0, writes = 0;
  uint64_t stall_micros = 0;
  uint64_t flushes = 0, flush_bytes = 0;
  uint64_t filter_checks = 0, filter_false_positives = 0, runs_skipped = 0;
  uint64_t runs_probed = 0, table_cache_hits = 0, table_cache_misses = 0;
  uint64_t learned_hits = 0, learned_fallbacks = 0, index_bytes_loaded = 0;
  uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  uint64_t compactions = 0, compaction_read = 0, compaction_written = 0;
  uint64_t max_compactions_running = 0, entries_dropped = 0;
  uint64_t io_batches = 0, readahead_hits = 0, readahead_misses = 0;
  lsmlab::Histogram compaction_micros;
  // Gauges read at each phase end, summed over rounds.
  uint64_t rounds = 0;
  uint64_t cache_usage_bytes = 0, sorted_runs = 0, sst_bytes = 0;
};

/// Latencies of one op type, pooled over every phase of a run: a log-linear
/// histogram with 512 buckets per power of two (0.2% resolution), so the
/// percentiles of millions of samples take constant memory.
class LatencyHistogram {
 public:
  void Add(uint64_t ns) { ++counts_[Bucket(ns)]; ++total_; }
  /// Nearest-rank percentile in microseconds: the midpoint of the bucket
  /// holding the sample of that rank; 0 without samples.
  double PercentileMicros(double p) const;

 private:
  static constexpr int kSubBits = 9;
  static size_t Bucket(uint64_t ns);

  std::vector<uint64_t> counts_ = std::vector<uint64_t>(size_t{64 - kSubBits + 1} << kSubBits);
  uint64_t total_ = 0;
};

/// End-to-end figures of one round.
struct RoundFigures {
  double setup_s = 0;
  double write_amp = 0;  // (WAL + flush + compaction bytes) / user bytes.
  double space_amp = 0;  // DB directory bytes / live user bytes, at the end.
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // The first few, for the log.
  std::array<uint64_t, kNumOpTypes> executed{};  // Ops by OpType.
  /// Throughput of each slice of every phase: the slice's ops over the time
  /// from its first op through WaitForBackgroundWork after its last, so
  /// background work is charged to the slice that caused it.
  std::vector<double> slice_ops_per_s;
  std::array<LatencyHistogram, kNumOpTypes> latency;  // By OpType.
  std::vector<RoundFigures> rounds;
  /// Process RSS high-water above its level just before the first open.
  double peak_rss_bytes = 0;
  LayerTotals layer;
};

/// The benchmark's fixed configuration: engine defaults except a 10
/// bits/key Bloom filter (none by default) and two background threads, so a
/// flush never queues behind a compaction.
lsmlab::Options BenchOptions(Env* env);

/// Runs every round of `config`. Returns non-OK only when the run could not
/// be carried out (e.g. the DB failed to open or set up); wrong answers are
/// counted in RunResult::failed instead.
Status RunWorkload(const RunConfig& config, RunResult* result);

}  // namespace lsmbench

#endif  // LSMBENCH_RUNNER_H_
