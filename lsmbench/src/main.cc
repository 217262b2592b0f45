// lsmbench: the lsmlab benchmark binary.
//
//   lsmbench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR
//            [--git-sha SHA] [--spans-out FILE] [--smoke] [--break-oracle]
//
// Runs one workload against the public DB API and prints a machine note,
// every metric by name with its unit, and as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the workload untraced and then traced
// and reports the per-layer metrics. Exits 1 if any answer was wrong, 2 if
// the run could not be carried out.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "io/env.h"
#include "runner.h"
#include "timing_env.h"
#include "workload.h"

namespace lsmbench {
namespace {

#ifndef LSMBENCH_BUILD_TYPE
#define LSMBENCH_BUILD_TYPE "unknown"
#endif
#if defined(LSMLAB_LOCK_RANK_CHECKS)
constexpr bool kLockRankCompiledIn = true;
#else
constexpr bool kLockRankCompiledIn = false;
#endif

constexpr size_t kMaxSpans = size_t{1} << 20;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string dir;
  std::string git_sha = "unknown";
  std::string spans_out;
  bool smoke = false;
  bool break_oracle = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "lsmbench: %s\nusage: lsmbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --dir DIR [--git-sha SHA] [--spans-out FILE] "
               "[--smoke] [--break-oracle]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (flag == "--break-oracle") {
      args.break_oracle = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || args.dir.empty() || args.seconds <= 0 ||
      (args.trace != 0 && args.trace != 1)) {
    Usage("--workload, --dir, --seconds > 0 and --trace 0|1 are required");
  }
  return args;
}

// Wall time of a fixed spin loop run on `threads` threads at once: on a box
// with P usable cores it stays flat up to P threads, then grows linearly.
double SpinMillis(int threads) {
  std::atomic<uint64_t> sink{0};
  int64_t start = NowNanos();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&sink, t] {
      uint64_t x = static_cast<uint64_t>(t) + 1;
      for (int i = 0; i < 30000000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
      }
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  return static_cast<double>(NowNanos() - start) * 1e-6;
}

void PrintMachineNote(const Args& args, const WorkloadSpec& spec) {
  const char* backend = std::getenv("LSMLAB_IO_BACKEND");
  std::printf("# lsmbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              spec.name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, args.smoke ? " (smoke size)" : "");
  std::printf("# git sha: %s\n", args.git_sha.c_str());
  std::printf("# build: %s, lock-rank validator %s\n", LSMBENCH_BUILD_TYPE,
              kLockRankCompiledIn ? "compiled in" : "compiled out");
  const lsmlab::Options options = BenchOptions(nullptr);
  std::printf("# design point: %s, %u-byte values, 1 client thread and %d background "
              "threads sharing one CPU\n",
              options.DesignPointLabel().c_str(), static_cast<unsigned>(kValueSize),
              options.background_threads);
  std::printf("# MultiRead backend: io_uring %s, LSMLAB_IO_BACKEND=%s\n",
              lsmlab::IoUringAvailable() ? "available" : "unavailable",
              backend != nullptr ? backend : "(unset)");
  std::printf("# nproc: %ld, spin 1/2/4 threads: %.0f/%.0f/%.0f ms\n",
              sysconf(_SC_NPROCESSORS_ONLN), SpinMillis(1), SpinMillis(2),
              SpinMillis(4));
  std::fflush(stdout);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Median over rounds of one round figure.
template <typename Field>
double MedianOverRounds(const RunResult& r, Field field) {
  std::vector<double> values;
  for (const RoundFigures& f : r.rounds) {
    values.push_back(field(f));
  }
  return Median(values);
}

// Interquartile mean of the slice speeds: the mean of the middle half.
// Slices on a shared box fall into a fast and a slow speed mode, and the
// median of such a mix jumps between the modes from run to run; the mean of
// the middle half moves far less and still ignores outlying slices.
double OpsPerSecond(const RunResult& r) {
  std::vector<double> v = r.slice_ops_per_s;
  std::sort(v.begin(), v.end());
  size_t drop = v.size() / 4;
  double sum = 0;
  for (size_t i = drop; i < v.size() - drop; ++i) {
    sum += v[i];
  }
  return v.empty() ? 0 : sum / static_cast<double>(v.size() - 2 * drop);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Percentile(const RunResult& r, OpType type, double p) {
  return r.latency[static_cast<size_t>(type)].PercentileMicros(p);
}

// Latency percentiles pool every sample of the run. The bounded tail is p95:
// on a shared box the run-to-run spread of p99 reaches the widest bound a
// metric may have, while p95 moves no more than p50. p99 is printed only.
std::vector<Metric> EndToEndMetrics(const RunResult& r) {
  return {
      {"ops_per_s", OpsPerSecond(r), "ops/s"},
      {"get_p50_us", Percentile(r, OpType::kGet, 50), "us"},
      {"get_p95_us", Percentile(r, OpType::kGet, 95), "us"},
      {"multiget_p50_us", Percentile(r, OpType::kMultiGet, 50), "us"},
      {"multiget_p95_us", Percentile(r, OpType::kMultiGet, 95), "us"},
      {"scan_p50_us", Percentile(r, OpType::kScan, 50), "us"},
      {"scan_p95_us", Percentile(r, OpType::kScan, 95), "us"},
      {"put_p50_us", Percentile(r, OpType::kPut, 50), "us"},
      {"put_p95_us", Percentile(r, OpType::kPut, 95), "us"},
      {"write_amp", MedianOverRounds(r, [](const RoundFigures& f) { return f.write_amp; }), "x"},
      {"space_amp", MedianOverRounds(r, [](const RoundFigures& f) { return f.space_amp; }), "x"},
      {"peak_rss_mb", r.peak_rss_bytes / kMiB, "MiB"},
      {"setup_s", MedianOverRounds(r, [](const RoundFigures& f) { return f.setup_s; }), "s"},
  };
}

std::vector<Metric> PerLayerMetrics(const RunResult& r, const Tracer& t,
                                    double untraced_ops_per_s) {
  const LayerTotals& l = r.layer;
  const double lookups = static_cast<double>(l.point_lookups);
  // Mean over rounds of a gauge read at each phase end.
  auto per_round = [&](uint64_t sum) {
    return Ratio(static_cast<double>(sum), static_cast<double>(l.rounds));
  };
  auto self_us = [&](OpType type, double per) {
    const OpTally& o = t.Ops(type);
    return Ratio(static_cast<double>(o.ns - o.child_ns) / 1000.0,
                 static_cast<double>(o.ops) * per);
  };
  const OpTally& gets = t.Ops(OpType::kGet);
  const OpTally& multigets = t.Ops(OpType::kMultiGet);
  IoTally fg_read = t.Io(Role::kFg, FileKind::kSst, IoCall::kRead);
  IoTally fg_multiread = t.Io(Role::kFg, IoCall::kMultiRead);
  IoTally wal_append = t.Io(Role::kFg, FileKind::kWal, IoCall::kAppend);
  IoTally bg_write = t.Io(Role::kBg, IoCall::kAppend);
  IoTally bg_read = t.Io(Role::kBg, IoCall::kRead);
  IoTally bg_multiread = t.Io(Role::kBg, IoCall::kMultiRead);
  IoTally fg_sync = t.Io(Role::kFg, IoCall::kSync);
  IoTally bg_sync = t.Io(Role::kBg, IoCall::kSync);
  const double puts = static_cast<double>(r.executed[static_cast<size_t>(OpType::kPut)]);
  const lsmlab::Histogram& jobs = l.compaction_micros;
  return {
      {"db.get.self_us", self_us(OpType::kGet, 1), "us"},
      {"db.multiget.self_us_per_key", self_us(OpType::kMultiGet, kMultiGetKeys), "us"},
      {"db.scan.self_us", self_us(OpType::kScan, 1), "us"},
      {"db.put.self_us", self_us(OpType::kPut, 1), "us"},
      {"db.stall_us_per_put", Ratio(static_cast<double>(l.stall_micros),
                                    static_cast<double>(l.writes)), "us"},
      {"memtable.flushes", static_cast<double>(l.flushes), "count"},
      {"memtable.flush_mb", static_cast<double>(l.flush_bytes) / kMiB, "MiB"},
      {"filter.checks_per_get", Ratio(static_cast<double>(l.filter_checks), lookups), "count/get"},
      {"filter.false_positive_rate", Ratio(static_cast<double>(l.filter_false_positives),
                                           static_cast<double>(l.filter_checks)), "ratio"},
      {"filter.runs_skipped_per_get", Ratio(static_cast<double>(l.runs_skipped), lookups), "count/get"},
      {"table.runs_probed_per_get", Ratio(static_cast<double>(l.runs_probed), lookups), "count/get"},
      {"table.table_cache_miss_ratio",
       Ratio(static_cast<double>(l.table_cache_misses),
             static_cast<double>(l.table_cache_hits + l.table_cache_misses)), "ratio"},
      {"table.learned_index_hit_ratio",
       Ratio(static_cast<double>(l.learned_hits),
             static_cast<double>(l.learned_hits + l.learned_fallbacks)), "ratio"},
      {"table.index_bytes_loaded_mb", static_cast<double>(l.index_bytes_loaded) / kMiB, "MiB"},
      {"cache.hit_ratio", Ratio(static_cast<double>(l.cache_hits),
                                static_cast<double>(l.cache_hits + l.cache_misses)), "ratio"},
      {"cache.misses_per_get", Ratio(static_cast<double>(l.cache_misses), lookups), "count/get"},
      {"cache.evictions_per_kop", Ratio(1000.0 * static_cast<double>(l.cache_evictions),
                                        static_cast<double>(r.attempted)), "count/kop"},
      {"cache.usage_mb", per_round(l.cache_usage_bytes) / kMiB, "MiB"},
      {"compaction.jobs", static_cast<double>(l.compactions), "count"},
      {"compaction.read_mb", static_cast<double>(l.compaction_read) / kMiB, "MiB"},
      {"compaction.write_mb", static_cast<double>(l.compaction_written) / kMiB, "MiB"},
      {"compaction.busy_s", jobs.Average() * static_cast<double>(jobs.num()) * 1e-6, "s"},
      {"compaction.job_p99_ms", jobs.num() == 0 ? 0 : jobs.Percentile(99) / 1000.0, "ms"},
      {"compaction.max_running", static_cast<double>(l.max_compactions_running), "count"},
      {"compaction.entries_dropped", static_cast<double>(l.entries_dropped), "count"},
      {"version.sorted_runs", per_round(l.sorted_runs), "count"},
      {"version.sst_mb", per_round(l.sst_bytes) / kMiB, "MiB"},
      {"io.fg.read_ops_per_get",
       Ratio(static_cast<double>(gets.child_reads + multigets.child_reads), lookups), "count/get"},
      {"io.fg.read_us_per_op", Ratio(static_cast<double>(fg_read.ns) / 1000.0,
                                     static_cast<double>(fg_read.calls)), "us"},
      {"io.fg.multiread_batches", static_cast<double>(fg_multiread.calls), "count"},
      {"io.fg.multiread_reqs_per_batch", Ratio(static_cast<double>(fg_multiread.requests),
                                               static_cast<double>(fg_multiread.calls)), "count"},
      {"io.fg.multiread_us_per_batch", Ratio(static_cast<double>(fg_multiread.ns) / 1000.0,
                                             static_cast<double>(fg_multiread.calls)), "us"},
      {"io.wal.append_us_per_put", Ratio(static_cast<double>(wal_append.ns) / 1000.0, puts), "us"},
      {"io.wal.bytes_per_put", Ratio(static_cast<double>(wal_append.bytes), puts), "bytes"},
      {"io.bg.write_mb", static_cast<double>(bg_write.bytes) / kMiB, "MiB"},
      {"io.bg.write_s", static_cast<double>(bg_write.ns) * 1e-9, "s"},
      {"io.bg.read_mb", static_cast<double>(bg_read.bytes + bg_multiread.bytes) / kMiB, "MiB"},
      {"io.bg.read_s", static_cast<double>(bg_read.ns + bg_multiread.ns) * 1e-9, "s"},
      {"io.sync.count", static_cast<double>(fg_sync.calls + bg_sync.calls), "count"},
      {"io.sync.ms", static_cast<double>(fg_sync.ns + bg_sync.ns) * 1e-6, "ms"},
      {"io.readahead_hit_ratio", Ratio(static_cast<double>(l.readahead_hits),
                                       static_cast<double>(l.readahead_hits + l.readahead_misses)),
       "ratio"},
      {"trace.overhead_pct",
       100.0 * Ratio(untraced_ops_per_s - OpsPerSecond(r), untraced_ops_per_s), "%"},
  };
}

// Shortest decimal that reads back as the same double.
std::string Number(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void PrintResult(const std::vector<Metric>& metrics, bool correct,
                 uint64_t attempted, uint64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %16s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

Status Run(const Args& args, const WorkloadSpec& spec, Tracer* tracer,
           RunResult* result) {
  RunConfig config;
  config.spec = spec;
  config.seed = args.seed;
  config.seconds = args.seconds;
  config.dir = args.dir;
  config.tracer = tracer;
  config.break_oracle = args.break_oracle;
  Status s = RunWorkload(config, result);
  for (const std::string& f : result->failures) {
    std::printf("# WRONG ANSWER: %s\n", f.c_str());
  }
  return s;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) {
    Usage(("unknown workload " + args.workload).c_str());
  }
  if (std::strcmp(LSMBENCH_BUILD_TYPE, "Release") != 0 || kLockRankCompiledIn) {
    std::fprintf(stderr,
                 "lsmbench: refusing to report: build type %s, lock-rank "
                 "validator %s (need Release with the validator compiled out)\n",
                 LSMBENCH_BUILD_TYPE, kLockRankCompiledIn ? "compiled in" : "out");
    return 2;
  }
  const WorkloadSpec spec = args.smoke ? SmokeVariant(*found) : *found;
  PrintMachineNote(args, spec);

  RunResult untraced;
  Status s = Run(args, spec, nullptr, &untraced);
  if (!s.ok()) {
    std::fprintf(stderr, "lsmbench: run failed: %s\n", s.ToString().c_str());
    return 2;
  }
  bool correct = untraced.failed == 0;
  const auto& n = untraced.executed;
  std::printf("# %zu rounds, %zu slices; samples: get %llu, multiget %llu, scan %llu, put %llu\n",
              untraced.rounds.size(), untraced.slice_ops_per_s.size(),
              static_cast<unsigned long long>(n[0]), static_cast<unsigned long long>(n[1]),
              static_cast<unsigned long long>(n[2]), static_cast<unsigned long long>(n[3]));
  std::printf("# ops attempted %llu, wrong answers %llu, error_rate %s\n",
              static_cast<unsigned long long>(untraced.attempted),
              static_cast<unsigned long long>(untraced.failed),
              Number(Ratio(static_cast<double>(untraced.failed),
                           static_cast<double>(untraced.attempted))).c_str());
  std::printf("# p99 (printed only): get %s, multiget %s, scan %s, put %s us\n",
              Number(Percentile(untraced, OpType::kGet, 99)).c_str(),
              Number(Percentile(untraced, OpType::kMultiGet, 99)).c_str(),
              Number(Percentile(untraced, OpType::kScan, 99)).c_str(),
              Number(Percentile(untraced, OpType::kPut, 99)).c_str());
  if (args.trace == 0) {
    PrintResult(EndToEndMetrics(untraced), correct, untraced.attempted,
                untraced.failed);
    return correct ? 0 : 1;
  }

  Tracer tracer(kMaxSpans);
  RunResult traced;
  s = Run(args, spec, &tracer, &traced);
  if (!s.ok()) {
    std::fprintf(stderr, "lsmbench: traced run failed: %s\n", s.ToString().c_str());
    return 2;
  }
  correct = correct && traced.failed == 0;
  // The traced env must hand the engine's batches to the base env intact:
  // one env-level MultiRead per engine submission.
  uint64_t env_batches = tracer.Io(Role::kFg, IoCall::kMultiRead).calls;
  std::printf("# fidelity: io.fg.multiread_batches=%llu statistics.io_batches=%llu\n",
              static_cast<unsigned long long>(env_batches),
              static_cast<unsigned long long>(traced.layer.io_batches));
  if (env_batches != traced.layer.io_batches) {
    std::printf("# FIDELITY MISMATCH: the traced env changed the batched read path\n");
    correct = false;
  }
  if (!args.spans_out.empty()) {
    s = tracer.WriteSpans(args.spans_out);
    std::printf("# spans: %s (%zu dropped past the cap) %s\n", args.spans_out.c_str(),
                tracer.dropped_spans(), s.ok() ? "" : s.ToString().c_str());
  }
  PrintResult(PerLayerMetrics(traced, tracer, OpsPerSecond(untraced)), correct,
              untraced.attempted + traced.attempted, untraced.failed + traced.failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lsmbench

int main(int argc, char** argv) { return lsmbench::Main(argc, argv); }
