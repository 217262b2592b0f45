// A7 — Shard scaling: one writer queue per shard instead of one per DB.
//
// Claim: the single-engine write path serializes every writer through one
// queue (one WAL tail, one memtable arena, one big mutex). Range-sharding
// the DB into N independent ShardEngine cores gives concurrent writers N
// disjoint queues, so threads whose keys land in different shards stop
// contending; the N = 1 configuration must stay free (it bypasses every
// cross-shard code path). Cross-shard atomic batches pay for their commit
// — one synced slice per involved shard plus a synced commit record —
// which this bench prices explicitly, together with what single-shard
// writers on the involved shards pay: they queue behind the whole commit.
//
// Three measurements over the real filesystem (PosixEnv, /tmp):
//   1. Concurrent fill: 64 client threads of scrambled-Zipfian puts
//      (theta 0.99, the YCSB default) at N in {1, 2, 4, 8}; ops/s per
//      configuration, N = 1 is the baseline.
//   2. Concurrent scrambled-Zipfian point reads over the filled DB,
//      same sweep.
//   3. Cross-shard commit overhead: single-shard batches vs 4-shard
//      batches at N = 4, same total operation count, with the slice and
//      commit stats printed; then the 4-shard batches again with one
//      single-shard writer per shard running beside them, and the mean
//      latency of those writers' puts.
//
// Run with --smoke for a seconds-scale CI sanity pass (same code paths).

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "db/statistics.h"
#include "util/random.h"

namespace lsmlab::bench {
namespace {

struct Scale {
  uint64_t keys;           // Key-space size (and fill operations).
  uint64_t reads;          // Point reads in the read phase.
  uint64_t batches;        // Atomic batches in the cross-shard phase.
  int threads;
};

constexpr Scale kFull = {120000, 120000, 8000, 64};
constexpr Scale kSmoke = {8000, 8000, 400, 8};
constexpr int kShardCounts[] = {1, 2, 4, 8};
constexpr double kZipfTheta = 0.99;

/// YCSB-style scrambled Zipfian: ZipfianGenerator returns popularity
/// *ranks* (hot = 0, 1, 2, ...); hashing the rank spreads the hot set over
/// the whole key space so skew stresses every shard, not just shard 0.
uint64_t ScrambleRank(uint64_t rank, uint64_t keys) {
  return (rank * 0x9e3779b97f4a7c15ull) % keys;
}

std::string BenchDir(const char* tag) {
  return "/tmp/lsmlab_bench_a7_" + std::to_string(::getpid()) + "_" + tag;
}

/// Opens a fresh N-shard DB under /tmp with splits at the key-space
/// quantiles, so a uniform workload spreads evenly across shards.
std::unique_ptr<DB> OpenSharded(const std::string& dir, int num_shards,
                                uint64_t keys) {
  Options options = SmallTreeOptions();
  options.write_buffer_size = 256 << 10;
  options.env = Env::Default();
  options.num_shards = num_shards;
  for (int k = 1; k < num_shards; ++k) {
    options.shard_split_keys.push_back(
        WorkloadGenerator::FormatKey(keys * k / num_shards));
  }
  std::unique_ptr<DB> db;
  BenchCheck(DestroyDB(options, dir), "DestroyDB");
  BenchCheck(DB::Open(options, dir, &db), "Open");
  return db;
}

/// Runs `fn(thread_index)` on `threads` threads and returns wall micros for
/// the slowest one (they start together).
uint64_t RunThreads(int threads, const std::function<void(int)>& fn) {
  const uint64_t start = SystemClock()->NowMicros();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back(fn, t);
  }
  for (auto& th : pool) {
    th.join();
  }
  return SystemClock()->NowMicros() - start;
}

void RunScalingSweep(const Scale& scale) {
  std::printf("\nconcurrent fill + point reads, %d threads, %llu keys, "
              "scrambled Zipf(%.2f) (wall time, PosixEnv)\n",
              scale.threads, static_cast<unsigned long long>(scale.keys),
              kZipfTheta);
  PrintHeader({"shards", "fill ops/s", "fill vs N=1", "read ops/s",
               "read vs N=1"});

  double fill_base = 0, read_base = 0;
  for (int n : kShardCounts) {
    const std::string dir = BenchDir("sweep");
    std::unique_ptr<DB> db = OpenSharded(dir, n, scale.keys);

    const uint64_t per_thread = scale.keys / scale.threads;
    const uint64_t fill_micros = RunThreads(scale.threads, [&](int t) {
      WriteOptions wo;
      ZipfianGenerator zipf(scale.keys, kZipfTheta, 0xa700 + t);
      for (uint64_t i = 0; i < per_thread; ++i) {
        const std::string key = WorkloadGenerator::FormatKey(
            ScrambleRank(zipf.Next(), scale.keys));
        BenchCheck(db->Put(wo, key, std::string(100, 'v')), "Put");
      }
    });
    BenchCheck(db->WaitForBackgroundWork(), "WaitForBackgroundWork");

    const uint64_t reads_per_thread = scale.reads / scale.threads;
    const uint64_t read_micros = RunThreads(scale.threads, [&](int t) {
      ReadOptions ro;
      ZipfianGenerator zipf(scale.keys, kZipfTheta, 0xa7f0 + t);
      std::string value;
      for (uint64_t i = 0; i < reads_per_thread; ++i) {
        BenchGet(db.get(), ro,
                 WorkloadGenerator::FormatKey(
                     ScrambleRank(zipf.Next(), scale.keys)),
                 &value);
      }
    });

    const double fill_ops =
        1e6 * static_cast<double>(per_thread * scale.threads) /
        static_cast<double>(fill_micros > 0 ? fill_micros : 1);
    const double read_ops =
        1e6 * static_cast<double>(reads_per_thread * scale.threads) /
        static_cast<double>(read_micros > 0 ? read_micros : 1);
    if (n == 1) {
      fill_base = fill_ops;
      read_base = read_ops;
    }
    PrintRow({FmtInt(n), FmtInt(static_cast<uint64_t>(fill_ops)),
              Fmt(fill_ops / fill_base, 2) + "x",
              FmtInt(static_cast<uint64_t>(read_ops)),
              Fmt(read_ops / read_base, 2) + "x"});

    db.reset();
    Options cleanup;
    cleanup.env = Env::Default();
    BenchCheck(DestroyDB(cleanup, dir), "DestroyDB");
  }
}

void RunCrossShardOverhead(const Scale& scale) {
  std::printf("\ncross-shard commit overhead at N=4: %llu atomic batches "
              "of 4 puts, single-shard vs cross-shard, then cross-shard "
              "with a single-shard writer per shard beside it (wall time)\n",
              static_cast<unsigned long long>(scale.batches));

  const std::string dir = BenchDir("2pc");
  std::unique_ptr<DB> db = OpenSharded(dir, 4, scale.keys);
  WriteOptions wo;
  const uint64_t quarter = scale.keys / 4;

  PrintHeader({"batch shape", "wall ms", "us/batch", "slices", "commits",
               "beside us/put"});
  enum Shape { kSingle, kCross, kCrossBeside };
  for (const Shape shape : {kSingle, kCross, kCrossBeside}) {
    const bool cross = shape != kSingle;
    const uint64_t p0 = db->statistics()->shard_prepares.load();
    const uint64_t c0 = db->statistics()->shard_commits.load();
    // kCrossBeside: one unsynced single-shard writer per shard, each a
    // closed loop of 100-byte puts until the batches are done.
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> beside_puts{0};
    std::atomic<uint64_t> beside_micros{0};
    std::vector<std::thread> beside;
    if (shape == kCrossBeside) {
      for (int k = 0; k < 4; ++k) {
        beside.emplace_back([&, k] {
          Random rnd(0xa7b0 + k);
          uint64_t puts = 0;
          const uint64_t start = SystemClock()->NowMicros();
          while (!stop.load(std::memory_order_relaxed)) {
            BenchCheck(db->Put(wo,
                               WorkloadGenerator::FormatKey(
                                   quarter * k + rnd.Uniform(quarter)),
                               std::string(100, 's')),
                       "Put");
            ++puts;
          }
          beside_micros.fetch_add(SystemClock()->NowMicros() - start);
          beside_puts.fetch_add(puts);
        });
      }
    }
    Random rnd(cross ? 0xa72c : 0xa721);
    const uint64_t start = SystemClock()->NowMicros();
    for (uint64_t b = 0; b < scale.batches; ++b) {
      WriteBatch batch;
      for (int i = 0; i < 4; ++i) {
        // Cross: one key per shard. Single: all four in shard 0's range.
        const uint64_t base = cross ? quarter * i : 0;
        batch.Put(WorkloadGenerator::FormatKey(base + rnd.Uniform(quarter)),
                  std::string(100, 'b'));
      }
      BenchCheck(db->Write(wo, &batch), "Write");
    }
    const uint64_t wall = SystemClock()->NowMicros() - start;
    stop.store(true);
    for (auto& th : beside) {
      th.join();
    }
    // Each writer's elapsed time over its puts is its mean put latency;
    // summed over the writers, the mean across them.
    const std::string beside_us =
        beside_puts.load() > 0
            ? Fmt(static_cast<double>(beside_micros.load()) /
                      static_cast<double>(beside_puts.load()),
                  1)
            : "-";
    PrintRow({shape == kSingle  ? "single-shard"
              : shape == kCross ? "cross-shard (4 shards)"
                                : "cross-shard + 4 writers beside",
              Fmt(wall / 1000.0, 1),
              Fmt(static_cast<double>(wall) / scale.batches, 1),
              FmtInt(db->statistics()->shard_prepares.load() - p0),
              FmtInt(db->statistics()->shard_commits.load() - c0),
              beside_us});
  }
  std::printf("cross_shard_batches: %llu\n",
              static_cast<unsigned long long>(
                  db->statistics()->cross_shard_batches.load()));

  db.reset();
  Options cleanup;
  cleanup.env = Env::Default();
  BenchCheck(DestroyDB(cleanup, dir), "DestroyDB");
}

void Run(const Scale& scale) {
  Banner("A7 — shard scaling: N writer queues instead of one",
         "threads whose keys land in different shards stop contending on "
         "one WAL tail/memtable; N=1 stays the flat single-engine path");
  std::printf("hardware threads: %u\n",
              std::thread::hardware_concurrency());
  RunScalingSweep(scale);
  RunCrossShardOverhead(scale);
}

}  // namespace
}  // namespace lsmlab::bench

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  lsmlab::bench::Run(smoke ? lsmlab::bench::kSmoke : lsmlab::bench::kFull);
  return 0;
}
