// A6 — Batched I/O: one submission per MultiGet round instead of one
// blocking pread per block.
//
// Claim: a queued device (NCQ/io_uring) charges a batch of k reads roughly
// one fixed op cost plus the total transfer, where a serial loop pays the
// fixed cost k times. Routing MultiGet's cold data-block reads through
// Env::MultiRead therefore speeds up batched point lookups by multiples on
// op-latency-bound devices, and iterator readahead turns a scan's one-pread-
// per-block pattern into a few large reads.
//
// Two measurements, in deterministic virtual time (LatencyEnv over
// MockClock, SSD model):
//   1. Cold-cache MultiGet in 16-key batches against a Get loop over the
//      same keys — the acceptance gate is >= 1.5x.
//   2. Cold full scan, readahead on vs off, plus a warm-cache scan pair
//      (wall time) to show readahead costs ~nothing once blocks are cached.
//
// Run with --smoke for a seconds-scale CI sanity pass (same code paths).

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "db/statistics.h"
#include "io/latency_env.h"
#include "util/random.h"

namespace lsmlab::bench {
namespace {

struct Scale {
  uint64_t keys;
  uint64_t batches;  // MultiGet batches per configuration.
};

constexpr Scale kFull = {20000, 400};
constexpr Scale kSmoke = {4000, 50};
constexpr size_t kBatchKeys = 16;

/// DB over MemEnv -> LatencyEnv(SSD, MockClock): I/O cost is virtual and
/// exactly reproducible.
struct LatencyStack {
  MemEnv mem;
  MockClock clock;
  LatencyEnv env{&mem, DeviceModel::Ssd(), &clock};
  std::unique_ptr<DB> db;

  void OpenAndLoad(const Scale& scale) {
    Options options = SmallTreeOptions();
    options.env = &env;
    BenchCheck(DB::Open(options, "/a6", &db), "Open");
    WriteOptions wo;
    for (uint64_t i = 0; i < scale.keys; ++i) {
      BenchCheck(db->Put(wo, WorkloadGenerator::FormatKey(i),
                         std::string(100, 'v')),
                 "Put");
    }
    BenchCheck(db->Flush(), "Flush");
    BenchCheck(db->WaitForBackgroundWork(), "WaitForBackgroundWork");
  }

  /// Drops the block cache (it lives in the DB handle) without touching the
  /// on-"disk" state.
  void ReopenCold() {
    db.reset();
    Options options = SmallTreeOptions();
    options.env = &env;
    BenchCheck(DB::Open(options, "/a6", &db), "Reopen");
  }
};

struct MultiGetResult {
  uint64_t virtual_micros = 0;
  uint64_t io_batches = 0;
  uint64_t io_batch_reads = 0;
};

/// Looks up the cold-cache batches through MultiGet, or through a Get loop
/// over the same keys: one blocking device read per block, the baseline.
MultiGetResult RunLookups(const Scale& scale, bool multiget) {
  LatencyStack stack;
  stack.OpenAndLoad(scale);
  stack.ReopenCold();

  ReadOptions ro;
  ro.fill_cache = false;  // Keep every batch cold: this is the device story.
  Random rnd(0xa6);
  MultiGetResult r;
  std::vector<std::string> values;
  const uint64_t start = stack.clock.NowMicros();
  for (uint64_t b = 0; b < scale.batches; ++b) {
    std::vector<std::string> key_storage;
    for (size_t k = 0; k < kBatchKeys; ++k) {
      key_storage.push_back(
          WorkloadGenerator::FormatKey(rnd.Uniform(scale.keys)));
    }
    if (!multiget) {
      std::string value;
      for (const std::string& key : key_storage) {
        BenchCheck(stack.db->Get(ro, key, &value), "Get");
      }
      continue;
    }
    std::vector<Slice> keys(key_storage.begin(), key_storage.end());
    std::vector<Status> statuses = stack.db->MultiGet(ro, keys, &values);
    for (const Status& s : statuses) {
      BenchCheck(s, "MultiGet");
    }
  }
  r.virtual_micros = stack.clock.NowMicros() - start;
  r.io_batches = stack.db->statistics()->io_batches.load();
  r.io_batch_reads = stack.db->statistics()->io_batch_reads.load();
  return r;
}

void RunMultiGetExperiment(const Scale& scale) {
  std::printf("\ncold-cache MultiGet, %llu batches x %zu keys "
              "(virtual SSD time)\n",
              static_cast<unsigned long long>(scale.batches), kBatchKeys);
  MultiGetResult get_loop = RunLookups(scale, /*multiget=*/false);
  MultiGetResult multiget = RunLookups(scale, /*multiget=*/true);

  const double speedup = static_cast<double>(get_loop.virtual_micros) /
                         static_cast<double>(multiget.virtual_micros > 0
                                                 ? multiget.virtual_micros
                                                 : 1);
  PrintHeader({"mode", "virtual ms", "us/batch", "io_batches",
               "reads/batch"});
  PrintRow({"Get loop", Fmt(get_loop.virtual_micros / 1000.0, 1),
            Fmt(static_cast<double>(get_loop.virtual_micros) / scale.batches, 1),
            FmtInt(get_loop.io_batches), "-"});
  PrintRow({"MultiGet", Fmt(multiget.virtual_micros / 1000.0, 1),
            Fmt(static_cast<double>(multiget.virtual_micros) / scale.batches,
                1),
            FmtInt(multiget.io_batches),
            Fmt(multiget.io_batches > 0
                    ? static_cast<double>(multiget.io_batch_reads) /
                          static_cast<double>(multiget.io_batches)
                    : 0.0,
                1)});
  std::printf("MultiGet speedup: %.2fx %s\n", speedup,
              speedup >= 1.5 ? "(meets the >=1.5x gate)"
                             : "(BELOW the 1.5x gate)");
}

uint64_t ScanVirtualMicros(LatencyStack* stack, size_t readahead_bytes) {
  ReadOptions ro;
  ro.readahead_bytes = readahead_bytes;
  ro.fill_cache = false;
  const uint64_t start = stack->clock.NowMicros();
  auto iter = stack->db->NewIterator(ro);
  uint64_t entries = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ++entries;
  }
  BenchCheck(iter->status(), "scan");
  if (entries == 0) {
    BenchCheck(Status::Corruption("empty scan"), "scan");
  }
  return stack->clock.NowMicros() - start;
}

uint64_t ScanWallMicros(DB* db, size_t readahead_bytes) {
  ReadOptions ro;
  ro.readahead_bytes = readahead_bytes;
  const uint64_t start = SystemClock()->NowMicros();
  auto iter = db->NewIterator(ro);
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
  }
  BenchCheck(iter->status(), "scan");
  return SystemClock()->NowMicros() - start;
}

void RunScanExperiment(const Scale& scale) {
  std::printf("\nfull scan over %llu keys\n",
              static_cast<unsigned long long>(scale.keys));

  LatencyStack stack;
  stack.OpenAndLoad(scale);
  stack.ReopenCold();
  const uint64_t cold_off = ScanVirtualMicros(&stack, 0);
  stack.ReopenCold();
  const uint64_t cold_on = ScanVirtualMicros(&stack, 256 << 10);
  const uint64_t hits = stack.db->statistics()->readahead_hits.load();
  const uint64_t misses = stack.db->statistics()->readahead_misses.load();

  // Warm the cache, then compare wall time with the buffer in play vs not:
  // the lazy readahead file is only created on an uncached block load, so a
  // cached scan must not regress.
  MemEnv mem;
  std::unique_ptr<DB> db;
  {
    Options options = SmallTreeOptions();
    options.env = &mem;
    BenchCheck(DB::Open(options, "/a6w", &db), "Open");
    WriteOptions wo;
    for (uint64_t i = 0; i < scale.keys; ++i) {
      BenchCheck(db->Put(wo, WorkloadGenerator::FormatKey(i),
                         std::string(100, 'v')),
                 "Put");
    }
    BenchCheck(db->Flush(), "Flush");
    BenchCheck(db->WaitForBackgroundWork(), "WaitForBackgroundWork");
  }
  (void)ScanWallMicros(db.get(), 0);  // Warm the block cache.
  const uint64_t warm_off = ScanWallMicros(db.get(), 0);
  const uint64_t warm_on = ScanWallMicros(db.get(), 256 << 10);

  PrintHeader({"scan", "readahead off", "readahead on", "ratio"});
  PrintRow({"cold (virtual ms)", Fmt(cold_off / 1000.0, 1),
            Fmt(cold_on / 1000.0, 1),
            Fmt(static_cast<double>(cold_off) /
                    static_cast<double>(cold_on > 0 ? cold_on : 1),
                2) + "x faster"});
  PrintRow({"warm cache (wall ms)", Fmt(warm_off / 1000.0, 2),
            Fmt(warm_on / 1000.0, 2),
            Fmt(static_cast<double>(warm_on) /
                    static_cast<double>(warm_off > 0 ? warm_off : 1),
                2) + "x"});
  std::printf("cold-scan readahead buffer: %llu hits / %llu misses\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses));
}

void Run(const Scale& scale) {
  Banner("A6 — batched I/O: MultiRead submission vs one pread per block",
         "a queued device charges a batch one op cost + total transfer; the "
         "serial loop pays the op cost per read");
  RunMultiGetExperiment(scale);
  RunScanExperiment(scale);
}

}  // namespace
}  // namespace lsmlab::bench

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  lsmlab::bench::Run(smoke ? lsmlab::bench::kSmoke : lsmlab::bench::kFull);
  return 0;
}
