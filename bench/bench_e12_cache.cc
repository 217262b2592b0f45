// E12 — Block cache sizing and compaction-induced eviction (tutorial
// §2.1.3).
//
// Claim: hit ratio grows with cache size under skew; compactions invalidate
// cached blocks of their input files, knocking the hit ratio down right
// after they run; Leaper-style re-warming of compaction outputs restores it.

#include "bench/bench_util.h"

namespace lsmlab::bench {
namespace {

constexpr uint64_t kNumKeys = 60000;
constexpr uint64_t kReadsPerPhase = 15000;

struct Row {
  double hit_ratio_before;
  double hit_ratio_after;   // Right after a full compaction.
  double read_ios_after;
};

Row RunOne(size_t cache_bytes, bool rewarm) {
  TestStack stack;
  Options options = SmallTreeOptions();
  options.block_cache_capacity = cache_bytes;
  options.cache_rewarm_after_compaction = rewarm;
  options.enable_wal = false;
  Status s = stack.Open(options);
  if (!s.ok()) {
    std::fprintf(stderr, "open: %s\n", s.ToString().c_str());
    return {};
  }

  WorkloadGenerator value_maker(WorkloadSpec::WriteOnly(1));
  WriteOptions wo;
  for (uint64_t i = 0; i < kNumKeys; ++i) {
    std::string key = WorkloadGenerator::FormatKey(i);
    BenchCheck(stack.db->Put(wo, key, value_maker.MakeValue(key, 100)), "Put");
  }
  BenchCheck(stack.db->WaitForBackgroundWork(), "WaitForBackgroundWork");

  // Phase 1: zipfian reads warm the cache; measure steady-state hits.
  ZipfianGenerator zipf(kNumKeys, 0.99, 11);
  ReadOptions ro;
  std::string value;
  for (uint64_t i = 0; i < kReadsPerPhase; ++i) {
    BenchGet(stack.db.get(), ro, WorkloadGenerator::FormatKey(zipf.Next()), &value);
  }
  stack.db->block_cache()->ResetStats();
  for (uint64_t i = 0; i < kReadsPerPhase; ++i) {
    BenchGet(stack.db.get(), ro, WorkloadGenerator::FormatKey(zipf.Next()), &value);
  }
  Row row;
  row.hit_ratio_before = stack.db->block_cache()->GetStats().HitRatio();

  // Phase 2: rewrite a third of the keys and force a full compaction: the
  // hot blocks belong to deleted input files afterwards.
  for (uint64_t i = 0; i < kNumKeys; i += 3) {
    std::string key = WorkloadGenerator::FormatKey(i);
    BenchCheck(stack.db->Put(wo, key, value_maker.MakeValue(key, 100)), "Put");
  }
  BenchCheck(stack.db->CompactRange(), "CompactRange");

  stack.db->block_cache()->ResetStats();
  stack.env->ResetStats();
  for (uint64_t i = 0; i < kReadsPerPhase; ++i) {
    BenchGet(stack.db.get(), ro, WorkloadGenerator::FormatKey(zipf.Next()), &value);
  }
  row.hit_ratio_after = stack.db->block_cache()->GetStats().HitRatio();
  row.read_ios_after = static_cast<double>(stack.env->GetStats().read_ops) /
                       static_cast<double>(kReadsPerPhase);
  return row;
}

/// Runs the table; returns false when the shape gate fails.
bool Run() {
  Banner("E12: block cache size and compaction-induced eviction",
         "compactions evict hot blocks with their input files; re-warming "
         "outputs (Leaper-style) restores the hit ratio (tutorial §2.1.3)");

  PrintHeader({"cache size", "re-warm", "hit ratio (steady)",
               "hit ratio (post-compaction)", "read I/O post"});
  constexpr size_t kGatedCache = size_t{4} << 20;  // Holds the hot set.
  double gated_after[2] = {0, 0};  // Indexed by re-warm.
  for (size_t cache : {size_t{256} << 10, size_t{1} << 20, kGatedCache}) {
    for (bool rewarm : {false, true}) {
      Row row = RunOne(cache, rewarm);
      PrintRow({FmtInt(cache >> 10) + " KiB", rewarm ? "yes" : "no",
                Fmt(row.hit_ratio_before, 3), Fmt(row.hit_ratio_after, 3),
                Fmt(row.read_ios_after, 3)});
      if (cache == kGatedCache) {
        gated_after[rewarm] = row.hit_ratio_after;
      }
    }
  }
  std::printf(
      "\nshape check: hit ratio rises with cache size; the post-compaction "
      "column drops vs steady state without re-warm and recovers with it.\n");
  // The gate: where the cache holds the hot set, re-warming the outputs of
  // CompactRange() must lift the post-compaction hit ratio.
  const double gain = gated_after[1] - gated_after[0];
  const bool holds = gain >= 0.01;
  std::printf("shape gate (4 MiB, re-warm minus no re-warm >= 0.010): %.3f %s\n",
              gain, holds ? "HOLDS" : "FAILS");
  return holds;
}

}  // namespace
}  // namespace lsmlab::bench

int main() { return lsmlab::bench::Run() ? 0 : 1; }
