// A8 — Pluggable per-SSTable learned indexes: PLR models vs binary-searched
// fence pointers (DESIGN.md, "Pluggable per-table indexes"; paper §2.1.3's
// index block made pluggable).
//
// Claim: once a table's data blocks are hot in cache, the per-lookup index
// cost is what separates point-read configurations. A fence index pays a
// binary search over per-block separator *strings*; an epsilon-bounded PLR
// model predicts the block with one segment lookup plus a <= (2*eps+3)-wide
// probe over fixed64 digests, and its serialized form is a fraction of the
// fence block's size — the win grows with table size, i.e. with level depth.
//
// Three measurements per emulated level (table sizes chosen like L1/L2/L3
// file budgets), fence vs learned on identical contents:
//   1. Fully-cached random point Gets (wall kops/s) — acceptance wants the
//      learned column >= 10% faster on at least one level.
//   2. Index bytes per entry, from the table's own properties — acceptance
//      wants >= 2x smaller at the bottommost level (hard gate in --smoke).
//   3. Table build time (wall ms) — the price of fitting the model.
//
// Run with --smoke for a seconds-scale CI sanity pass (same code paths;
// the byte gate stays on, the timing cells are informational).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cache/lru_cache.h"
#include "db/dbformat.h"
#include "db/statistics.h"
#include "table/table_builder.h"
#include "table/table_reader.h"

namespace lsmlab::bench {
namespace {

struct Scale {
  std::vector<uint64_t> level_keys;  // Emulated L1..Ln table sizes.
  uint64_t lookups;
};

const Scale kFull = {{8000, 64000, 512000}, 200000};
const Scale kSmoke = {{2000, 8000, 32000}, 20000};

std::string BenchKey(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%012llu",
                static_cast<unsigned long long>(i * 7));
  return buf;
}

struct BuiltTable {
  std::unique_ptr<TableReader> reader;
  uint64_t build_micros = 0;
  // Heap-held: Statistics is all atomics and not movable.
  std::unique_ptr<Statistics> stats = std::make_unique<Statistics>();
};

/// Builds one table of `keys` entries at "/a8.sst" in `env` and opens it
/// against `cache`. The file name is reused: MemEnv hands the old content's
/// buffer to existing readers, so sequential rebuilds are safe.
BuiltTable BuildTable(MemEnv* env, LruCache* cache,
                      const InternalKeyComparator* icmp, uint64_t keys,
                      IndexType index_type) {
  BuiltTable out;
  std::unique_ptr<WritableFile> file;
  BenchCheck(env->NewWritableFile("/a8.sst", &file), "NewWritableFile");

  TableBuilderOptions topt;
  topt.comparator = icmp;
  topt.block_size = 4096;
  topt.index_type = index_type;
  topt.learned_index_epsilon = 8;

  const uint64_t start = SystemClock()->NowMicros();
  TableBuilder builder(topt, file.get());
  std::string ikey;
  const std::string value(64, 'v');
  for (uint64_t i = 0; i < keys; ++i) {
    ikey.clear();
    AppendInternalKey(&ikey, ParsedInternalKey(BenchKey(i), i + 1,
                                               kTypeValue));
    builder.Add(ikey, value);
  }
  BenchCheck(builder.Finish(), "TableBuilder::Finish");
  BenchCheck(file->Close(), "Close");
  out.build_micros = SystemClock()->NowMicros() - start;

  uint64_t size = 0;
  BenchCheck(env->GetFileSize("/a8.sst", &size), "GetFileSize");
  std::unique_ptr<RandomAccessFile> read_file;
  BenchCheck(env->NewRandomAccessFile("/a8.sst", &read_file),
             "NewRandomAccessFile");
  TableReaderOptions ropt;
  ropt.comparator = icmp;
  ropt.block_cache = cache;
  ropt.statistics = out.stats.get();
  BenchCheck(TableReader::Open(ropt, std::move(read_file), size,
                               /*file_number=*/1, &out.reader),
             "TableReader::Open");
  return out;
}

/// Random present-key point lookups with every data block already cached:
/// pure index + in-block search cost.
uint64_t CachedGetMicros(TableReader* reader, uint64_t keys,
                         uint64_t lookups) {
  // Warm the block cache with one full scan.
  {
    auto iter = reader->NewIterator(ReadOptions());
    uint64_t n = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      ++n;
    }
    BenchCheck(iter->status(), "warm scan");
    if (n != keys) {
      BenchCheck(Status::Corruption("warm scan lost entries"), "warm scan");
    }
  }
  Random rnd(0xa8);
  std::string ikey, entry_key, entry_value;
  const uint64_t start = SystemClock()->NowMicros();
  for (uint64_t i = 0; i < lookups; ++i) {
    ikey.clear();
    AppendInternalKey(&ikey,
                      ParsedInternalKey(BenchKey(rnd.Uniform(keys)),
                                        kMaxSequenceNumber, kValueTypeForSeek));
    bool found = false;
    BenchCheck(reader->InternalGet(ReadOptions(), ikey, &found, &entry_key,
                                   &entry_value),
               "InternalGet");
    if (!found) {
      BenchCheck(Status::Corruption("present key not found"), "InternalGet");
    }
  }
  return SystemClock()->NowMicros() - start;
}

void Run(bool smoke) {
  const Scale& scale = smoke ? kSmoke : kFull;
  Banner(
      "A8 — learned per-SSTable indexes (PLR) vs fence pointers",
      "a PLR index answers fully-cached point reads faster than a fence "
      "binary search and serializes >= 2x smaller at the bottom level");

  InternalKeyComparator icmp(BytewiseComparator());
  bool bytes_gate_ok = false;
  double best_speedup = 0.0;

  PrintHeader({"level", "keys", "index", "kops/s", "idx B/entry", "idx bytes",
               "build ms", "hit rate"});
  for (size_t level = 0; level < scale.level_keys.size(); ++level) {
    const uint64_t keys = scale.level_keys[level];
    double kops[2] = {0, 0};
    for (IndexType type :
         {IndexType::kBinarySearchFence, IndexType::kLearnedPLR}) {
      MemEnv env;
      LruCache cache(256 << 20);
      BuiltTable t = BuildTable(&env, &cache, &icmp, keys, type);
      const uint64_t micros =
          CachedGetMicros(t.reader.get(), keys, scale.lookups);
      const TableProperties& props = t.reader->properties();
      const bool learned = type == IndexType::kLearnedPLR;
      const uint64_t index_bytes =
          learned ? props.learned_index_bytes : props.fence_index_bytes;
      kops[learned ? 1 : 0] =
          micros > 0 ? static_cast<double>(scale.lookups) * 1000.0 /
                           static_cast<double>(micros)
                     : 0.0;
      const uint64_t hits = t.stats->learned_index_hits.load();
      const uint64_t falls = t.stats->learned_index_fallbacks.load();
      PrintRow({"L" + std::to_string(level + 1), FmtInt(keys),
                learned ? "learned-plr" : "fence",
                Fmt(kops[learned ? 1 : 0], 1),
                Fmt(static_cast<double>(index_bytes) /
                        static_cast<double>(keys),
                    3),
                FmtInt(index_bytes), Fmt(t.build_micros / 1000.0, 1),
                learned ? Fmt(hits + falls > 0
                                  ? 100.0 * static_cast<double>(hits) /
                                        static_cast<double>(hits + falls)
                                  : 0.0,
                              1) + "%"
                        : "-"});
      if (learned && level + 1 == scale.level_keys.size()) {
        bytes_gate_ok = props.learned_index_bytes * 2 <=
                        props.fence_index_bytes;
      }
    }
    if (kops[0] > 0) {
      best_speedup = std::max(best_speedup, kops[1] / kops[0]);
    }
  }

  std::printf("\nbest learned/fence Get speedup: %.2fx %s\n", best_speedup,
              best_speedup >= 1.10 ? "(meets the >=1.10x gate)"
                                   : "(below the 1.10x gate)");
  std::printf("bottom-level index bytes: %s\n",
              bytes_gate_ok ? "learned <= fence/2 (meets the >=2x gate)"
                            : "BELOW the 2x gate");
  if (smoke && !bytes_gate_ok) {
    // The byte ratio is a deterministic property of the format — a miss is
    // a regression, not noise, so the CI smoke run fails hard on it.
    std::exit(1);
  }
}

}  // namespace
}  // namespace lsmlab::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  lsmlab::bench::Run(smoke);
  return 0;
}
