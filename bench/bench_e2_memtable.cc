// E2 — Memtable (buffer) implementations (tutorial §2.2.1).
//
// Claim: a vector buffer has the highest insert throughput for write-only
// workloads, but collapses under interleaved reads (each read re-sorts);
// a skip list balances both. Hashed reps excel at point reads and pay on
// ordered scans. Uses google-benchmark timing over the raw MemTableRep.

#include <benchmark/benchmark.h>

#include "db/dbformat.h"
#include "memtable/memtable.h"
#include "util/comparator.h"
#include "util/random.h"
#include "workload/workload.h"

namespace lsmlab {
namespace {

MemTableRepType RepFor(int64_t index) {
  switch (index) {
    case 0:
      return MemTableRepType::kSkipList;
    case 1:
      return MemTableRepType::kVector;
    case 2:
      return MemTableRepType::kHashSkipList;
    default:
      return MemTableRepType::kHashLinkList;
  }
}

// The default write buffer, which sizes each memtable's key filter.
const size_t kWriteBufferSize = Options().write_buffer_size;

const char* RepName(int64_t index) {
  return MemTableRepTypeName(RepFor(index));
}

/// Write-only fill: the vector rep should dominate here.
void BM_MemTableFillSequentialWrites(benchmark::State& state) {
  const MemTableRepType rep = RepFor(state.range(0));
  InternalKeyComparator icmp(BytewiseComparator());
  for (auto _ : state) {
    MemTable table(&icmp, rep, 4096, kWriteBufferSize);
    SequenceNumber seq = 1;
    for (int i = 0; i < 20000; ++i) {
      table.Add(seq++, kTypeValue, WorkloadGenerator::FormatKey(
                                       static_cast<uint64_t>(i)),
                "value-payload-100-bytes");
    }
    benchmark::DoNotOptimize(table.Count());
  }
  state.SetLabel(RepName(state.range(0)));
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_MemTableFillSequentialWrites)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

/// Interleaved get/put: the tutorial's "mixed workload" case where the
/// vector rep degrades (it re-sorts on every read after a write).
void BM_MemTableMixedReadWrite(benchmark::State& state) {
  const MemTableRepType rep = RepFor(state.range(0));
  InternalKeyComparator icmp(BytewiseComparator());
  for (auto _ : state) {
    MemTable table(&icmp, rep, 4096, kWriteBufferSize);
    Random rnd(7);
    SequenceNumber seq = 1;
    Slice value;
    ValueType type;
    for (int i = 0; i < 4000; ++i) {
      std::string key = WorkloadGenerator::FormatKey(rnd.Uniform(4000));
      table.Add(seq++, kTypeValue, key, "v");
      // One read per write: worst case for sort-on-read reps.
      LookupKey lkey(WorkloadGenerator::FormatKey(rnd.Uniform(4000)),
                     kMaxSequenceNumber);
      benchmark::DoNotOptimize(table.Get(lkey, &value, &type));
    }
  }
  state.SetLabel(RepName(state.range(0)));
  state.SetItemsProcessed(state.iterations() * 8000);
}
BENCHMARK(BM_MemTableMixedReadWrite)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

/// Point-read-only over a filled buffer: hashed reps shine.
void BM_MemTablePointReads(benchmark::State& state) {
  const MemTableRepType rep = RepFor(state.range(0));
  InternalKeyComparator icmp(BytewiseComparator());
  MemTable table(&icmp, rep, 4096, kWriteBufferSize);
  SequenceNumber seq = 1;
  for (int i = 0; i < 20000; ++i) {
    table.Add(seq++, kTypeValue,
              WorkloadGenerator::FormatKey(static_cast<uint64_t>(i)), "v");
  }
  Random rnd(13);
  Slice value;
  ValueType type;
  for (auto _ : state) {
    LookupKey lkey(WorkloadGenerator::FormatKey(rnd.Uniform(20000)),
                   kMaxSequenceNumber);
    benchmark::DoNotOptimize(table.Get(lkey, &value, &type));
  }
  state.SetLabel(RepName(state.range(0)));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTablePointReads)->DenseRange(0, 3);

/// Full ordered scan (what a flush does): hashed reps pay a sort. The scan
/// reads every entry's key and value, as a flush does.
void BM_MemTableOrderedScan(benchmark::State& state) {
  const MemTableRepType rep = RepFor(state.range(0));
  InternalKeyComparator icmp(BytewiseComparator());
  MemTable table(&icmp, rep, 4096, kWriteBufferSize);
  SequenceNumber seq = 1;
  Random rnd(3);
  for (int i = 0; i < 20000; ++i) {
    table.Add(seq++, kTypeValue,
              WorkloadGenerator::FormatKey(rnd.Uniform(10000000)), "v");
  }
  for (auto _ : state) {
    auto iter = table.NewIterator();
    uint64_t bytes = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      bytes += iter->key().size() + iter->value().size();
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetLabel(RepName(state.range(0)));
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_MemTableOrderedScan)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lsmlab

BENCHMARK_MAIN();
