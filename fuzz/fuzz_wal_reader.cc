/// Fuzz harness for the WAL log-record reader plus the recovery-time record
/// dispatch: SplitWalRecord (db/wal_record.h), the one decoder
/// ShardEngine::RecoverLogFile runs on every record, splits off a
/// cross-shard slice's tag, and the batch behind it is parsed and iterated.
/// Invariants: no crash, no unbounded allocation, and every failure
/// surfaces as an error Status (or a Reporter::Corruption callback), never
/// as UB.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>

#include "db/wal_record.h"
#include "db/write_batch.h"
#include "io/env.h"
#include "io/wal_reader.h"
#include "util/slice.h"
#include "util/status.h"

namespace {

using namespace lsmlab;

class BufferSequentialFile final : public SequentialFile {
 public:
  BufferSequentialFile(const uint8_t* data, size_t size)
      : data_(reinterpret_cast<const char*>(data)), size_(size) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    size_t available = size_ - std::min(pos_, size_);
    size_t to_read = std::min(n, available);
    std::memcpy(scratch, data_ + pos_, to_read);
    pos_ += to_read;
    *result = Slice(scratch, to_read);
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    pos_ += static_cast<size_t>(n);
    return Status::OK();
  }

 private:
  const char* const data_;
  const size_t size_;
  size_t pos_ = 0;
};

struct CountingReporter : public wal::Reader::Reporter {
  size_t corruptions = 0;
  void Corruption(size_t, const Status&) override { ++corruptions; }
};

class CountingHandler : public WriteBatch::Handler {
 public:
  void Put(const Slice& k, const Slice& v) override { bytes_ += k.size() + v.size(); }
  void Delete(const Slice& k) override { bytes_ += k.size(); }
  void SingleDelete(const Slice& k) override { bytes_ += k.size(); }
  void Merge(const Slice& k, const Slice& v) override { bytes_ += k.size() + v.size(); }

 private:
  size_t bytes_ = 0;
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  BufferSequentialFile file(data, size);
  CountingReporter reporter;
  wal::Reader reader(&file, &reporter);

  Slice record;
  std::string scratch;
  while (reader.ReadRecord(&record, &scratch)) {
    Slice rep;
    uint64_t cross_shard_id = 0;
    if (!SplitWalRecord(record, &rep, &cross_shard_id)) {
      continue;  // RecoverLogFile reports an unknown tag as corruption.
    }
    // Recovery skips a slice whose batch did not commit; parse every slice
    // here, as if its batch had.
    WriteBatch batch;
    if (!batch.SetRep(rep).ok()) {
      continue;  // Error Status is the expected rejection path.
    }
    CountingHandler handler;
    (void)batch.Iterate(&handler);  // Result may be ok or Corruption.
    (void)batch.Count();
  }
  return 0;
}
