#ifndef LSMLAB_IO_COUNTING_ENV_H_
#define LSMLAB_IO_COUNTING_ENV_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "io/env.h"

namespace lsmlab {

/// Aggregated I/O counters. The measurement substrate for every experiment:
/// the tutorial's tradeoffs are stated in I/O terms (write amplification,
/// lookup I/Os), which these counters reproduce deterministically.
struct IoStats {
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t syncs = 0;
  uint64_t files_created = 0;
  uint64_t files_removed = 0;
  /// MultiRead submissions (each still counts its requests in read_ops, so
  /// serial/batched runs agree on every counter except this one).
  uint64_t multiread_batches = 0;

  /// Write amplification relative to `user_bytes` of ingested data.
  double WriteAmplification(uint64_t user_bytes) const {
    return user_bytes == 0
               ? 0.0
               : static_cast<double>(bytes_written) /
                     static_cast<double>(user_bytes);
  }
};

/// Env decorator that tallies every I/O passing through it. Thread-safe.
class CountingEnv final : public EnvWrapper {
 public:
  /// Does not take ownership of `base`.
  explicit CountingEnv(Env* base) : EnvWrapper(base) {}

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  Status NewRandomRWFile(const std::string& fname,
                         std::unique_ptr<RandomRWFile>* result) override;
  Status RemoveFile(const std::string& fname) override {
    Status s = EnvWrapper::RemoveFile(fname);
    if (s.ok()) {
      files_removed_.fetch_add(1, std::memory_order_relaxed);
    }
    return s;
  }
  /// Forwards the whole cross-file batch to the base env as one
  /// submission; each request is still tallied in read_ops/bytes_read
  /// exactly as a serial loop would.
  void MultiRead(ReadRequest* reqs, size_t n) override;

  IoStats GetStats() const;
  void ResetStats();

  // Internal: counter taps used by the wrapper file classes.
  void RecordRead(uint64_t bytes) {
    bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
    read_ops_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordWrite(uint64_t bytes) {
    bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
    write_ops_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordSync() { syncs_.fetch_add(1, std::memory_order_relaxed); }
  /// One completed MultiRead submission: every successful request tallies
  /// as a read, the submission as one batch.
  void RecordBatch(const ReadRequest* reqs, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (reqs[i].status.ok()) {
        RecordRead(reqs[i].result.size());
      }
    }
    multiread_batches_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> read_ops_{0};
  std::atomic<uint64_t> write_ops_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> files_created_{0};
  std::atomic<uint64_t> files_removed_{0};
  std::atomic<uint64_t> multiread_batches_{0};
};

}  // namespace lsmlab

#endif  // LSMLAB_IO_COUNTING_ENV_H_
