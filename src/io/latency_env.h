#ifndef LSMLAB_IO_LATENCY_ENV_H_
#define LSMLAB_IO_LATENCY_ENV_H_

#include <cstdint>

#include "io/env.h"
#include "util/clock.h"

namespace lsmlab {

/// Parameters of an emulated storage device. The tutorial's experiments ran
/// on real SSD/HDD testbeds; LatencyEnv substitutes a configurable device
/// model so latency-shaped results (write stalls, SILK tail latencies) are
/// reproducible on any machine.
struct DeviceModel {
  /// Fixed cost per I/O operation (seek/command overhead).
  uint64_t per_op_latency_micros = 100;
  /// Streaming throughput in bytes/sec used to charge transfer time.
  uint64_t bandwidth_bytes_per_sec = 200ull << 20;

  static DeviceModel Ssd() { return DeviceModel{100, 500ull << 20}; }
  static DeviceModel Hdd() { return DeviceModel{8000, 150ull << 20}; }
  static DeviceModel Nvme() { return DeviceModel{20, 2000ull << 20}; }
};

/// Env decorator that charges DeviceModel time for every read/write by
/// sleeping on the provided Clock. Combine with MockClock for deterministic
/// virtual-time experiments, or SystemClock for wall-clock emulation.
class LatencyEnv final : public EnvWrapper {
 public:
  /// Does not take ownership of `base` or `clock`.
  LatencyEnv(Env* base, DeviceModel model, Clock* clock)
      : EnvWrapper(base), model_(model), clock_(clock) {}

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  Status NewRandomRWFile(const std::string& fname,
                         std::unique_ptr<RandomRWFile>* result) override;
  /// Charges the batch like a queued device (NCQ): ONE per-op latency for
  /// the whole submission plus transfer time for the total bytes — the cost
  /// model behind the batched-MultiGet speedup measured in A6. The base env
  /// sees the whole cross-file batch as one submission.
  void MultiRead(ReadRequest* reqs, size_t n) override;

  // Internal: charges `bytes` of transfer plus one op of fixed latency.
  void ChargeIo(uint64_t bytes) const;
  /// One op for a completed batch plus transfer for its successful bytes.
  void ChargeBatch(const ReadRequest* reqs, size_t n) const;

 private:
  const DeviceModel model_;
  Clock* const clock_;
};

}  // namespace lsmlab

#endif  // LSMLAB_IO_LATENCY_ENV_H_
