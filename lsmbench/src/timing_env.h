#ifndef LSMBENCH_TIMING_ENV_H_
#define LSMBENCH_TIMING_ENV_H_

// The traced run's span recorder and the Env decorator that feeds it. Spans
// come from two places only: the client loop brackets every API call, and
// TimingEnv times every file call the engine makes. A file call on the
// client thread inside an API call is that call's child; any other thread's
// call is background ("bg") work.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/env.h"
#include "workload.h"

namespace lsmbench {

using lsmlab::Env;
using lsmlab::ReadRequest;
using lsmlab::Status;

enum class FileKind : uint8_t { kWal, kSst, kManifest, kOther };
constexpr int kNumFileKinds = 4;
enum class IoCall : uint8_t { kRead, kMultiRead, kAppend, kSync, kOpen, kRemove };
constexpr int kNumIoCalls = 6;
enum class Role : uint8_t { kFg, kBg };
constexpr int kNumRoles = 2;

FileKind KindOfFile(const std::string& fname);

/// Totals of one (role, file kind, call) cell.
struct IoTally {
  uint64_t calls = 0;
  uint64_t ns = 0;
  uint64_t bytes = 0;
  uint64_t requests = 0;  // MultiRead: reads carried; otherwise == calls.
};

/// Per API-call-type totals of the client's op spans.
struct OpTally {
  uint64_t ops = 0;
  uint64_t ns = 0;
  uint64_t child_ns = 0;     // Client-thread file calls inside the op.
  uint64_t child_reads = 0;  // Reads (MultiRead requests count singly).
};

class Tracer {
 public:
  /// Keeps at most `max_spans` spans for the trace file; totals are exact
  /// regardless.
  explicit Tracer(size_t max_spans);

  /// Marks the calling thread as the client: its file calls are "fg".
  static void MarkClientThread();

  /// Spans and totals are recorded only while recording is on (the timed
  /// phases), so set-up and teardown I/O stay out of the per-layer figures.
  void set_recording(bool on) { recording_.store(on, std::memory_order_relaxed); }

  /// Brackets one API call on the client thread.
  void BeginOp();
  void EndOp(OpType type, int64_t start_ns, int64_t end_ns);

  /// Called by TimingEnv around every file call.
  void RecordIo(FileKind kind, IoCall call, int64_t start_ns, int64_t end_ns,
                uint64_t bytes, uint64_t requests);

  IoTally Io(Role role, FileKind kind, IoCall call) const;
  /// Sum over file kinds.
  IoTally Io(Role role, IoCall call) const;
  const OpTally& Ops(OpType type) const { return ops_[static_cast<int>(type)]; }

  /// Writes the kept spans as tab-separated text.
  Status WriteSpans(const std::string& path) const;
  size_t dropped_spans() const;

 private:
  struct Span {
    int64_t start_ns;
    int64_t end_ns;
    uint64_t op_id;  // The op itself for op spans; the parent op for io.
    uint64_t bytes;
    uint16_t thread;
    bool is_op;
    uint8_t name;  // OpType for op spans, IoCall otherwise.
    FileKind kind;
  };
  struct Cell {
    std::atomic<uint64_t> calls{0}, ns{0}, bytes{0}, requests{0};
  };

  void Keep(const Span& span);

  const size_t max_spans_;
  std::atomic<bool> recording_{false};
  std::array<Cell, kNumRoles * kNumFileKinds * kNumIoCalls> cells_;
  std::array<OpTally, kNumOpTypes> ops_{};  // Client thread only.
  uint64_t next_op_id_ = 1;                 // Client thread only.

  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
  size_t dropped_ = 0;       // Guarded by mu_.
};

/// Env decorator timing every file call into a Tracer. MultiRead reaches the
/// base env as the same single cross-file batch the engine submitted, so a
/// traced run keeps the batched read path it measures.
class TimingEnv final : public Env {
 public:
  /// Takes ownership of neither.
  TimingEnv(Env* base, Tracer* tracer) : base_(base), tracer_(tracer) {}

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<lsmlab::SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<lsmlab::RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<lsmlab::WritableFile>* result) override;
  /// Untimed: only the B+-tree baseline uses read-write files.
  Status NewRandomRWFile(const std::string& fname,
                         std::unique_ptr<lsmlab::RandomRWFile>* result) override {
    return base_->NewRandomRWFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override;
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src, const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  Status LinkFile(const std::string& src, const std::string& target) override {
    return base_->LinkFile(src, target);
  }
  void MultiRead(ReadRequest* reqs, size_t n) override;

 private:
  Env* const base_;
  Tracer* const tracer_;
};

/// Nanoseconds on the steady clock.
int64_t NowNanos();

}  // namespace lsmbench

#endif  // LSMBENCH_TIMING_ENV_H_
