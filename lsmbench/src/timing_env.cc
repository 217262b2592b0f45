#include "timing_env.h"

#include <chrono>
#include <cstdio>

namespace lsmbench {

using lsmlab::RandomAccessFile;
using lsmlab::SequentialFile;
using lsmlab::WritableFile;

namespace {

thread_local bool t_client = false;
thread_local uint64_t t_op_id = 0;  // Open API call on this thread, or 0.
thread_local uint64_t t_child_ns = 0;
thread_local uint64_t t_child_reads = 0;

uint16_t ThreadTag() {
  static std::atomic<uint16_t> next{0};
  thread_local uint16_t tag = next.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

const char* const kKindNames[kNumFileKinds] = {"wal", "sst", "manifest", "other"};
const char* const kCallNames[kNumIoCalls] = {"read", "multiread", "append",
                                             "sync", "open", "remove"};

int CellIndex(Role role, FileKind kind, IoCall call) {
  return (static_cast<int>(role) * kNumFileKinds + static_cast<int>(kind)) *
             kNumIoCalls +
         static_cast<int>(call);
}

// Times one file call into `tracer`; `bytes_of` reads the byte count off the
// call's result.
template <typename Call, typename Bytes>
auto Timed(Tracer* tracer, FileKind kind, IoCall call, Call&& fn, Bytes&& bytes_of) {
  int64_t start = NowNanos();
  auto result = fn();
  tracer->RecordIo(kind, call, start, NowNanos(), bytes_of(result), 1);
  return result;
}

auto NoBytes = [](const Status&) -> uint64_t { return 0; };

class TimedSequentialFile final : public SequentialFile {
 public:
  TimedSequentialFile(std::unique_ptr<SequentialFile> base, FileKind kind,
                      Tracer* tracer)
      : base_(std::move(base)), kind_(kind), tracer_(tracer) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    return Timed(
        tracer_, kind_, IoCall::kRead,
        [&] { return base_->Read(n, result, scratch); },
        [&](const Status&) -> uint64_t { return result->size(); });
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<SequentialFile> base_;
  const FileKind kind_;
  Tracer* const tracer_;
};

class TimedRandomAccessFile final : public RandomAccessFile {
 public:
  TimedRandomAccessFile(std::unique_ptr<RandomAccessFile> base, FileKind kind,
                        Tracer* tracer)
      : base_(std::move(base)), kind_(kind), tracer_(tracer) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    return Timed(
        tracer_, kind_, IoCall::kRead,
        [&] { return base_->Read(offset, n, result, scratch); },
        [&](const Status&) -> uint64_t { return result->size(); });
  }

  void MultiRead(ReadRequest* reqs, size_t n) const override {
    int64_t start = NowNanos();
    base_->MultiRead(reqs, n);
    uint64_t bytes = 0;
    for (size_t i = 0; i < n; ++i) {
      bytes += reqs[i].result.size();
    }
    tracer_->RecordIo(kind_, IoCall::kMultiRead, start, NowNanos(), bytes, n);
  }

  RandomAccessFile* target() const { return base_.get(); }
  FileKind kind() const { return kind_; }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  const FileKind kind_;
  Tracer* const tracer_;
};

class TimedWritableFile final : public WritableFile {
 public:
  TimedWritableFile(std::unique_ptr<WritableFile> base, FileKind kind,
                    Tracer* tracer)
      : base_(std::move(base)), kind_(kind), tracer_(tracer) {}

  Status Append(const Slice& data) override {
    return Timed(
        tracer_, kind_, IoCall::kAppend, [&] { return base_->Append(data); },
        [&](const Status&) -> uint64_t { return data.size(); });
  }
  Status Close() override { return base_->Close(); }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    return Timed(tracer_, kind_, IoCall::kSync, [&] { return base_->Sync(); },
                 NoBytes);
  }

 private:
  std::unique_ptr<WritableFile> base_;
  const FileKind kind_;
  Tracer* const tracer_;
};

// Opens a file through `open` (a base-env call), timing it, and wraps it.
template <typename Wrapper, typename File, typename Open>
Status OpenTimed(Tracer* tracer, const std::string& fname,
                 std::unique_ptr<File>* result, Open&& open) {
  FileKind kind = KindOfFile(fname);
  std::unique_ptr<File> base;
  Status s = Timed(tracer, kind, IoCall::kOpen, [&] { return open(&base); },
                   NoBytes);
  if (s.ok()) {
    *result = std::make_unique<Wrapper>(std::move(base), kind, tracer);
  }
  return s;
}

}  // namespace

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

FileKind KindOfFile(const std::string& fname) {
  size_t slash = fname.find_last_of('/');
  std::string base = slash == std::string::npos ? fname : fname.substr(slash + 1);
  auto ends_with = [&](const char* suffix) {
    size_t n = std::char_traits<char>::length(suffix);
    return base.size() >= n && base.compare(base.size() - n, n, suffix) == 0;
  };
  if (ends_with(".log")) {
    return FileKind::kWal;
  }
  if (ends_with(".sst")) {
    return FileKind::kSst;
  }
  if (base.rfind("MANIFEST-", 0) == 0) {
    return FileKind::kManifest;
  }
  return FileKind::kOther;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer(size_t max_spans) : max_spans_(max_spans) {
  spans_.reserve(max_spans);
}

void Tracer::MarkClientThread() { t_client = true; }

void Tracer::BeginOp() {
  t_op_id = next_op_id_++;
  t_child_ns = 0;
  t_child_reads = 0;
}

void Tracer::EndOp(OpType type, int64_t start_ns, int64_t end_ns) {
  OpTally& tally = ops_[static_cast<int>(type)];
  ++tally.ops;
  tally.ns += static_cast<uint64_t>(end_ns - start_ns);
  tally.child_ns += t_child_ns;
  tally.child_reads += t_child_reads;
  Keep(Span{start_ns, end_ns, t_op_id, 0, ThreadTag(), true,
            static_cast<uint8_t>(type), FileKind::kOther});
  t_op_id = 0;
}

void Tracer::RecordIo(FileKind kind, IoCall call, int64_t start_ns,
                      int64_t end_ns, uint64_t bytes, uint64_t requests) {
  if (!recording_.load(std::memory_order_relaxed)) {
    return;
  }
  uint64_t ns = static_cast<uint64_t>(end_ns - start_ns);
  Role role = t_client ? Role::kFg : Role::kBg;
  Cell& cell = cells_[static_cast<size_t>(CellIndex(role, kind, call))];
  cell.calls.fetch_add(1, std::memory_order_relaxed);
  cell.ns.fetch_add(ns, std::memory_order_relaxed);
  cell.bytes.fetch_add(bytes, std::memory_order_relaxed);
  cell.requests.fetch_add(requests, std::memory_order_relaxed);
  if (t_client && t_op_id != 0) {
    t_child_ns += ns;
    if (call == IoCall::kRead || call == IoCall::kMultiRead) {
      t_child_reads += requests;
    }
  }
  Keep(Span{start_ns, end_ns, t_client ? t_op_id : 0, bytes, ThreadTag(), false,
            static_cast<uint8_t>(call), kind});
}

void Tracer::Keep(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() < max_spans_) {
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
}

IoTally Tracer::Io(Role role, FileKind kind, IoCall call) const {
  const Cell& cell = cells_[static_cast<size_t>(CellIndex(role, kind, call))];
  IoTally t;
  t.calls = cell.calls.load(std::memory_order_relaxed);
  t.ns = cell.ns.load(std::memory_order_relaxed);
  t.bytes = cell.bytes.load(std::memory_order_relaxed);
  t.requests = cell.requests.load(std::memory_order_relaxed);
  return t;
}

IoTally Tracer::Io(Role role, IoCall call) const {
  IoTally sum;
  for (int k = 0; k < kNumFileKinds; ++k) {
    IoTally t = Io(role, static_cast<FileKind>(k), call);
    sum.calls += t.calls;
    sum.ns += t.ns;
    sum.bytes += t.bytes;
    sum.requests += t.requests;
  }
  return sum;
}

size_t Tracer::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

Status Tracer::WriteSpans(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot write " + path);
  }
  std::fprintf(f, "op_id\tthread\tkind\tname\tstart_ns\tend_ns\tbytes\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%llu\t%u\t%s\t%s\t%lld\t%lld\t%llu\n",
                 static_cast<unsigned long long>(s.op_id), s.thread,
                 s.is_op ? "op" : kKindNames[static_cast<int>(s.kind)],
                 s.is_op ? OpName(static_cast<OpType>(s.name)) : kCallNames[s.name],
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.bytes));
  }
  bool ok = std::fclose(f) == 0;
  return ok ? Status::OK() : Status::IOError("cannot write " + path);
}

// ---------------------------------------------------------------------------
// TimingEnv
// ---------------------------------------------------------------------------

Status TimingEnv::NewSequentialFile(const std::string& fname,
                                    std::unique_ptr<SequentialFile>* result) {
  return OpenTimed<TimedSequentialFile>(tracer_, fname, result, [&](auto* f) {
    return base_->NewSequentialFile(fname, f);
  });
}

Status TimingEnv::NewRandomAccessFile(const std::string& fname,
                                      std::unique_ptr<RandomAccessFile>* result) {
  return OpenTimed<TimedRandomAccessFile>(tracer_, fname, result, [&](auto* f) {
    return base_->NewRandomAccessFile(fname, f);
  });
}

Status TimingEnv::NewWritableFile(const std::string& fname,
                                  std::unique_ptr<WritableFile>* result) {
  return OpenTimed<TimedWritableFile>(tracer_, fname, result, [&](auto* f) {
    return base_->NewWritableFile(fname, f);
  });
}

Status TimingEnv::RemoveFile(const std::string& fname) {
  return Timed(tracer_, KindOfFile(fname), IoCall::kRemove,
               [&] { return base_->RemoveFile(fname); }, NoBytes);
}

void TimingEnv::MultiRead(ReadRequest* reqs, size_t n) {
  // Hand the base env the engine's batch unchanged except for each file,
  // swapped for the wrapped target, so it stays one cross-file submission
  // (one io_uring_enter where available). A file not opened through this
  // env takes the default per-file grouping, timed by the file wrappers.
  std::vector<ReadRequest> shadow(reqs, reqs + n);
  FileKind kind = FileKind::kSst;
  for (size_t i = 0; i < n; ++i) {
    auto* timed = dynamic_cast<TimedRandomAccessFile*>(reqs[i].file);
    if (timed == nullptr) {
      Env::MultiRead(reqs, n);
      return;
    }
    shadow[i].file = timed->target();
    kind = timed->kind();
  }
  int64_t start = NowNanos();
  base_->MultiRead(shadow.data(), n);
  int64_t end = NowNanos();
  uint64_t bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    reqs[i].result = shadow[i].result;
    reqs[i].status = shadow[i].status;
    bytes += reqs[i].result.size();
  }
  tracer_->RecordIo(kind, IoCall::kMultiRead, start, end, bytes, n);
}

}  // namespace lsmbench
