#include "io/latency_env.h"

namespace lsmlab {

namespace {

class LatencySequentialFile final : public SequentialFileWrapper {
 public:
  LatencySequentialFile(std::unique_ptr<SequentialFile> base,
                        const LatencyEnv* env)
      : SequentialFileWrapper(std::move(base)), env_(env) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    Status s = SequentialFileWrapper::Read(n, result, scratch);
    if (s.ok()) {
      env_->ChargeIo(result->size());
    }
    return s;
  }

 private:
  const LatencyEnv* const env_;
};

class LatencyRandomAccessFile final : public RandomAccessFileWrapper {
 public:
  LatencyRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                          const LatencyEnv* env)
      : RandomAccessFileWrapper(std::move(base)), env_(env) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = RandomAccessFileWrapper::Read(offset, n, result, scratch);
    if (s.ok()) {
      env_->ChargeIo(result->size());
    }
    return s;
  }

  void MultiRead(ReadRequest* reqs, size_t n) const override {
    RandomAccessFileWrapper::MultiRead(reqs, n);
    env_->ChargeBatch(reqs, n);
  }

 private:
  const LatencyEnv* const env_;
};

class LatencyWritableFile final : public WritableFileWrapper {
 public:
  LatencyWritableFile(std::unique_ptr<WritableFile> base,
                      const LatencyEnv* env)
      : WritableFileWrapper(std::move(base)), env_(env) {}

  Status Append(const Slice& data) override {
    Status s = WritableFileWrapper::Append(data);
    if (s.ok()) {
      env_->ChargeIo(data.size());
    }
    return s;
  }
  Status Sync() override {
    Status s = WritableFileWrapper::Sync();
    if (s.ok()) {
      // An fsync costs one device round trip regardless of bytes; this is
      // what group commit amortizes across writers.
      env_->ChargeIo(0);
    }
    return s;
  }

 private:
  const LatencyEnv* const env_;
};

class LatencyRandomRWFile final : public RandomRWFileWrapper {
 public:
  LatencyRandomRWFile(std::unique_ptr<RandomRWFile> base,
                      const LatencyEnv* env)
      : RandomRWFileWrapper(std::move(base)), env_(env) {}

  Status Write(uint64_t offset, const Slice& data) override {
    Status s = RandomRWFileWrapper::Write(offset, data);
    if (s.ok()) {
      env_->ChargeIo(data.size());
    }
    return s;
  }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = RandomRWFileWrapper::Read(offset, n, result, scratch);
    if (s.ok()) {
      env_->ChargeIo(result->size());
    }
    return s;
  }

  Status Sync() override {
    Status s = RandomRWFileWrapper::Sync();
    if (s.ok()) {
      env_->ChargeIo(0);  // One device round trip, as for WritableFile.
    }
    return s;
  }

 private:
  const LatencyEnv* const env_;
};

}  // namespace

Status LatencyEnv::NewRandomRWFile(const std::string& fname,
                                   std::unique_ptr<RandomRWFile>* result) {
  Status s = EnvWrapper::NewRandomRWFile(fname, result);
  if (s.ok()) {
    *result = std::make_unique<LatencyRandomRWFile>(std::move(*result), this);
  }
  return s;
}

void LatencyEnv::MultiRead(ReadRequest* reqs, size_t n) {
  // On the fallback path the file-level wrappers charged per file group.
  if (UnwrapMultiRead<LatencyRandomAccessFile>(reqs, n)) {
    ChargeBatch(reqs, n);
  }
}

void LatencyEnv::ChargeIo(uint64_t bytes) const {
  uint64_t transfer_micros =
      model_.bandwidth_bytes_per_sec == 0
          ? 0
          : bytes * 1000000ull / model_.bandwidth_bytes_per_sec;
  clock_->SleepForMicros(model_.per_op_latency_micros + transfer_micros);
}

void LatencyEnv::ChargeBatch(const ReadRequest* reqs, size_t n) const {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    if (reqs[i].status.ok()) {
      total += reqs[i].result.size();
    }
  }
  ChargeIo(total);
}

Status LatencyEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<SequentialFile>* result) {
  Status s = EnvWrapper::NewSequentialFile(fname, result);
  if (s.ok()) {
    *result = std::make_unique<LatencySequentialFile>(std::move(*result), this);
  }
  return s;
}

Status LatencyEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  Status s = EnvWrapper::NewRandomAccessFile(fname, result);
  if (s.ok()) {
    *result =
        std::make_unique<LatencyRandomAccessFile>(std::move(*result), this);
  }
  return s;
}

Status LatencyEnv::NewWritableFile(const std::string& fname,
                                   std::unique_ptr<WritableFile>* result) {
  Status s = EnvWrapper::NewWritableFile(fname, result);
  if (s.ok()) {
    *result = std::make_unique<LatencyWritableFile>(std::move(*result), this);
  }
  return s;
}

}  // namespace lsmlab
