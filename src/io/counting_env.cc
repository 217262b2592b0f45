#include "io/counting_env.h"

namespace lsmlab {

namespace {

class CountingSequentialFile final : public SequentialFileWrapper {
 public:
  CountingSequentialFile(std::unique_ptr<SequentialFile> base,
                         CountingEnv* env)
      : SequentialFileWrapper(std::move(base)), env_(env) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    Status s = SequentialFileWrapper::Read(n, result, scratch);
    if (s.ok()) {
      env_->RecordRead(result->size());
    }
    return s;
  }

 private:
  CountingEnv* const env_;
};

class CountingRandomAccessFile final : public RandomAccessFileWrapper {
 public:
  CountingRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                           CountingEnv* env)
      : RandomAccessFileWrapper(std::move(base)), env_(env) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = RandomAccessFileWrapper::Read(offset, n, result, scratch);
    if (s.ok()) {
      env_->RecordRead(result->size());
    }
    return s;
  }

  void MultiRead(ReadRequest* reqs, size_t n) const override {
    RandomAccessFileWrapper::MultiRead(reqs, n);
    env_->RecordBatch(reqs, n);
  }

 private:
  CountingEnv* const env_;
};

class CountingWritableFile final : public WritableFileWrapper {
 public:
  CountingWritableFile(std::unique_ptr<WritableFile> base, CountingEnv* env)
      : WritableFileWrapper(std::move(base)), env_(env) {}

  Status Append(const Slice& data) override {
    Status s = WritableFileWrapper::Append(data);
    if (s.ok()) {
      env_->RecordWrite(data.size());
    }
    return s;
  }
  Status Sync() override {
    env_->RecordSync();
    return WritableFileWrapper::Sync();
  }

 private:
  CountingEnv* const env_;
};

class CountingRandomRWFile final : public RandomRWFileWrapper {
 public:
  CountingRandomRWFile(std::unique_ptr<RandomRWFile> base, CountingEnv* env)
      : RandomRWFileWrapper(std::move(base)), env_(env) {}

  Status Write(uint64_t offset, const Slice& data) override {
    Status s = RandomRWFileWrapper::Write(offset, data);
    if (s.ok()) {
      env_->RecordWrite(data.size());
    }
    return s;
  }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = RandomRWFileWrapper::Read(offset, n, result, scratch);
    if (s.ok()) {
      env_->RecordRead(result->size());
    }
    return s;
  }

  Status Sync() override {
    env_->RecordSync();
    return RandomRWFileWrapper::Sync();
  }

 private:
  CountingEnv* const env_;
};

}  // namespace

Status CountingEnv::NewRandomRWFile(const std::string& fname,
                                    std::unique_ptr<RandomRWFile>* result) {
  Status s = EnvWrapper::NewRandomRWFile(fname, result);
  if (s.ok()) {
    *result = std::make_unique<CountingRandomRWFile>(std::move(*result), this);
  }
  return s;
}

Status CountingEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<SequentialFile>* result) {
  Status s = EnvWrapper::NewSequentialFile(fname, result);
  if (s.ok()) {
    *result =
        std::make_unique<CountingSequentialFile>(std::move(*result), this);
  }
  return s;
}

Status CountingEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  Status s = EnvWrapper::NewRandomAccessFile(fname, result);
  if (s.ok()) {
    *result =
        std::make_unique<CountingRandomAccessFile>(std::move(*result), this);
  }
  return s;
}

Status CountingEnv::NewWritableFile(const std::string& fname,
                                    std::unique_ptr<WritableFile>* result) {
  Status s = EnvWrapper::NewWritableFile(fname, result);
  if (s.ok()) {
    files_created_.fetch_add(1, std::memory_order_relaxed);
    *result = std::make_unique<CountingWritableFile>(std::move(*result), this);
  }
  return s;
}

void CountingEnv::MultiRead(ReadRequest* reqs, size_t n) {
  // On the fallback path the file-level wrappers did the counting.
  if (UnwrapMultiRead<CountingRandomAccessFile>(reqs, n)) {
    RecordBatch(reqs, n);
  }
}

IoStats CountingEnv::GetStats() const {
  IoStats stats;
  stats.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  stats.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  stats.read_ops = read_ops_.load(std::memory_order_relaxed);
  stats.write_ops = write_ops_.load(std::memory_order_relaxed);
  stats.syncs = syncs_.load(std::memory_order_relaxed);
  stats.files_created = files_created_.load(std::memory_order_relaxed);
  stats.files_removed = files_removed_.load(std::memory_order_relaxed);
  stats.multiread_batches = multiread_batches_.load(std::memory_order_relaxed);
  return stats;
}

void CountingEnv::ResetStats() {
  bytes_read_.store(0, std::memory_order_relaxed);
  bytes_written_.store(0, std::memory_order_relaxed);
  read_ops_.store(0, std::memory_order_relaxed);
  write_ops_.store(0, std::memory_order_relaxed);
  syncs_.store(0, std::memory_order_relaxed);
  files_created_.store(0, std::memory_order_relaxed);
  files_removed_.store(0, std::memory_order_relaxed);
  multiread_batches_.store(0, std::memory_order_relaxed);
}

}  // namespace lsmlab
