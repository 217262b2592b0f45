#ifndef LSMLAB_IO_ENV_H_
#define LSMLAB_IO_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace lsmlab {

/// A file opened for sequential reading (WAL/manifest replay).
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;

  /// Reads up to `n` bytes. `*result` points into `scratch`, which must have
  /// at least `n` bytes. A short read signals EOF.
  virtual Status Read(size_t n, Slice* result, char* scratch) = 0;
  virtual Status Skip(uint64_t n) = 0;
};

class RandomAccessFile;

/// One positional read in a batch — the submission/completion unit of the
/// batched read API (DESIGN.md, "Batched I/O"). The caller owns `scratch`
/// (>= `len` bytes) and keeps it alive until MultiRead returns; on
/// completion `result` points into `scratch` (a short read signals EOF) and
/// `status` carries the per-request outcome. Requests in a batch are
/// independent: one failing never affects the others, and implementations
/// may execute them in any order (completion ordering is "all done when
/// MultiRead returns", nothing finer).
struct ReadRequest {
  /// Target file. Required for Env::MultiRead (requests of one batch may
  /// span files); RandomAccessFile::MultiRead reads from `this` and ignores
  /// the field.
  RandomAccessFile* file = nullptr;
  uint64_t offset = 0;
  size_t len = 0;
  char* scratch = nullptr;

  // Outputs.
  Slice result;
  Status status;
};

/// A file opened for positional reads (SSTables). Thread-safe.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  /// Reads up to `n` bytes starting at `offset`. `*result` points into
  /// `scratch`.
  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const = 0;

  /// Reads `n` requests from this file as one batch (`req.file` is
  /// ignored). The base implementation is a serial loop over Read();
  /// decorator files forward the whole batch to their target so counters
  /// and fault rules observe each request.
  virtual void MultiRead(ReadRequest* reqs, size_t n) const;
};

/// A file opened for positional reads AND writes (the in-place page file of
/// the B+-tree baseline; LSM files never need this — they are immutable).
class RandomRWFile {
 public:
  virtual ~RandomRWFile() = default;

  virtual Status Write(uint64_t offset, const Slice& data) = 0;
  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const = 0;
  virtual Status Sync() = 0;
};

/// A file opened for appending (table building, WAL, manifest, vlog).
/// Appended bytes may wait in a buffer inside the file object: a reader
/// that opens the file by name, and a process kill, see only what the
/// last Flush(), Sync() or Close() handed to the OS.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const Slice& data) = 0;
  /// Flushes, then releases the file.
  virtual Status Close() = 0;
  /// Hands every appended byte to the OS. The bytes survive a process kill
  /// and are visible to a fresh reader, but not yet to a power loss.
  virtual Status Flush() = 0;
  /// Flushes, then forces the bytes to stable storage (durable).
  virtual Status Sync() = 0;
};

/// Env abstracts the storage substrate. Production code uses the POSIX Env;
/// tests use MemEnv; measurement wraps either in CountingEnv, and device
/// emulation wraps in LatencyEnv (both EnvWrapper decorators, below). All
/// methods are thread-safe.
class Env {
 public:
  virtual ~Env() = default;

  /// The default POSIX environment. Singleton; do not delete.
  static Env* Default();

  virtual Status NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* result) = 0;
  virtual Status NewRandomAccessFile(
      const std::string& fname, std::unique_ptr<RandomAccessFile>* result) = 0;
  virtual Status NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) = 0;
  /// Opens (creating if absent) a read-write file; existing contents are
  /// preserved (unlike NewWritableFile, which truncates).
  virtual Status NewRandomRWFile(const std::string& fname,
                                 std::unique_ptr<RandomRWFile>* result) = 0;

  virtual bool FileExists(const std::string& fname) = 0;
  virtual Status GetChildren(const std::string& dir,
                             std::vector<std::string>* result) = 0;
  virtual Status RemoveFile(const std::string& fname) = 0;
  virtual Status CreateDir(const std::string& dirname) = 0;
  virtual Status RemoveDir(const std::string& dirname) = 0;
  virtual Status GetFileSize(const std::string& fname, uint64_t* size) = 0;
  virtual Status RenameFile(const std::string& src,
                            const std::string& target) = 0;

  /// Makes `target` name the same bytes as `src` (hard link where the
  /// substrate supports it). Both names stay valid; removing one does not
  /// affect the other. Checkpoints use this to share immutable SSTables and
  /// vlogs with the live DB without copying. The base implementation copies
  /// the file contents (and syncs), so substrates without link support stay
  /// correct, just slower. Fails if `src` is missing; `target` must not
  /// already exist.
  virtual Status LinkFile(const std::string& src, const std::string& target);

  /// Batched positional reads, possibly spanning files. Every file in the
  /// batch must have been opened through this env (decorator envs unwrap
  /// their own file wrappers to forward the batch to the base env). The
  /// default groups requests by file — in order of first appearance, each
  /// group in request order, so scripted fault rules fire on the same
  /// per-file op index as a serial loop — and forwards each group to
  /// RandomAccessFile::MultiRead. The POSIX env runs this default, so a
  /// batch costs one pread per request. All requests are complete when the
  /// call returns; per-request outcomes are in ReadRequest::status.
  virtual void MultiRead(ReadRequest* reqs, size_t n);
};

/// Always false: a POSIX batch runs one pread per request. Kept for the
/// machine note lsmbench prints.
bool IoUringAvailable();

// ---------------------------------------------------------------------------
// Forwarding bases for Env decorators (DESIGN.md, "Decorator forwarding").
// Each forwards every call to the object it wraps, so a decorator overrides
// only the calls it observes.
// ---------------------------------------------------------------------------

class SequentialFileWrapper : public SequentialFile {
 public:
  explicit SequentialFileWrapper(std::unique_ptr<SequentialFile> target)
      : target_(std::move(target)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    return target_->Read(n, result, scratch);
  }
  Status Skip(uint64_t n) override { return target_->Skip(n); }

 private:
  const std::unique_ptr<SequentialFile> target_;
};

class RandomAccessFileWrapper : public RandomAccessFile {
 public:
  explicit RandomAccessFileWrapper(std::unique_ptr<RandomAccessFile> target)
      : target_(std::move(target)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    return target_->Read(offset, n, result, scratch);
  }
  void MultiRead(ReadRequest* reqs, size_t n) const override {
    target_->MultiRead(reqs, n);
  }

  RandomAccessFile* target() const { return target_.get(); }

 private:
  const std::unique_ptr<RandomAccessFile> target_;
};

class WritableFileWrapper : public WritableFile {
 public:
  explicit WritableFileWrapper(std::unique_ptr<WritableFile> target)
      : target_(std::move(target)) {}

  Status Append(const Slice& data) override { return target_->Append(data); }
  Status Close() override { return target_->Close(); }
  Status Flush() override { return target_->Flush(); }
  Status Sync() override { return target_->Sync(); }

 private:
  const std::unique_ptr<WritableFile> target_;
};

class RandomRWFileWrapper : public RandomRWFile {
 public:
  explicit RandomRWFileWrapper(std::unique_ptr<RandomRWFile> target)
      : target_(std::move(target)) {}

  Status Write(uint64_t offset, const Slice& data) override {
    return target_->Write(offset, data);
  }
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    return target_->Read(offset, n, result, scratch);
  }
  Status Sync() override { return target_->Sync(); }

 private:
  const std::unique_ptr<RandomRWFile> target_;
};

class EnvWrapper : public Env {
 public:
  /// Does not take ownership of `target`.
  explicit EnvWrapper(Env* target) : target_(target) {}

  Env* target() const { return target_; }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return target_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    return target_->NewRandomAccessFile(fname, result);
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return target_->NewWritableFile(fname, result);
  }
  Status NewRandomRWFile(const std::string& fname,
                         std::unique_ptr<RandomRWFile>* result) override {
    return target_->NewRandomRWFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return target_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return target_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return target_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return target_->CreateDir(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return target_->RemoveDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return target_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src, const std::string& dst) override {
    return target_->RenameFile(src, dst);
  }
  Status LinkFile(const std::string& src, const std::string& dst) override {
    return target_->LinkFile(src, dst);
  }
  void MultiRead(ReadRequest* reqs, size_t n) override {
    target_->MultiRead(reqs, n);
  }

 protected:
  /// The cross-file batch path of a decorator whose random-access files
  /// are `File`s (a RandomAccessFileWrapper subclass): swaps each request's
  /// file for the file it wraps, hands the whole batch to the target env
  /// as ONE MultiRead, and returns true. If a request names a file this env
  /// did not open, the batch goes through Env::MultiRead instead — its
  /// per-file groups reach each `File`'s own MultiRead override, which does
  /// the decorator's bookkeeping — and the helper returns false, so the
  /// caller must skip its batch-level bookkeeping.
  template <typename File>
  bool UnwrapMultiRead(ReadRequest* reqs, size_t n) {
    std::vector<ReadRequest> batch(reqs, reqs + n);
    for (ReadRequest& req : batch) {
      const auto* file = dynamic_cast<const File*>(req.file);
      if (file == nullptr) {
        Env::MultiRead(reqs, n);
        return false;
      }
      req.file = file->target();
    }
    target_->MultiRead(batch.data(), n);
    for (size_t i = 0; i < n; ++i) {
      reqs[i].result = batch[i].result;
      reqs[i].status = batch[i].status;
    }
    return true;
  }

 private:
  Env* const target_;
};

/// Reads the entire named file into `*data`.
Status ReadFileToString(Env* env, const std::string& fname, std::string* data);

/// Writes `data` as the full contents of the named file (then syncs).
Status WriteStringToFile(Env* env, const Slice& data, const std::string& fname);

}  // namespace lsmlab

#endif  // LSMLAB_IO_ENV_H_
