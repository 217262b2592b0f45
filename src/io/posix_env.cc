#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "io/env.h"
#include "util/lock_rank.h"

namespace lsmlab {

namespace {

// strerror_r has two incompatible signatures (XSI returns int and fills the
// buffer; GNU returns the message pointer). These overloads unpack either
// at compile time, keeping PosixError thread-safe (std::strerror is not).
inline const char* StrerrorResult(char* ret, const char* /*buf*/) {
  return ret;  // GNU variant.
}
inline const char* StrerrorResult(int /*ret*/, const char* buf) {
  return buf;  // XSI variant.
}

Status PosixError(const std::string& context, int err) {
  char buf[256];
  buf[0] = '\0';
  const char* msg = StrerrorResult(strerror_r(err, buf, sizeof(buf)), buf);
  if (err == ENOENT) {
    return Status::NotFound(context, msg);
  }
  return Status::IOError(context, msg);
}

class PosixSequentialFile final : public SequentialFile {
 public:
  PosixSequentialFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}
  ~PosixSequentialFile() override { ::close(fd_); }

  Status Read(size_t n, Slice* result, char* scratch) override {
    LSMLAB_CHECK_IO_UNDER_LOCK("Read", fname_.c_str());
    while (true) {
      ::ssize_t r = ::read(fd_, scratch, n);
      if (r < 0) {
        if (errno == EINTR) {
          continue;
        }
        return PosixError(fname_, errno);
      }
      *result = Slice(scratch, static_cast<size_t>(r));
      return Status::OK();
    }
  }

  Status Skip(uint64_t n) override {
    if (::lseek(fd_, static_cast<off_t>(n), SEEK_CUR) == -1) {
      return PosixError(fname_, errno);
    }
    return Status::OK();
  }

 private:
  const std::string fname_;
  const int fd_;
};

class PosixRandomAccessFile final : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}
  ~PosixRandomAccessFile() override { ::close(fd_); }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    LSMLAB_CHECK_IO_UNDER_LOCK("Read", fname_.c_str());
    ::ssize_t r = ::pread(fd_, scratch, n, static_cast<off_t>(offset));
    if (r < 0) {
      return PosixError(fname_, errno);
    }
    *result = Slice(scratch, static_cast<size_t>(r));
    return Status::OK();
  }

 private:
  const std::string fname_;
  const int fd_;
};

// Appends collect in a buffer of this size (LevelDB's
// kWritableFileBufferSize), so a small record costs a memcpy, not a
// write(), until the caller flushes.
constexpr size_t kWritableFileBufferSize = 64 * 1024;

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) {
      // A destructor cannot report the error; callers that care about
      // durability must Close() (or Sync()) explicitly first.
      (void)Close();
    }
  }

  Status Append(const Slice& data) override {
    LSMLAB_CHECK_IO_UNDER_LOCK("Append", fname_.c_str());
    const char* p = data.data();
    size_t n = data.size();
    const size_t copy = std::min(n, kWritableFileBufferSize - pos_);
    std::memcpy(buf_ + pos_, p, copy);
    p += copy;
    n -= copy;
    pos_ += copy;
    if (n == 0) {
      return Status::OK();
    }
    // The buffer is full and bytes remain: write it out, then buffer a
    // small remainder or send a large one straight to the file.
    Status s = FlushBuffer();
    if (!s.ok()) {
      return s;
    }
    if (n < kWritableFileBufferSize) {
      std::memcpy(buf_, p, n);
      pos_ = n;
      return Status::OK();
    }
    return WriteUnbuffered(p, n);
  }

  Status Close() override {
    Status s = FlushBuffer();
    if (fd_ >= 0 && ::close(fd_) < 0 && s.ok()) {
      s = PosixError(fname_, errno);
    }
    fd_ = -1;
    return s;
  }

  Status Flush() override {
    LSMLAB_CHECK_IO_UNDER_LOCK("Flush", fname_.c_str());
    return FlushBuffer();
  }

  Status Sync() override {
    LSMLAB_CHECK_IO_UNDER_LOCK("Sync", fname_.c_str());
    Status s = FlushBuffer();
    if (s.ok() && ::fdatasync(fd_) < 0) {
      s = PosixError(fname_, errno);
    }
    return s;
  }

 private:
  // A failed write drops the buffered bytes: the file's tail is unknown
  // either way, and callers treat the error as fatal for the file.
  Status FlushBuffer() {
    Status s = WriteUnbuffered(buf_, pos_);
    pos_ = 0;
    return s;
  }

  Status WriteUnbuffered(const char* p, size_t n) {
    while (n > 0) {
      ::ssize_t w = ::write(fd_, p, n);
      if (w < 0) {
        if (errno == EINTR) {
          continue;
        }
        return PosixError(fname_, errno);
      }
      p += w;
      n -= static_cast<size_t>(w);
    }
    return Status::OK();
  }

  const std::string fname_;
  int fd_;
  size_t pos_ = 0;  // Bytes of buf_ not yet handed to the kernel.
  char buf_[kWritableFileBufferSize];
};

class PosixRandomRWFile final : public RandomRWFile {
 public:
  PosixRandomRWFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}
  ~PosixRandomRWFile() override { ::close(fd_); }

  Status Write(uint64_t offset, const Slice& data) override {
    LSMLAB_CHECK_IO_UNDER_LOCK("Write", fname_.c_str());
    const char* p = data.data();
    size_t left = data.size();
    uint64_t off = offset;
    while (left > 0) {
      ::ssize_t w = ::pwrite(fd_, p, left, static_cast<off_t>(off));
      if (w < 0) {
        if (errno == EINTR) {
          continue;
        }
        return PosixError(fname_, errno);
      }
      p += w;
      off += static_cast<uint64_t>(w);
      left -= static_cast<size_t>(w);
    }
    return Status::OK();
  }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    LSMLAB_CHECK_IO_UNDER_LOCK("Read", fname_.c_str());
    ::ssize_t r = ::pread(fd_, scratch, n, static_cast<off_t>(offset));
    if (r < 0) {
      return PosixError(fname_, errno);
    }
    *result = Slice(scratch, static_cast<size_t>(r));
    return Status::OK();
  }

  Status Sync() override {
    LSMLAB_CHECK_IO_UNDER_LOCK("Sync", fname_.c_str());
    if (::fdatasync(fd_) < 0) {
      return PosixError(fname_, errno);
    }
    return Status::OK();
  }

 private:
  const std::string fname_;
  const int fd_;
};

class PosixEnv final : public Env {
 public:
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    int fd = ::open(fname.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      result->reset();
      return PosixError(fname, errno);
    }
    *result = std::make_unique<PosixSequentialFile>(fname, fd);
    return Status::OK();
  }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    int fd = ::open(fname.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      result->reset();
      return PosixError(fname, errno);
    }
    *result = std::make_unique<PosixRandomAccessFile>(fname, fd);
    return Status::OK();
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    int fd = ::open(fname.c_str(),
                    O_TRUNC | O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
      result->reset();
      return PosixError(fname, errno);
    }
    *result = std::make_unique<PosixWritableFile>(fname, fd);
    return Status::OK();
  }

  Status NewRandomRWFile(const std::string& fname,
                         std::unique_ptr<RandomRWFile>* result) override {
    int fd = ::open(fname.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
      result->reset();
      return PosixError(fname, errno);
    }
    *result = std::make_unique<PosixRandomRWFile>(fname, fd);
    return Status::OK();
  }

  bool FileExists(const std::string& fname) override {
    return ::access(fname.c_str(), F_OK) == 0;
  }

  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    result->clear();
    ::DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) {
      return PosixError(dir, errno);
    }
    struct ::dirent* entry;
    while ((entry = ::readdir(d)) != nullptr) {
      std::string name = entry->d_name;
      if (name != "." && name != "..") {
        result->push_back(std::move(name));
      }
    }
    ::closedir(d);
    return Status::OK();
  }

  Status RemoveFile(const std::string& fname) override {
    if (::unlink(fname.c_str()) != 0) {
      return PosixError(fname, errno);
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& dirname) override {
    if (::mkdir(dirname.c_str(), 0755) != 0) {
      if (errno == EEXIST) {
        return Status::OK();
      }
      return PosixError(dirname, errno);
    }
    return Status::OK();
  }

  Status RemoveDir(const std::string& dirname) override {
    if (::rmdir(dirname.c_str()) != 0) {
      return PosixError(dirname, errno);
    }
    return Status::OK();
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    struct ::stat st;
    if (::stat(fname.c_str(), &st) != 0) {
      *size = 0;
      return PosixError(fname, errno);
    }
    *size = static_cast<uint64_t>(st.st_size);
    return Status::OK();
  }

  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    if (::rename(src.c_str(), target.c_str()) != 0) {
      return PosixError(src, errno);
    }
    return Status::OK();
  }

  Status LinkFile(const std::string& src, const std::string& target) override {
    if (::link(src.c_str(), target.c_str()) != 0) {
      if (errno == EXDEV || errno == ENOTSUP || errno == EPERM) {
        // Cross-filesystem (or link-hostile) destination: fall back to the
        // base copy so checkpoints can target any mount.
        return Env::LinkFile(src, target);
      }
      return PosixError(src, errno);
    }
    return Status::OK();
  }
};

}  // namespace

bool IoUringAvailable() { return false; }

Env* Env::Default() {
  static Env* env = new PosixEnv();
  return env;
}

}  // namespace lsmlab
