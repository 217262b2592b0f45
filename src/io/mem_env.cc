#include "io/mem_env.h"

#include "util/lock_rank.h"

#include <algorithm>
#include <cstring>

namespace lsmlab {

namespace {

class MemSequentialFile final : public SequentialFile {
 public:
  explicit MemSequentialFile(std::shared_ptr<std::string> content)
      : content_(std::move(content)), pos_(0) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    LSMLAB_CHECK_IO_UNDER_LOCK("Read", "mem sequential file");
    size_t available = content_->size() - std::min(pos_, content_->size());
    size_t to_read = std::min(n, available);
    std::memcpy(scratch, content_->data() + pos_, to_read);
    pos_ += to_read;
    *result = Slice(scratch, to_read);
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    pos_ += static_cast<size_t>(n);
    return Status::OK();
  }

 private:
  const std::shared_ptr<std::string> content_;
  size_t pos_;
};

class MemRandomAccessFile final : public RandomAccessFile {
 public:
  explicit MemRandomAccessFile(std::shared_ptr<std::string> content)
      : content_(std::move(content)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    LSMLAB_CHECK_IO_UNDER_LOCK("Read", "mem random-access file");
    if (offset >= content_->size()) {
      *result = Slice(scratch, 0);
      return Status::OK();
    }
    size_t to_read =
        std::min(n, content_->size() - static_cast<size_t>(offset));
    std::memcpy(scratch, content_->data() + offset, to_read);
    *result = Slice(scratch, to_read);
    return Status::OK();
  }

 private:
  const std::shared_ptr<std::string> content_;
};

class MemWritableFile final : public WritableFile {
 public:
  explicit MemWritableFile(std::shared_ptr<std::string> content)
      : content_(std::move(content)) {}

  Status Append(const Slice& data) override {
    LSMLAB_CHECK_IO_UNDER_LOCK("Append", "mem writable file");
    content_->append(data.data(), data.size());
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  Status Flush() override {
    LSMLAB_CHECK_IO_UNDER_LOCK("Flush", "mem writable file");
    return Status::OK();
  }
  Status Sync() override {
    LSMLAB_CHECK_IO_UNDER_LOCK("Sync", "mem writable file");
    return Status::OK();
  }

 private:
  const std::shared_ptr<std::string> content_;
};

class MemRandomRWFile final : public RandomRWFile {
 public:
  explicit MemRandomRWFile(std::shared_ptr<std::string> content)
      : content_(std::move(content)) {}

  Status Write(uint64_t offset, const Slice& data) override {
    LSMLAB_CHECK_IO_UNDER_LOCK("Write", "mem random-rw file");
    size_t end = static_cast<size_t>(offset) + data.size();
    if (content_->size() < end) {
      content_->resize(end, '\0');
    }
    std::memcpy(content_->data() + offset, data.data(), data.size());
    return Status::OK();
  }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    LSMLAB_CHECK_IO_UNDER_LOCK("Read", "mem random-rw file");
    if (offset >= content_->size()) {
      *result = Slice(scratch, 0);
      return Status::OK();
    }
    size_t to_read =
        std::min(n, content_->size() - static_cast<size_t>(offset));
    std::memcpy(scratch, content_->data() + offset, to_read);
    *result = Slice(scratch, to_read);
    return Status::OK();
  }

  Status Sync() override {
    LSMLAB_CHECK_IO_UNDER_LOCK("Sync", "mem random-rw file");
    return Status::OK();
  }

 private:
  const std::shared_ptr<std::string> content_;
};

}  // namespace

Status MemEnv::NewRandomRWFile(const std::string& fname,
                               std::unique_ptr<RandomRWFile>* result) {
  MutexLock lock(&mu_);
  auto it = files_.find(fname);
  std::shared_ptr<std::string> content;
  if (it == files_.end()) {
    content = std::make_shared<std::string>();
    files_[fname] = content;
  } else {
    content = it->second;
  }
  *result = std::make_unique<MemRandomRWFile>(std::move(content));
  return Status::OK();
}

Status MemEnv::NewSequentialFile(const std::string& fname,
                                 std::unique_ptr<SequentialFile>* result) {
  MutexLock lock(&mu_);
  auto it = files_.find(fname);
  if (it == files_.end()) {
    result->reset();
    return Status::NotFound(fname);
  }
  *result = std::make_unique<MemSequentialFile>(it->second);
  return Status::OK();
}

Status MemEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  MutexLock lock(&mu_);
  auto it = files_.find(fname);
  if (it == files_.end()) {
    result->reset();
    return Status::NotFound(fname);
  }
  *result = std::make_unique<MemRandomAccessFile>(it->second);
  return Status::OK();
}

Status MemEnv::NewWritableFile(const std::string& fname,
                               std::unique_ptr<WritableFile>* result) {
  MutexLock lock(&mu_);
  auto content = std::make_shared<std::string>();
  files_[fname] = content;
  *result = std::make_unique<MemWritableFile>(std::move(content));
  return Status::OK();
}

bool MemEnv::FileExists(const std::string& fname) {
  MutexLock lock(&mu_);
  return files_.count(fname) > 0;
}

Status MemEnv::GetChildren(const std::string& dir,
                           std::vector<std::string>* result) {
  result->clear();
  std::string prefix = dir;
  if (!prefix.empty() && prefix.back() != '/') {
    prefix += '/';
  }
  MutexLock lock(&mu_);
  for (const auto& [name, content] : files_) {
    if (name.size() > prefix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.find('/', prefix.size()) == std::string::npos) {
      result->push_back(name.substr(prefix.size()));
    }
  }
  return Status::OK();
}

Status MemEnv::RemoveFile(const std::string& fname) {
  MutexLock lock(&mu_);
  if (files_.erase(fname) == 0) {
    return Status::NotFound(fname);
  }
  return Status::OK();
}

Status MemEnv::CreateDir(const std::string& dirname) {
  MutexLock lock(&mu_);
  dirs_.insert(dirname);
  return Status::OK();
}

Status MemEnv::RemoveDir(const std::string& dirname) {
  MutexLock lock(&mu_);
  dirs_.erase(dirname);
  return Status::OK();
}

Status MemEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  MutexLock lock(&mu_);
  auto it = files_.find(fname);
  if (it == files_.end()) {
    *size = 0;
    return Status::NotFound(fname);
  }
  *size = it->second->size();
  return Status::OK();
}

Status MemEnv::RenameFile(const std::string& src, const std::string& target) {
  MutexLock lock(&mu_);
  auto it = files_.find(src);
  if (it == files_.end()) {
    return Status::NotFound(src);
  }
  files_[target] = it->second;
  files_.erase(it);
  return Status::OK();
}

Status MemEnv::LinkFile(const std::string& src, const std::string& target) {
  MutexLock lock(&mu_);
  auto it = files_.find(src);
  if (it == files_.end()) {
    return Status::NotFound(src);
  }
  if (files_.count(target) > 0) {
    return Status::IOError(target, "already exists");
  }
  // True hard-link semantics: both names share the content object.
  // NewWritableFile replaces (not mutates) the map entry, so a later
  // truncate of either name cannot bleed into the other.
  files_[target] = it->second;
  return Status::OK();
}

uint64_t MemEnv::TotalFileBytes() const {
  MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& [name, content] : files_) {
    total += content->size();
  }
  return total;
}

}  // namespace lsmlab
