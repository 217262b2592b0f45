#include "io/env.h"

#include <vector>

#include "util/lock_rank.h"

namespace lsmlab {

void RandomAccessFile::MultiRead(ReadRequest* reqs, size_t n) const {
  for (size_t i = 0; i < n; ++i) {
    reqs[i].status = Read(reqs[i].offset, reqs[i].len, &reqs[i].result,
                          reqs[i].scratch);
  }
}

void Env::MultiRead(ReadRequest* reqs, size_t n) {
  // Checked once per batch, before any file is touched, so a report names
  // the batch rather than its first request.
  LSMLAB_CHECK_IO_UNDER_LOCK("MultiRead", "batch");
  // One RandomAccessFile::MultiRead per file, in order of the file's first
  // appearance, with its requests in batch order. A file whose requests sit
  // side by side reads them in place; others are gathered into `gathered`,
  // sized once per call. Batches are small (tens of requests), so linear
  // scans beat a hash map.
  std::vector<ReadRequest> gathered;
  for (size_t i = 0; i < n; ++i) {
    RandomAccessFile* const file = reqs[i].file;
    if (file == nullptr) {
      reqs[i].status = Status::InvalidArgument("ReadRequest without a file");
      continue;
    }
    bool seen = false;
    for (size_t j = i; j > 0 && !seen; --j) {
      seen = reqs[j - 1].file == file;
    }
    if (seen) {
      continue;  // Read with the file's first request.
    }
    size_t count = 0;
    size_t last = i;
    for (size_t j = i; j < n; ++j) {
      if (reqs[j].file == file) {
        ++count;
        last = j;
      }
    }
    if (last - i + 1 == count) {
      file->MultiRead(&reqs[i], count);
      continue;
    }
    gathered.reserve(n);
    gathered.clear();
    for (size_t j = i; j <= last; ++j) {
      if (reqs[j].file == file) {
        gathered.push_back(reqs[j]);
      }
    }
    file->MultiRead(gathered.data(), count);
    for (size_t j = i, k = 0; j <= last; ++j) {
      if (reqs[j].file == file) {
        reqs[j].result = gathered[k].result;
        reqs[j].status = gathered[k].status;
        ++k;
      }
    }
  }
}

Status Env::LinkFile(const std::string& src, const std::string& target) {
  // Copy fallback: correct (the two names never alias mutable state — link
  // callers only hand over immutable files) but pays the full byte copy.
  // Real substrates override with a true hard link.
  if (FileExists(target)) {
    return Status::IOError(target, "already exists");
  }
  std::string contents;
  Status s = ReadFileToString(this, src, &contents);
  if (!s.ok()) {
    return s;
  }
  return WriteStringToFile(this, contents, target);
}

Status ReadFileToString(Env* env, const std::string& fname,
                        std::string* data) {
  data->clear();
  std::unique_ptr<SequentialFile> file;
  Status s = env->NewSequentialFile(fname, &file);
  if (!s.ok()) {
    return s;
  }
  static constexpr size_t kBufferSize = 64 << 10;
  std::string scratch(kBufferSize, '\0');
  while (true) {
    Slice fragment;
    s = file->Read(kBufferSize, &fragment, scratch.data());
    if (!s.ok()) {
      break;
    }
    data->append(fragment.data(), fragment.size());
    if (fragment.empty()) {
      break;
    }
  }
  return s;
}

Status WriteStringToFile(Env* env, const Slice& data,
                         const std::string& fname) {
  std::unique_ptr<WritableFile> file;
  Status s = env->NewWritableFile(fname, &file);
  if (!s.ok()) {
    return s;
  }
  s = file->Append(data);
  if (s.ok()) {
    s = file->Sync();
  }
  if (s.ok()) {
    s = file->Close();
  }
  if (!s.ok()) {
    // Best-effort cleanup of the partially written file; the write error
    // is what the caller needs to see.
    (void)env->RemoveFile(fname);
  }
  return s;
}

}  // namespace lsmlab
