#include "io/env.h"

#include <utility>
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
  // Group by file in order of first appearance. Batches are small (tens of
  // requests), so a linear scan beats a hash map.
  std::vector<std::pair<RandomAccessFile*, std::vector<size_t>>> groups;
  for (size_t i = 0; i < n; ++i) {
    if (reqs[i].file == nullptr) {
      reqs[i].status = Status::InvalidArgument("ReadRequest without a file");
      continue;
    }
    bool found = false;
    for (auto& g : groups) {
      if (g.first == reqs[i].file) {
        g.second.push_back(i);
        found = true;
        break;
      }
    }
    if (!found) {
      groups.emplace_back(reqs[i].file, std::vector<size_t>{i});
    }
  }
  std::vector<ReadRequest> batch;
  for (auto& g : groups) {
    if (g.second.size() == 1) {
      g.first->MultiRead(&reqs[g.second[0]], 1);
      continue;
    }
    batch.clear();
    for (size_t idx : g.second) {
      batch.push_back(reqs[idx]);
    }
    g.first->MultiRead(batch.data(), batch.size());
    for (size_t k = 0; k < g.second.size(); ++k) {
      reqs[g.second[k]].result = batch[k].result;
      reqs[g.second[k]].status = batch[k].status;
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
