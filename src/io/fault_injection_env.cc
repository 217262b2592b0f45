#include "io/fault_injection_env.h"

#include <algorithm>
#include <cstring>

#include "db/filename.h"

namespace lsmlab {

namespace {

Status InactiveError() {
  return Status::IOError("injected crash: filesystem inactive");
}

/// Write-through writable file: appends reach the base file immediately
/// (the DB reads its own unsynced output), but the env records how much of
/// the file is covered by a successful Sync() so DropUnsyncedData can
/// rewind to the durable prefix. Close() never implies durability, so it
/// forwards untracked: unsynced bytes stay droppable.
class FaultWritableFile final : public WritableFileWrapper {
 public:
  FaultWritableFile(std::string fname, std::unique_ptr<WritableFile> inner,
                    FaultInjectionEnv* env)
      : WritableFileWrapper(std::move(inner)),
        fname_(std::move(fname)),
        env_(env) {}

  Status Append(const Slice& data) override {
    if (!env_->filesystem_active()) {
      return InactiveError();
    }
    if (env_->fail_writes()) {
      return Status::IOError("injected write failure");
    }
    Status injected;
    if (env_->MaybeInjectFault(fname_, kFaultOpAppend, &injected)) {
      return injected;
    }
    Status s = WritableFileWrapper::Append(data);
    if (s.ok()) {
      env_->OnAppend(fname_, data.size());
    }
    return s;
  }

  Status Sync() override {
    if (!env_->filesystem_active()) {
      return InactiveError();
    }
    if (env_->fail_writes()) {
      return Status::IOError("injected sync failure");
    }
    Status injected;
    if (env_->MaybeInjectFault(fname_, kFaultOpSync, &injected)) {
      return injected;
    }
    Status s = WritableFileWrapper::Sync();
    if (s.ok()) {
      env_->OnSync(fname_);
    }
    return s;
  }

 private:
  const std::string fname_;
  FaultInjectionEnv* const env_;
};

/// Copies the read result into `scratch` (if not already there) and flips
/// one bit, simulating silent media corruption.
void CorruptReadResult(Slice* result, char* scratch) {
  if (result->empty()) {
    return;
  }
  if (result->data() != scratch) {
    std::memmove(scratch, result->data(), result->size());
  }
  scratch[result->size() / 2] ^= 0x10;
  *result = Slice(scratch, result->size());
}

/// Batched reads keep serial fault semantics by phase separation: all
/// injected-error checks run in request order BEFORE the batch is
/// dispatched, and all corruption checks run in request order over the
/// successful reads AFTER it completes. Error rules (flip_bit == false)
/// and corruption rules (flip_bit == true) have disjoint matched-op
/// counters, so each rule still fires on exactly the op index a serial
/// Read loop would. `fname(i)` names request i's file; `read` executes the
/// requests that drew no injected error as one batch.
template <typename FnameFn, typename ReadFn>
void MultiReadWithFaults(FaultInjectionEnv* env, ReadRequest* reqs, size_t n,
                         FnameFn fname, ReadFn read) {
  std::vector<ReadRequest> pass;
  std::vector<size_t> pass_idx;
  pass.reserve(n);
  pass_idx.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Status injected;
    if (env->MaybeInjectFault(fname(i), kFaultOpRead, &injected)) {
      reqs[i].result = Slice();
      reqs[i].status = injected;
      continue;
    }
    pass.push_back(reqs[i]);
    pass_idx.push_back(i);
  }
  if (!pass.empty()) {
    read(pass.data(), pass.size());
  }
  for (size_t k = 0; k < pass.size(); ++k) {
    ReadRequest& req = reqs[pass_idx[k]];
    req.result = pass[k].result;
    req.status = pass[k].status;
    if (req.status.ok() && env->MaybeCorruptRead(fname(pass_idx[k]))) {
      CorruptReadResult(&req.result, req.scratch);
    }
  }
}

class FaultSequentialFile final : public SequentialFileWrapper {
 public:
  FaultSequentialFile(std::string fname, std::unique_ptr<SequentialFile> inner,
                      FaultInjectionEnv* env)
      : SequentialFileWrapper(std::move(inner)),
        fname_(std::move(fname)),
        env_(env) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    Status injected;
    if (env_->MaybeInjectFault(fname_, kFaultOpRead, &injected)) {
      return injected;
    }
    Status s = SequentialFileWrapper::Read(n, result, scratch);
    if (s.ok() && env_->MaybeCorruptRead(fname_)) {
      CorruptReadResult(result, scratch);
    }
    return s;
  }

 private:
  const std::string fname_;
  FaultInjectionEnv* const env_;
};

class FaultRandomAccessFile final : public RandomAccessFileWrapper {
 public:
  FaultRandomAccessFile(std::string fname,
                        std::unique_ptr<RandomAccessFile> inner,
                        FaultInjectionEnv* env)
      : RandomAccessFileWrapper(std::move(inner)),
        fname_(std::move(fname)),
        env_(env) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status injected;
    if (env_->MaybeInjectFault(fname_, kFaultOpRead, &injected)) {
      return injected;
    }
    Status s = RandomAccessFileWrapper::Read(offset, n, result, scratch);
    if (s.ok() && env_->MaybeCorruptRead(fname_)) {
      CorruptReadResult(result, scratch);
    }
    return s;
  }

  void MultiRead(ReadRequest* reqs, size_t n) const override {
    MultiReadWithFaults(
        env_, reqs, n, [this](size_t) -> const std::string& { return fname_; },
        [this](ReadRequest* pass, size_t m) {
          RandomAccessFileWrapper::MultiRead(pass, m);
        });
  }

  const std::string& fname() const { return fname_; }

 private:
  const std::string fname_;
  FaultInjectionEnv* const env_;
};

}  // namespace

FaultInjectionEnv::FaultInjectionEnv(Env* base, uint64_t seed)
    : EnvWrapper(base), rng_(seed) {}

bool IsNoSpaceError(const Status& s) {
  return s.IsIOError() &&
         s.ToString().find("No space left on device") != std::string::npos;
}

uint32_t FaultInjectionEnv::FileKindOf(const std::string& fname) {
  size_t sep = fname.rfind('/');
  std::string basename =
      sep == std::string::npos ? fname : fname.substr(sep + 1);
  uint64_t number;
  FileType type;
  if (!ParseFileName(basename, &number, &type)) {
    return kFaultOther;
  }
  switch (type) {
    case FileType::kLogFile:
      return kFaultWal;
    case FileType::kTableFile:
      return kFaultTable;
    case FileType::kManifestFile:
      return kFaultManifest;
    case FileType::kVlogFile:
      return kFaultVlog;
    case FileType::kCurrentFile:
      return kFaultCurrent;
    case FileType::kCommitLogFile:
      return kFaultCommitLog;
    case FileType::kTempFile:
    case FileType::kShardsFile:
    case FileType::kUnknown:
      return kFaultOther;
  }
  return kFaultOther;
}

size_t FaultInjectionEnv::AddRule(const FaultRule& rule) {
  MutexLock lock(&mu_);
  rules_.push_back(RuleState{rule, 0, 0});
  have_rules_.store(true, std::memory_order_relaxed);
  return rules_.size() - 1;
}

void FaultInjectionEnv::ClearRules() {
  MutexLock lock(&mu_);
  rules_.clear();
  have_rules_.store(false, std::memory_order_relaxed);
}

bool FaultInjectionEnv::RuleFires(RuleState* rs) {
  const FaultRule& r = rs->rule;
  int64_t op_index = rs->matched - 1;  // Caller already counted this op.
  bool fires = false;
  if (r.at_op_index >= 0 && op_index == r.at_op_index) {
    fires = true;
  }
  if (!fires && r.one_in > 0 && rng_.OneIn(r.one_in)) {
    fires = true;
  }
  if (!fires) {
    return false;
  }
  if (r.max_failures >= 0 && rs->injected >= r.max_failures) {
    return false;  // Transient fault window exhausted.
  }
  ++rs->injected;
  injected_faults_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool FaultInjectionEnv::MaybeInjectFault(const std::string& fname, FaultOp op,
                                         Status* error) {
  if (!have_rules_.load(std::memory_order_relaxed)) {
    return false;
  }
  uint32_t kind = FileKindOf(fname);
  MutexLock lock(&mu_);
  for (auto& rs : rules_) {
    if (rs.rule.flip_bit || (rs.rule.file_kinds & kind) == 0 ||
        (rs.rule.ops & static_cast<uint32_t>(op)) == 0) {
      continue;
    }
    ++rs.matched;
    if (RuleFires(&rs)) {
      *error = rs.rule.error;
      return true;
    }
  }
  return false;
}

bool FaultInjectionEnv::MaybeCorruptRead(const std::string& fname) {
  if (!have_rules_.load(std::memory_order_relaxed)) {
    return false;
  }
  uint32_t kind = FileKindOf(fname);
  MutexLock lock(&mu_);
  for (auto& rs : rules_) {
    if (!rs.rule.flip_bit || (rs.rule.file_kinds & kind) == 0 ||
        (rs.rule.ops & kFaultOpRead) == 0) {
      continue;
    }
    ++rs.matched;
    if (RuleFires(&rs)) {
      return true;
    }
  }
  return false;
}

void FaultInjectionEnv::OnAppend(const std::string& fname, uint64_t bytes) {
  MutexLock lock(&mu_);
  files_[fname].size += bytes;
}

void FaultInjectionEnv::OnSync(const std::string& fname) {
  MutexLock lock(&mu_);
  auto it = files_.find(fname);
  if (it != files_.end()) {
    it->second.synced = it->second.size;
  }
}

Status FaultInjectionEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<SequentialFile>* result) {
  Status s = EnvWrapper::NewSequentialFile(fname, result);
  if (s.ok()) {
    *result =
        std::make_unique<FaultSequentialFile>(fname, std::move(*result), this);
  }
  return s;
}

Status FaultInjectionEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  Status s = EnvWrapper::NewRandomAccessFile(fname, result);
  if (s.ok()) {
    *result = std::make_unique<FaultRandomAccessFile>(fname,
                                                      std::move(*result), this);
  }
  return s;
}

Status FaultInjectionEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<WritableFile>* result) {
  if (!filesystem_active()) {
    return InactiveError();
  }
  Status injected;
  if (MaybeInjectFault(fname, kFaultOpOpen, &injected)) {
    return injected;
  }
  Status s = EnvWrapper::NewWritableFile(fname, result);
  if (!s.ok()) {
    return s;
  }
  {
    // NewWritableFile truncates: the file starts empty and fully unsynced.
    MutexLock lock(&mu_);
    files_[fname] = FileState{};
  }
  *result =
      std::make_unique<FaultWritableFile>(fname, std::move(*result), this);
  return Status::OK();
}

Status FaultInjectionEnv::NewRandomRWFile(
    const std::string& fname, std::unique_ptr<RandomRWFile>* result) {
  // Only the B+-tree baseline uses RW files; gate the open but pass the
  // handle through unwrapped (no crash tracking for in-place page writes).
  if (!filesystem_active()) {
    return InactiveError();
  }
  Status injected;
  if (MaybeInjectFault(fname, kFaultOpOpen, &injected)) {
    return injected;
  }
  return EnvWrapper::NewRandomRWFile(fname, result);
}

void FaultInjectionEnv::MultiRead(ReadRequest* reqs, size_t n) {
  std::vector<const FaultRandomAccessFile*> files(n);
  for (size_t i = 0; i < n; ++i) {
    files[i] = dynamic_cast<const FaultRandomAccessFile*>(reqs[i].file);
    if (files[i] == nullptr) {
      // Foreign file in the batch: per-file groups reach the file-level
      // override, which keeps serial semantics within each group.
      Env::MultiRead(reqs, n);
      return;
    }
  }
  // Checks follow request order even when the batch interleaves files,
  // which the per-file grouping of Env::MultiRead would reorder.
  MultiReadWithFaults(
      this, reqs, n,
      [&files](size_t i) -> const std::string& { return files[i]->fname(); },
      [this](ReadRequest* pass, size_t m) {
        UnwrapMultiRead<FaultRandomAccessFile>(pass, m);
      });
}

Status FaultInjectionEnv::RemoveFile(const std::string& fname) {
  if (!filesystem_active()) {
    return InactiveError();
  }
  Status injected;
  if (MaybeInjectFault(fname, kFaultOpRemove, &injected)) {
    return injected;
  }
  Status s = EnvWrapper::RemoveFile(fname);
  if (s.ok()) {
    MutexLock lock(&mu_);
    files_.erase(fname);
  }
  return s;
}

Status FaultInjectionEnv::CreateDir(const std::string& dirname) {
  if (!filesystem_active()) {
    return InactiveError();
  }
  return EnvWrapper::CreateDir(dirname);
}

Status FaultInjectionEnv::RemoveDir(const std::string& dirname) {
  if (!filesystem_active()) {
    return InactiveError();
  }
  return EnvWrapper::RemoveDir(dirname);
}

Status FaultInjectionEnv::RenameFile(const std::string& src,
                                     const std::string& target) {
  if (!filesystem_active()) {
    return InactiveError();
  }
  Status injected;
  if (MaybeInjectFault(src, kFaultOpRename, &injected)) {
    return injected;
  }
  Status s = EnvWrapper::RenameFile(src, target);
  if (s.ok()) {
    MutexLock lock(&mu_);
    auto it = files_.find(src);
    if (it != files_.end()) {
      files_[target] = it->second;
      files_.erase(it);
    }
  }
  return s;
}

Status FaultInjectionEnv::LinkFile(const std::string& src,
                                   const std::string& target) {
  if (!filesystem_active()) {
    return InactiveError();
  }
  Status injected;
  if (MaybeInjectFault(src, kFaultOpLink, &injected)) {
    return injected;
  }
  Status s = EnvWrapper::LinkFile(src, target);
  if (s.ok()) {
    MutexLock lock(&mu_);
    auto it = files_.find(src);
    if (it != files_.end()) {
      // The link names the same bytes as the source, so it inherits the
      // source's durability exactly: synced prefix and all. Without this a
      // crash right after a checkpoint would rewind the linked name to
      // empty and "tear" an immutable SSTable that was in fact durable.
      files_[target] = it->second;
    }
    // An untracked source (created before this env wrapped the substrate)
    // stays untracked under the target name too: untracked files are
    // treated as fully durable, which is what immutability implies.
  }
  return s;
}

Status FaultInjectionEnv::DropUnsyncedData(uint64_t torn_tail_one_in) {
  MutexLock lock(&mu_);
  for (auto it = files_.begin(); it != files_.end();) {
    FileState& state = it->second;
    const std::string& fname = it->first;
    if (state.synced >= state.size) {
      ++it;
      continue;  // Fully durable.
    }
    std::string contents;
    Status s = ReadFileToString(target(), fname, &contents);
    if (s.IsNotFound()) {
      it = files_.erase(it);  // Already gone (renamed-over or removed).
      continue;
    }
    if (!s.ok()) {
      return s;
    }
    std::string keep = contents.substr(
        0, static_cast<size_t>(std::min<uint64_t>(state.synced,
                                                  contents.size())));
    std::string tail = contents.substr(keep.size());
    // Torn tails only apply to files with at least one durable prefix byte:
    // a never-synced file's directory entry was never fsynced either, so
    // after a crash the whole file disappears (below) — no fragment may
    // keep it alive.
    if (torn_tail_one_in > 0 && !tail.empty() && state.synced > 0 &&
        rng_.OneIn(torn_tail_one_in)) {
      // A torn write: part of the unsynced tail made it to the platter,
      // with its final byte mangled mid-transfer.
      size_t frag_len = 1 + static_cast<size_t>(rng_.Uniform(tail.size()));
      std::string frag = tail.substr(0, frag_len);
      frag.back() = static_cast<char>(frag.back() ^ 0x40);
      keep += frag;
    }
    if (keep.empty()) {
      // Never synced: after a crash the file (its directory entry was never
      // fsynced either) is simply gone.
      s = target()->RemoveFile(fname);
      if (!s.ok() && !s.IsNotFound()) {
        return s;
      }
      it = files_.erase(it);
      continue;
    }
    s = WriteStringToFile(target(), keep, fname);
    if (!s.ok()) {
      return s;
    }
    state.size = keep.size();
    state.synced = keep.size();
    ++it;
  }
  return Status::OK();
}

}  // namespace lsmlab
