#include "version/version_set.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

#include "db/filename.h"
#include "io/wal_reader.h"
#include "table/table_reader.h"
#include "util/clock.h"
#include "util/comparator.h"
#include "util/logging.h"

namespace lsmlab {

bool LevelIsTiered(DataLayout layout, int level, int num_levels) {
  switch (layout) {
    case DataLayout::kLeveling:
      // Even L0 is merged down immediately; no level accumulates runs.
      return false;
    case DataLayout::kTiering:
      return true;
    case DataLayout::kLazyLeveling:
      // Dostoevsky: all levels tiered except the last.
      return level < num_levels - 1;
    case DataLayout::kOneLeveling:
      // RocksDB default: only L0 accumulates runs.
      return level == 0;
  }
  return false;
}

Version::Version(const Options* options, const InternalKeyComparator* icmp)
    : options_(options), icmp_(icmp) {
  files_.resize(static_cast<size_t>(options->num_levels));
}

bool Version::IsTieredLevel(int level) const {
  return LevelIsTiered(options_->data_layout, level, options_->num_levels);
}

uint64_t Version::LevelBytes(int level) const {
  uint64_t total = 0;
  for (const auto& f : files_[level]) {
    total += f.file_size;
  }
  return total;
}

uint64_t Version::TotalBytes() const {
  uint64_t total = 0;
  for (int level = 0; level < num_levels(); ++level) {
    total += LevelBytes(level);
  }
  return total;
}

uint64_t Version::TotalEntries() const {
  uint64_t total = 0;
  for (const auto& level : files_) {
    for (const auto& f : level) {
      total += f.num_entries;
    }
  }
  return total;
}

void AppendSortedRuns(const Options& options, int level, SortedRun files,
                      std::vector<SortedRun>* runs) {
  if (level == 0 ||
      LevelIsTiered(options.data_layout, level, options.num_levels)) {
    for (size_t i = 0; i < files.size(); ++i) {
      runs->push_back(files.subspan(i, 1));
    }
  } else if (!files.empty()) {
    runs->push_back(files);
  }
}

std::vector<SortedRun> Version::SortedRuns() const {
  std::vector<SortedRun> runs;
  for (int level = 0; level < num_levels(); ++level) {
    AppendSortedRuns(*options_, level, files_[level], &runs);
  }
  return runs;
}

const FileMetaData* Version::NextFileContaining(int level,
                                               const Slice& user_key,
                                               size_t* next) const {
  const std::vector<FileMetaData>& files = files_[level];
  // L0 files overlap in every layout (flushes are not key-partitioned), so
  // L0 is always probed exhaustively, newest file first.
  if (level == 0 || IsTieredLevel(level)) {
    // Files are kept newest-first; every covering file is a candidate.
    while (*next < files.size()) {
      const FileMetaData& f = files[(*next)++];
      if (icmp_->CompareUserKey(user_key, f.smallest.user_key()) >= 0 &&
          icmp_->CompareUserKey(user_key, f.largest.user_key()) <= 0) {
        return &f;
      }
    }
    return nullptr;
  }
  // Files are sorted by smallest key and disjoint: binary search for the
  // one covering file, then the level is done.
  size_t lo = *next, hi = files.size();
  *next = files.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (icmp_->CompareUserKey(files[mid].largest.user_key(), user_key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < files.size() &&
      icmp_->CompareUserKey(user_key, files[lo].smallest.user_key()) >= 0) {
    return &files[lo];
  }
  return nullptr;
}

std::vector<const FileMetaData*> Version::FilesOverlapping(
    int level, const Slice* begin, const Slice* end) const {
  std::vector<const FileMetaData*> result;
  const Comparator* ucmp = icmp_->user_comparator();
  for (const auto& f : files_[level]) {
    if (begin != nullptr &&
        ucmp->Compare(f.largest.user_key(), *begin) < 0) {
      continue;
    }
    if (end != nullptr && ucmp->Compare(f.smallest.user_key(), *end) > 0) {
      continue;
    }
    result.push_back(&f);
  }
  return result;
}

std::string Version::DebugString() const {
  std::string result;
  for (int level = 0; level < num_levels(); ++level) {
    if (files_[level].empty()) {
      continue;
    }
    int learned = 0, fence = 0, unopened = 0;
    for (const auto& f : files_[level]) {
      std::shared_ptr<TableReader> reader;
      if (f.table_handle != nullptr) {
        MutexLock lock(&f.table_handle->mu);
        reader = f.table_handle->reader;
      }
      if (reader == nullptr) {
        ++unopened;
      } else if (reader->index_type() == IndexType::kLearnedPLR) {
        ++learned;
      } else {
        ++fence;
      }
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "level %d (%s): %d files, %llu bytes | idx learned=%d "
                  "fence=%d unopened=%d\n",
                  level, IsTieredLevel(level) ? "tiered" : "leveled",
                  NumFiles(level),
                  static_cast<unsigned long long>(LevelBytes(level)), learned,
                  fence, unopened);
    result += buf;
  }
  return result;
}

// ---------------------------------------------------------------------------
// VersionSetBuilder: applies a sequence of edits to a base version.
// ---------------------------------------------------------------------------

class VersionSetBuilder {
 public:
  VersionSetBuilder(const Options* options, const InternalKeyComparator* icmp,
                    const Version* base)
      : options_(options), icmp_(icmp) {
    levels_.resize(static_cast<size_t>(options->num_levels));
    if (base != nullptr) {
      for (int level = 0; level < base->num_levels(); ++level) {
        for (const auto& f : base->files(level)) {
          levels_[level][f.file_number] = f;
        }
      }
    }
  }

  void Apply(const VersionEdit& edit) {
    for (const auto& [level, number] : edit.deleted_files()) {
      if (level < static_cast<int>(levels_.size())) {
        levels_[level].erase(number);
      }
    }
    for (const auto& [level, f] : edit.new_files()) {
      assert(level < static_cast<int>(levels_.size()));
      levels_[level][f.file_number] = f;
    }
  }

  std::shared_ptr<Version> Build() const {
    auto v = std::make_shared<Version>(options_, icmp_);
    for (size_t level = 0; level < levels_.size(); ++level) {
      auto& out = v->files_[level];
      out.reserve(levels_[level].size());
      for (const auto& [number, f] : levels_[level]) {
        out.push_back(f);
        if (out.back().table_handle == nullptr) {
          // A file from manifest replay: give it a reader pin. Outputs
          // arrive with the pin their writer attached, and files carried
          // over from the base version share their existing one, so a
          // reader resolved under any version stays pinned in every later
          // one.
          out.back().table_handle = std::make_shared<TableHandle>();
        }
      }
      if (level == 0 ||
          LevelIsTiered(options_->data_layout, static_cast<int>(level),
                        options_->num_levels)) {
        // Newest run first: higher file numbers are newer.
        std::sort(out.begin(), out.end(),
                  [](const FileMetaData& a, const FileMetaData& b) {
                    return a.file_number > b.file_number;
                  });
      } else {
        std::sort(out.begin(), out.end(),
                  [this](const FileMetaData& a, const FileMetaData& b) {
                    return icmp_->Compare(a.smallest.Encode(),
                                          b.smallest.Encode()) < 0;
                  });
      }
    }
    return v;
  }

 private:
  const Options* const options_;
  const InternalKeyComparator* const icmp_;
  std::vector<std::map<uint64_t, FileMetaData>> levels_;
};

// ---------------------------------------------------------------------------
// VersionSet
// ---------------------------------------------------------------------------

VersionSet::VersionSet(std::string dbname, const Options* options,
                       const InternalKeyComparator* icmp)
    : dbname_(std::move(dbname)),
      options_(options),
      icmp_(icmp),
      current_(std::make_shared<Version>(options, icmp)) {}

VersionSet::~VersionSet() = default;

Env* VersionSet::env() const { return options_->env; }

void VersionSet::MarkFileNumberUsed(uint64_t number) {
  MutexLock lock(&mu_);
  MarkFileNumberUsedLocked(number);
}

void VersionSet::MarkFileNumberUsedLocked(uint64_t number) {
  if (next_file_number_ <= number) {
    next_file_number_ = number + 1;
  }
}

Status VersionSet::WriteSnapshot(wal::Writer* writer) {
  VersionEdit edit;
  edit.SetComparatorName(icmp_->user_comparator()->Name());
  for (int level = 0; level < current_->num_levels(); ++level) {
    for (const auto& f : current_->files(level)) {
      edit.AddFile(level, f);
    }
  }
  edit.SetLogNumber(log_number_);
  edit.SetNextFileNumber(next_file_number_);
  edit.SetLastSequence(last_sequence_.load(std::memory_order_acquire));
  std::string record;
  edit.EncodeTo(&record);
  return writer->AddRecord(record);
}

Status VersionSet::CreateNew() {
  MutexLock lock(&mu_);
  return CreateNewLocked();
}

Status VersionSet::CreateNewLocked() {
  lock_rank::IoAllowedSection manifest_io(
      "Manifest creation runs under VersionSet::mu_ by design: the manifest "
      "is the state mu_ guards, and no other lock is reachable from here.");
  manifest_file_number_ = next_file_number_++;
  std::string manifest_name = ManifestFileName(dbname_, manifest_file_number_);
  Status s = env()->NewWritableFile(manifest_name, &manifest_file_);
  if (!s.ok()) {
    return s;
  }
  manifest_log_ = std::make_unique<wal::Writer>(manifest_file_.get());
  s = WriteSnapshot(manifest_log_.get());
  if (s.ok()) {
    s = manifest_file_->Sync();
  }
  if (s.ok()) {
    // Point CURRENT at the new manifest (atomically via temp + rename).
    std::string current_contents =
        manifest_name.substr(dbname_.size() + 1) + "\n";
    s = WriteStringToFile(env(), current_contents, CurrentFileName(dbname_));
  }
  return s;
}

Status VersionSet::WriteCheckpointManifest(const std::string& dir) {
  MutexLock lock(&mu_);
  lock_rank::IoAllowedSection checkpoint_io(
      "Checkpoint manifest snapshot runs under VersionSet::mu_ like every "
      "other manifest write: mu_ freezes the exact version being captured.");
  // Reuse the live manifest number: it is already below next_file_number_
  // (which the snapshot encodes), so a later open of the checkpoint never
  // collides when it rolls its own fresh manifest.
  const std::string manifest_name =
      ManifestFileName(dir, manifest_file_number_);
  std::unique_ptr<WritableFile> file;
  Status s = env()->NewWritableFile(manifest_name, &file);
  if (!s.ok()) {
    return s;
  }
  wal::Writer writer(file.get());
  s = WriteSnapshot(&writer);
  if (s.ok()) {
    s = file->Sync();
  }
  if (s.ok()) {
    s = file->Close();
  }
  if (!s.ok()) {
    // Best-effort cleanup of the torn snapshot; the write error wins.
    (void)env()->RemoveFile(manifest_name);
    return s;
  }
  std::string current_contents = manifest_name.substr(dir.size() + 1) + "\n";
  return WriteStringToFile(env(), current_contents, CurrentFileName(dir));
}

Status VersionSet::RollManifest() {
  MutexLock lock(&mu_);
  // Drop the (possibly torn) manifest handles before opening the new file;
  // a full snapshot of the current version replaces the edit history, so
  // nothing from the old manifest is needed again.
  manifest_log_.reset();
  manifest_file_.reset();
  return CreateNewLocked();
}

Status VersionSet::Recover() {
  MutexLock lock(&mu_);
  lock_rank::IoAllowedSection manifest_io(
      "Manifest replay reads CURRENT + the manifest under VersionSet::mu_ "
      "by design: recovery is single-threaded and mu_ guards the very state "
      "being rebuilt.");
  std::string current_contents;
  Status s =
      ReadFileToString(env(), CurrentFileName(dbname_), &current_contents);
  if (!s.ok()) {
    return s;
  }
  if (current_contents.empty() || current_contents.back() != '\n') {
    return Status::Corruption("CURRENT file malformed");
  }
  current_contents.pop_back();
  std::string manifest_name = dbname_ + "/" + current_contents;

  std::unique_ptr<SequentialFile> manifest;
  s = env()->NewSequentialFile(manifest_name, &manifest);
  if (!s.ok()) {
    return s;
  }

  struct Reporter : public wal::Reader::Reporter {
    Status status;
    void Corruption(size_t, const Status& s) override {
      if (status.ok()) {
        status = s;
      }
    }
  } reporter;

  VersionSetBuilder builder(options_, icmp_, current_.get());
  wal::Reader reader(manifest.get(), &reporter);
  Slice record;
  std::string scratch;
  bool have_log_number = false, have_next_file = false, have_last_seq = false;
  while (reader.ReadRecord(&record, &scratch)) {
    if (!reporter.status.ok()) {
      break;
    }
    VersionEdit edit;
    s = edit.DecodeFrom(record);
    if (!s.ok()) {
      return s;
    }
    if (edit.has_comparator() &&
        edit.comparator() != icmp_->user_comparator()->Name()) {
      return Status::InvalidArgument(
          "comparator does not match existing DB: ", edit.comparator());
    }
    builder.Apply(edit);
    if (edit.has_log_number()) {
      log_number_ = edit.log_number();
      have_log_number = true;
    }
    if (edit.has_next_file_number()) {
      next_file_number_ = edit.next_file_number();
      have_next_file = true;
    }
    if (edit.has_last_sequence()) {
      last_sequence_.store(edit.last_sequence(), std::memory_order_release);
      have_last_seq = true;
    }
  }
  // Manifest replay follows the WAL recovery policy: the manifest uses the
  // same log format, and every acknowledged record was fsynced by
  // LogAndApply, so a corrupt record can only be a torn unacked tail after
  // a crash. Point-in-time recovery keeps the prefix before the corruption;
  // absolute consistency refuses to open. The meta-fields check below still
  // rejects damage early enough to lose the required fields.
  if (!reporter.status.ok() &&
      options_->wal_recovery_mode == WalRecoveryMode::kAbsoluteConsistency) {
    return reporter.status;
  }
  if (!have_next_file || !have_log_number || !have_last_seq) {
    return Status::Corruption("manifest missing meta fields");
  }
  current_ = builder.Build();
  MarkFileNumberUsedLocked(log_number_);

  // Append future edits to a fresh manifest (simpler than appending to the
  // old one, and it compacts the edit history at every open).
  return CreateNewLocked();
}

Status VersionSet::LogAndApply(VersionEdit* edit) {
  MutexLock lock(&mu_);
  if (edit->has_log_number()) {
    assert(edit->log_number() >= log_number_);
  } else {
    edit->SetLogNumber(log_number_);
  }
  edit->SetNextFileNumber(next_file_number_);
  edit->SetLastSequence(last_sequence_.load(std::memory_order_acquire));

  VersionSetBuilder builder(options_, icmp_, current_.get());
  builder.Apply(*edit);
  auto new_version = builder.Build();
  Status s = CheckLevelInvariants(*new_version);
  if (!s.ok()) {
    return s;
  }

  assert(manifest_log_ != nullptr);
  std::string record;
  edit->EncodeTo(&record);
  {
    lock_rank::IoAllowedSection manifest_io(
        "Manifest append+fsync under VersionSet::mu_ is the install "
        "protocol: the write IS the state transition mu_ serializes "
        "(DESIGN.md, Locking discipline).");
    s = manifest_log_->AddRecord(record);
    if (s.ok()) {
      s = manifest_file_->Sync();
    }
  }
  if (!s.ok()) {
    return s;
  }

  // The outgoing version may still be pinned by readers; remember it so
  // AddLiveFiles keeps protecting its files until the last reference drops.
  referenced_versions_.push_back(current_);
  current_ = std::move(new_version);
  log_number_ = std::max(log_number_, edit->log_number());
  return Status::OK();
}

Status VersionSet::CheckLevelInvariants(const Version& v) const {
  const Comparator* ucmp = icmp_->user_comparator();
  for (int level = 1; level < v.num_levels(); ++level) {
    if (LevelIsTiered(options_->data_layout, level, options_->num_levels)) {
      continue;  // Tiered levels hold independent, overlapping runs.
    }
    const auto& files = v.files(level);
    for (size_t i = 1; i < files.size(); ++i) {
      if (ucmp->Compare(files[i - 1].largest.user_key(),
                        files[i].smallest.user_key()) >= 0) {
        return Status::Corruption(
            "overlapping files produced at leveled level " +
            std::to_string(level) + ": file " +
            std::to_string(files[i - 1].file_number) + " vs file " +
            std::to_string(files[i].file_number));
      }
    }
  }
  return Status::OK();
}

void VersionSet::AddLiveFiles(std::set<uint64_t>* live,
                              uint64_t* oldest_vlog) const {
  MutexLock lock(&mu_);
  auto add_version = [&](const Version& v) {
    for (int level = 0; level < v.num_levels(); ++level) {
      for (const auto& f : v.files(level)) {
        live->insert(f.file_number);
        if (oldest_vlog != nullptr && f.oldest_vlog != 0) {
          *oldest_vlog = std::min(*oldest_vlog, f.oldest_vlog);
        }
      }
    }
  };
  add_version(*current_);
  // Sweep older versions, pruning the ones nobody references anymore.
  // erase_if never move-assigns an entry onto itself, which would empty a
  // libstdc++ weak_ptr and drop a still-held version from the next sweep.
  std::erase_if(referenced_versions_,
                [&](const std::weak_ptr<const Version>& weak) {
                  std::shared_ptr<const Version> v = weak.lock();
                  if (v != nullptr) {
                    add_version(*v);
                  }
                  return v == nullptr;
                });
}

}  // namespace lsmlab
