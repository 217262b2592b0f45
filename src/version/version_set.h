#ifndef LSMLAB_VERSION_VERSION_SET_H_
#define LSMLAB_VERSION_VERSION_SET_H_

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "db/dbformat.h"
#include "io/env.h"
#include "io/wal_writer.h"
#include "util/mutex.h"
#include "util/options.h"
#include "util/thread_annotations.h"
#include "version/version_edit.h"

namespace lsmlab {

/// True if level `level` holds multiple independent (possibly overlapping)
/// sorted runs under `layout`; false if its files form one sorted run.
/// This single predicate is where the four disk data layouts of tutorial
/// §2.2.2 differ.
bool LevelIsTiered(DataLayout layout, int level, int num_levels);

/// One sorted run: files of one level in key order, pairwise disjoint.
using SortedRun = std::span<const FileMetaData>;

/// Appends the sorted runs that `files` (some or all of `level`'s files, in
/// the level's order) form. A file of L0 (flushes are not key-partitioned,
/// so L0 files overlap in every layout) or of a tiered level is a one-file
/// run; a leveled level's files are sorted and disjoint, so together they
/// are one run. Iterators, compaction inputs and the run count all split
/// files into runs here.
void AppendSortedRuns(const Options& options, int level, SortedRun files,
                      std::vector<SortedRun>* runs);

/// An immutable snapshot of the tree shape: which files live at which level.
/// Shared by readers, flush, and compaction via shared_ptr; a new Version is
/// installed for every metadata change (MVCC over metadata).
class Version {
 public:
  Version(const Options* options, const InternalKeyComparator* icmp);

  int num_levels() const { return static_cast<int>(files_.size()); }
  const std::vector<FileMetaData>& files(int level) const {
    return files_[level];
  }
  int NumFiles(int level) const {
    return static_cast<int>(files_[level].size());
  }
  uint64_t LevelBytes(int level) const;
  uint64_t TotalBytes() const;
  uint64_t TotalEntries() const;

  /// Every sorted run of the tree in probe order: shallow levels first,
  /// newest run first within L0 and tiered levels (see AppendSortedRuns).
  std::vector<SortedRun> SortedRuns() const;

  /// Number of sorted runs a point lookup may need to probe, totalled over
  /// the tree — the tutorial's read-cost unit.
  int TotalSortedRuns() const { return static_cast<int>(SortedRuns().size()); }

  /// True if this level's files may overlap one another.
  bool IsTieredLevel(int level) const;

  /// The point-lookup walk over `level`'s files, in place: returns the next
  /// file at or after position `*next` that could contain `user_key`, in
  /// probe order (newest run first for L0 and tiered levels; the unique
  /// covering file for leveled), and moves `*next` past it. Returns nullptr
  /// once the level has no more. Start each level at *next == 0.
  const FileMetaData* NextFileContaining(int level, const Slice& user_key,
                                         size_t* next) const;

  /// Files of `level` overlapping the user-key range [begin, end]
  /// (inclusive). Null begin/end mean unbounded.
  std::vector<const FileMetaData*> FilesOverlapping(
      int level, const Slice* begin, const Slice* end) const;

  /// One line per non-empty level: layout, file count, bytes, and an
  /// index-kind census — files whose pinned reader carries a learned index
  /// vs. classic fence pointers. Files never opened by this process are
  /// reported as `unopened`: their kind is unknown without I/O, and
  /// introspection must not force table opens.
  std::string DebugString() const;

 private:
  friend class VersionSetBuilder;

  const Options* options_;
  const InternalKeyComparator* icmp_;
  std::vector<std::vector<FileMetaData>> files_;
};

/// Owns the version history, the manifest, and the file-number/sequence
/// counters. Internally synchronized: every field sits behind the leaf
/// mutex `mu_`, so each method is individually safe from any thread.
/// *Compound* invariants (e.g. "allocate a sequence range, then publish it
/// after the WAL write") are still the DB's job — it serializes mutators
/// under its own mutex, which is always acquired before this one (see
/// DESIGN.md, "Locking discipline"). Manifest I/O happens inside
/// LogAndApply with `mu_` held, which is acceptable at lsmlab's scale.
class VersionSet {
 public:
  VersionSet(std::string dbname, const Options* options,
             const InternalKeyComparator* icmp);
  ~VersionSet();

  VersionSet(const VersionSet&) = delete;
  VersionSet& operator=(const VersionSet&) = delete;

  /// Applies `edit` to the current version, persists it to the manifest as
  /// one record (recovery replays all of it or none), and installs the
  /// result as current.
  Status LogAndApply(VersionEdit* edit) EXCLUDES(mu_);

  /// Structural check run on every candidate version before it is installed:
  /// leveled levels (> 0) must hold files sorted by smallest key and
  /// pairwise disjoint on user keys. Guards the scheduler's claim that
  /// concurrent, range-disjoint compactions never produce overlapping files.
  /// Pure function of `v`; touches no guarded state.
  Status CheckLevelInvariants(const Version& v) const;

  /// Recovers state from an existing manifest (CURRENT must exist).
  Status Recover() EXCLUDES(mu_);

  /// Initializes a brand-new DB: writes the first manifest and CURRENT.
  Status CreateNew() EXCLUDES(mu_);

  /// Abandons the current manifest file and starts a fresh one holding a
  /// snapshot of the current version, repointing CURRENT at it. Used by
  /// DB::Resume() after a manifest write failure: the old manifest may end
  /// in a torn record, so appending to it is never safe again; a snapshot
  /// into a new file re-establishes a clean write point. The old manifest
  /// is garbage-collected by the next RemoveObsoleteFiles pass.
  Status RollManifest() EXCLUDES(mu_);

  /// Writes a fresh manifest snapshot of the current version into `dir` (a
  /// checkpoint directory), plus a CURRENT pointing at it — the live
  /// manifest handles are untouched. The caller must have frozen version
  /// installs (the engine holds its own mutex across the checkpoint
  /// capture), so the snapshot, the linked files, and the WAL set it names
  /// describe one consistent instant.
  Status WriteCheckpointManifest(const std::string& dir) EXCLUDES(mu_);

  std::shared_ptr<const Version> current() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return current_;
  }

  uint64_t NewFileNumber() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return next_file_number_++;
  }
  uint64_t next_file_number() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return next_file_number_;
  }
  /// Re-reserves `number` so recovery never reuses replayed file numbers.
  void MarkFileNumberUsed(uint64_t number) EXCLUDES(mu_);

  /// Lock-free: the read path loads this on every Get/iterator snapshot, so
  /// it must not contend with manifest writes. Acquire/release pairing makes
  /// a published sequence imply visibility of the write it covers.
  SequenceNumber last_sequence() const {
    return last_sequence_.load(std::memory_order_acquire);
  }
  void SetLastSequence(SequenceNumber s) {
    last_sequence_.store(s, std::memory_order_release);
  }

  uint64_t log_number() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return log_number_;
  }
  void SetLogNumber(uint64_t n) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    log_number_ = n;
  }

  uint64_t manifest_file_number() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return manifest_file_number_;
  }

  /// Collects the numbers of all files referenced by the current version or
  /// by any older version still pinned by a reader, iterator, or snapshot
  /// (their files must survive garbage collection until the last reference
  /// drops). When `oldest_vlog` is given, lowers it to the oldest value log
  /// any of those files points into.
  void AddLiveFiles(std::set<uint64_t>* live,
                    uint64_t* oldest_vlog = nullptr) const EXCLUDES(mu_);

 private:
  Status WriteSnapshot(wal::Writer* writer) REQUIRES(mu_);
  Status CreateNewLocked() REQUIRES(mu_);
  void MarkFileNumberUsedLocked(uint64_t number) REQUIRES(mu_);
  Env* env() const;

  const std::string dbname_;
  const Options* const options_;
  const InternalKeyComparator* const icmp_;

  /// Leaf lock: held across manifest writes, never while calling out to
  /// any component that takes another lock.
  mutable Mutex mu_{LockRank::kVersionSet, "version_set.mu"};

  std::shared_ptr<const Version> current_ GUARDED_BY(mu_);
  /// Weak handles on every version ever installed; expired entries are
  /// pruned on use. Lets AddLiveFiles see versions that readers still hold
  /// after newer versions replaced them (MVCC over metadata).
  mutable std::vector<std::weak_ptr<const Version>> referenced_versions_
      GUARDED_BY(mu_);
  uint64_t next_file_number_ GUARDED_BY(mu_) = 2;
  uint64_t manifest_file_number_ GUARDED_BY(mu_) = 0;
  std::atomic<SequenceNumber> last_sequence_{0};
  uint64_t log_number_ GUARDED_BY(mu_) = 0;

  std::unique_ptr<WritableFile> manifest_file_ GUARDED_BY(mu_);
  std::unique_ptr<wal::Writer> manifest_log_ GUARDED_BY(mu_);
};

}  // namespace lsmlab

#endif  // LSMLAB_VERSION_VERSION_SET_H_
