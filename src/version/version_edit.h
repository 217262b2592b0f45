#ifndef LSMLAB_VERSION_VERSION_EDIT_H_
#define LSMLAB_VERSION_VERSION_EDIT_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "db/dbformat.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace lsmlab {

class TableReader;

/// Lazily resolved pin on a file's open TableReader, shared by every
/// Version (and FileMetaData copy) that references the file. The first
/// lookup opens the file through the engine's TableCache and publishes the
/// reader here; later reads copy the pin under this handle's own
/// pointer-sized lock — contention exists only among readers of the same
/// file, never across files. The pin is the only reference the engine
/// keeps, so the reader closes with the last Version that references the
/// file.
struct TableHandle {
  Mutex mu{LockRank::kTableHandle, "table_handle.mu"};
  std::shared_ptr<TableReader> reader GUARDED_BY(mu);
};

/// Metadata describing one sorted-run file. In leveled levels the files of a
/// level are disjoint and together form one run; in tiered levels (and L0)
/// each file is its own run and files may overlap.
struct FileMetaData {
  uint64_t file_number = 0;
  uint64_t file_size = 0;
  InternalKey smallest;
  InternalKey largest;
  uint64_t num_entries = 0;
  uint64_t num_tombstones = 0;
  /// Microsecond timestamp of creation; FADE derives tombstone age from the
  /// oldest_tombstone_time below.
  uint64_t creation_time_micros = 0;
  /// Creation time of the oldest ancestor run that contributed a tombstone
  /// still present in this file; 0 when the file holds no tombstones.
  uint64_t oldest_tombstone_time_micros = 0;
  /// The lowest-numbered value log any of this file's vlog pointers points
  /// into; 0 when it holds none. The engine keeps every log at or above the
  /// smallest of these across its live Versions.
  uint64_t oldest_vlog = 0;
  /// Runtime-only reader pin (see TableHandle); never serialized. Attached
  /// by the OutputWriter that wrote the file, or by VersionSetBuilder::Build
  /// on manifest replay, so every file in an installed Version has one, and
  /// copies of the metadata share it.
  std::shared_ptr<TableHandle> table_handle;
};

/// A delta between two versions of the tree, serialized as one manifest
/// record. Replaying all edits reconstructs the live file set exactly.
class VersionEdit {
 public:
  void Clear();

  void SetComparatorName(const Slice& name) {
    has_comparator_ = true;
    comparator_ = name.ToString();
  }
  void SetLogNumber(uint64_t num) {
    has_log_number_ = true;
    log_number_ = num;
  }
  void SetNextFileNumber(uint64_t num) {
    has_next_file_number_ = true;
    next_file_number_ = num;
  }
  void SetLastSequence(SequenceNumber seq) {
    has_last_sequence_ = true;
    last_sequence_ = seq;
  }

  void AddFile(int level, const FileMetaData& file) {
    new_files_.emplace_back(level, file);
  }
  void RemoveFile(int level, uint64_t file_number) {
    deleted_files_.insert(std::make_pair(level, file_number));
  }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(const Slice& src);

  // Accessors used by VersionSet during apply/recover.
  const std::vector<std::pair<int, FileMetaData>>& new_files() const {
    return new_files_;
  }
  const std::set<std::pair<int, uint64_t>>& deleted_files() const {
    return deleted_files_;
  }
  bool has_comparator() const { return has_comparator_; }
  const std::string& comparator() const { return comparator_; }
  bool has_log_number() const { return has_log_number_; }
  uint64_t log_number() const { return log_number_; }
  bool has_next_file_number() const { return has_next_file_number_; }
  uint64_t next_file_number() const { return next_file_number_; }
  bool has_last_sequence() const { return has_last_sequence_; }
  SequenceNumber last_sequence() const { return last_sequence_; }

 private:
  std::string comparator_;
  uint64_t log_number_ = 0;
  uint64_t next_file_number_ = 0;
  SequenceNumber last_sequence_ = 0;
  bool has_comparator_ = false;
  bool has_log_number_ = false;
  bool has_next_file_number_ = false;
  bool has_last_sequence_ = false;

  std::set<std::pair<int, uint64_t>> deleted_files_;
  std::vector<std::pair<int, FileMetaData>> new_files_;
};

}  // namespace lsmlab

#endif  // LSMLAB_VERSION_VERSION_EDIT_H_
