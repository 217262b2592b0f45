#ifndef LSMLAB_KVSEP_VLOG_H_
#define LSMLAB_KVSEP_VLOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "io/env.h"
#include "util/mutex.h"
#include "util/options.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace lsmlab {

/// A pointer into the value log: the "value" stored in the LSM-tree for
/// separated entries (WiscKey, tutorial §2.2.2).
struct VlogPointer {
  uint64_t file_number = 0;
  uint64_t offset = 0;
  uint64_t size = 0;  // Payload size (the value bytes).

  void EncodeTo(std::string* dst) const;
  bool DecodeFrom(Slice input);
};

/// VlogManager owns the active value-log file of a DB: appends values and
/// serves random reads. Thread-safe. A log lives as a table file does: the
/// engine rolls it with the WAL and deletes it once no table of a live
/// Version and no live memtable points into it (DESIGN.md, "Key-value
/// separation").
///
/// Record format: varint32(key_len) varint32(value_len) value key. A read
/// checks that a pointer resolves to its own key (WiscKey's check), and a
/// scrub can parse a log on its own. The key comes last, so a record whose
/// append a crash tore anywhere fails the check, as long as the file
/// system keeps a prefix of each append (WiscKey relies on the same).
class VlogManager {
 public:
  VlogManager(std::string dbname, Env* env);

  VlogManager(const VlogManager&) = delete;
  VlogManager& operator=(const VlogManager&) = delete;

  /// Opens (or rolls to) the active log numbered `file_number`. The
  /// outgoing log is synced first; on failure the old log stays active.
  Status OpenActive(uint64_t file_number) EXCLUDES(mu_);

  /// Appends (key, value); returns the pointer to store in the LSM. After
  /// a failed append the log's end is unknown (part of the record may be
  /// on disk), so every later append fails with the same error until
  /// OpenActive rolls to a new log.
  Status Append(const Slice& key, const Slice& value, VlogPointer* ptr)
      EXCLUDES(mu_);

  /// Reads the value behind `ptr` and verifies the record is whole and its
  /// stored key matches. A caller that reads one log many times passes
  /// `file`, which then holds the log open across calls.
  Status Read(const VlogPointer& ptr, const Slice& expected_key,
              std::string* value,
              std::unique_ptr<RandomAccessFile>* file = nullptr);

  uint64_t active_file_number() const EXCLUDES(mu_) {
    // Must lock: OpenActive (a memtable seal) writes this field
    // concurrently with readers.
    MutexLock lock(&mu_);
    return active_file_number_;
  }

  /// Iterates every record of log `file_number` (the checksum scrub). The
  /// callback receives (key, value, pointer); returning false stops the
  /// walk. A record that runs past the end of the log is a torn tail, the
  /// one a crash or a failed append leaves, and ends the walk cleanly; a
  /// header that cannot parse with room to spare is Corruption.
  Status ForEachRecord(
      uint64_t file_number,
      const std::function<bool(const Slice& key, const Slice& value,
                               const VlogPointer& ptr)>& callback);

  /// Makes the active log durable; a no-op when nothing was appended since
  /// the last successful Sync.
  Status Sync() EXCLUDES(mu_);

 private:
  const std::string dbname_;
  Env* const env_;

  mutable Mutex mu_{LockRank::kVlog, "vlog.mu"};
  std::unique_ptr<WritableFile> active_file_ GUARDED_BY(mu_);
  uint64_t active_file_number_ GUARDED_BY(mu_) = 0;
  uint64_t active_offset_ GUARDED_BY(mu_) = 0;
  uint64_t synced_offset_ GUARDED_BY(mu_) = 0;  // Durable prefix of active.
  Status append_error_ GUARDED_BY(mu_);  // The active log's failed append.
};

}  // namespace lsmlab

#endif  // LSMLAB_KVSEP_VLOG_H_
