#ifndef LSMLAB_KVSEP_VLOG_H_
#define LSMLAB_KVSEP_VLOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

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

/// VlogManager owns the value-log files of a DB: appends values, serves
/// random reads, and reports garbage ratios for GC decisions. Thread-safe.
///
/// Record format: varint32(key_len) varint32(value_len) key value. Keys are
/// stored alongside values so GC can check liveness without a reverse index.
class VlogManager {
 public:
  VlogManager(std::string dbname, Env* env);

  VlogManager(const VlogManager&) = delete;
  VlogManager& operator=(const VlogManager&) = delete;

  /// Adds the logs already in the directory to TotalBytes(): garbage
  /// counts dead values in every log, not only in this process's appends.
  /// Called once at open, before the first OpenActive.
  Status CountExistingLogs() EXCLUDES(mu_);

  /// Opens (or rolls to) the active log numbered `file_number`.
  Status OpenActive(uint64_t file_number) EXCLUDES(mu_);

  /// Appends (key, value); returns the pointer to store in the LSM.
  Status Append(const Slice& key, const Slice& value, VlogPointer* ptr)
      EXCLUDES(mu_);

  /// Reads the value behind `ptr` and verifies the stored key matches.
  Status Read(const VlogPointer& ptr, const Slice& expected_key,
              std::string* value);

  /// Accounts `bytes` of a now-dead value (its LSM pointer was dropped).
  /// Ignored unless `file_number` is a live log: one found at open or
  /// opened since, and not deleted.
  void AddGarbage(uint64_t file_number, uint64_t bytes) EXCLUDES(mu_);

  /// Fraction of TotalBytes() known dead, across all logs.
  double GarbageRatio() const EXCLUDES(mu_);

  /// Bytes in the live logs: those found at open, plus appends, less the
  /// logs deleted since.
  uint64_t TotalBytes() const EXCLUDES(mu_);
  uint64_t GarbageBytes() const EXCLUDES(mu_);
  uint64_t active_file_number() const EXCLUDES(mu_) {
    // Must lock: OpenActive (GC roll-over) writes this field concurrently
    // with readers. Previously returned the field bare — a torn/stale read
    // the annotation sweep surfaced.
    MutexLock lock(&mu_);
    return active_file_number_;
  }

  /// Iterates every record of log `file_number` (GC support). The callback
  /// receives (key, value, pointer); returning false stops the walk.
  Status ForEachRecord(
      uint64_t file_number,
      const std::function<bool(const Slice& key, const Slice& value,
                               const VlogPointer& ptr)>& callback);

  /// Removes a fully rewritten log file and its bytes from TotalBytes().
  Status DeleteLog(uint64_t file_number) EXCLUDES(mu_);

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
  uint64_t total_bytes_ GUARDED_BY(mu_) = 0;
  /// Dead bytes per live log; its keys are the set of live logs.
  std::unordered_map<uint64_t, uint64_t> garbage_bytes_ GUARDED_BY(mu_);
};

}  // namespace lsmlab

#endif  // LSMLAB_KVSEP_VLOG_H_
