#ifndef LSMLAB_DB_ERROR_STATE_H_
#define LSMLAB_DB_ERROR_STATE_H_

#include <cstdint>

#include "util/status.h"

namespace lsmlab {

/// How bad a background error is (DESIGN.md, "Failure model & recovery").
enum class ErrorSeverity {
  kNone,
  /// Retryable: the failed work left no partially-published state (a flush
  /// or compaction whose output never reached the manifest). The DB retries
  /// it automatically with capped exponential backoff.
  kSoft,
  /// Not retryable in place: the failure may have left ambiguous on-disk
  /// state (a torn manifest record, a WAL whose write offset is unknown
  /// after a failed append/fsync). The DB enters read-only mode until
  /// DB::Resume() re-establishes a clean write point.
  kHard,
};

/// Which subsystem produced the error.
enum class ErrorSource {
  kNone,
  kFlush,
  kCompaction,
  kWal,
  kManifest,
  /// A write group was partially applied to the memtable; unrecoverable
  /// without reopening (flushing the memtable would persist unacked writes).
  kMemtable,
  /// The facade's commit record for a cross-shard batch this shard logged
  /// failed to append or sync, so whether the batch committed is unknown
  /// until a reopen reads the commit log.
  kCommitLog,
};

inline const char* ErrorSeverityName(ErrorSeverity severity) {
  switch (severity) {
    case ErrorSeverity::kNone:
      return "none";
    case ErrorSeverity::kSoft:
      return "soft";
    case ErrorSeverity::kHard:
      return "hard";
  }
  return "unknown";
}

inline const char* ErrorSourceName(ErrorSource source) {
  switch (source) {
    case ErrorSource::kNone:
      return "none";
    case ErrorSource::kFlush:
      return "flush";
    case ErrorSource::kCompaction:
      return "compaction";
    case ErrorSource::kWal:
      return "wal";
    case ErrorSource::kManifest:
      return "manifest";
    case ErrorSource::kMemtable:
      return "memtable";
    case ErrorSource::kCommitLog:
      return "commit_log";
  }
  return "unknown";
}

/// The DB's background-error condition: the current (possibly cleared)
/// error plus permanent provenance of the *first* error ever recorded, so
/// a cascade of follow-on failures cannot mask the root cause (the old bare
/// `background_error_` returned whichever failure happened to be last).
/// Guarded by the DB mutex; this struct itself is just plain data.
struct ErrorState {
  Status status;  // OK iff severity == kNone.
  ErrorSeverity severity = ErrorSeverity::kNone;
  ErrorSource source = ErrorSource::kNone;

  /// First error ever recorded. Set once, survives ClearCurrent()/Resume().
  Status first_status;
  ErrorSource first_source = ErrorSource::kNone;
  uint64_t first_error_micros = 0;

  bool ok() const { return severity == ErrorSeverity::kNone; }
  bool hard() const { return severity == ErrorSeverity::kHard; }
  /// Only a reopen clears a memtable or commit-log error; Resume() refuses.
  bool needs_reopen() const {
    return source == ErrorSource::kMemtable ||
           source == ErrorSource::kCommitLog;
  }

  /// Records an error. Severity never downgrades: a soft report cannot
  /// overwrite an outstanding hard error.
  void Record(const Status& s, ErrorSeverity sev, ErrorSource src,
              uint64_t now_micros) {
    if (first_source == ErrorSource::kNone) {
      first_status = s;
      first_source = src;
      first_error_micros = now_micros;
    }
    if (hard() && sev != ErrorSeverity::kHard) {
      return;
    }
    status = s;
    severity = sev;
    source = src;
  }

  /// Clears the current error (retry succeeded, or Resume() repaired the
  /// write point). First-error provenance is preserved.
  void ClearCurrent() {
    status = Status::OK();
    severity = ErrorSeverity::kNone;
    source = ErrorSource::kNone;
  }
};

}  // namespace lsmlab

#endif  // LSMLAB_DB_ERROR_STATE_H_
