#ifndef LSMLAB_IO_FAULT_INJECTION_ENV_H_
#define LSMLAB_IO_FAULT_INJECTION_ENV_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "io/env.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/thread_annotations.h"

namespace lsmlab {

/// Bitmask selecting which DB files a fault rule applies to (classified by
/// filename via db/filename.h).
enum FaultFileKind : uint32_t {
  kFaultWal = 1u << 0,
  kFaultTable = 1u << 1,
  kFaultManifest = 1u << 2,
  kFaultVlog = 1u << 3,
  kFaultCurrent = 1u << 4,
  kFaultOther = 1u << 5,  // CURRENT temp files, unknown names.
  kFaultCommitLog = 1u << 6,  // Sharded facade's cross-shard commit log.
  kFaultAnyFile = 0xffffffffu,
};

/// Bitmask selecting which operations a fault rule intercepts.
enum FaultOp : uint32_t {
  kFaultOpOpen = 1u << 0,    // NewWritableFile
  kFaultOpAppend = 1u << 1,  // WritableFile::Append
  kFaultOpSync = 1u << 2,    // WritableFile::Sync
  kFaultOpRead = 1u << 3,    // Sequential / random-access reads
  kFaultOpRename = 1u << 4,  // Env::RenameFile (matched on source name)
  kFaultOpRemove = 1u << 5,  // Env::RemoveFile
  kFaultOpLink = 1u << 6,    // Env::LinkFile (matched on source name)
};

/// One fault program: scripted (`at_op_index`) or probabilistic (`one_in`)
/// injection into the matching (file kind x operation) set. Transient
/// faults are expressed with `max_failures`; a rule with max_failures < 0
/// injects forever (a hard device failure).
struct FaultRule {
  uint32_t file_kinds = kFaultAnyFile;
  uint32_t ops = 0;
  /// Probabilistic: each matching op fails with probability 1/one_in
  /// (0 disables the probabilistic trigger).
  uint64_t one_in = 0;
  /// Scripted: exactly the at_op_index-th matching op (0-based) fails.
  /// -1 disables the scripted trigger.
  int64_t at_op_index = -1;
  /// Stop injecting after this many failures; < 0 means unlimited.
  int64_t max_failures = -1;
  /// Read rules only: instead of failing the read, flip one bit in the
  /// returned data (silent corruption; exercises checksum paths).
  bool flip_bit = false;
  /// The error injected failures return.
  Status error = Status::IOError("injected fault");

  /// A disk-full (ENOSPC) rule for the given file kinds and ops: same
  /// machinery, but the injected error carries the POSIX no-space message
  /// so ErrorState can classify it (soft for flush/compaction outputs,
  /// hard for WAL/manifest). `max_failures` bounds the outage; < 0 means
  /// the disk never frees up.
  static FaultRule NoSpace(uint32_t file_kinds, uint32_t ops,
                           int64_t at_op_index = 0,
                           int64_t max_failures = -1) {
    FaultRule rule;
    rule.file_kinds = file_kinds;
    rule.ops = ops;
    rule.at_op_index = at_op_index;
    rule.max_failures = max_failures;
    rule.error = Status::IOError("No space left on device");
    return rule;
  }
};

/// True when `s` is the disk-full error FaultRule::NoSpace injects (or a
/// real POSIX ENOSPC surfaced through PosixError). The kFaultNoSpace test
/// axes use this to assert the right error reached the right layer.
bool IsNoSpaceError(const Status& s);

/// Env decorator for robustness testing (peer of CountingEnv/LatencyEnv):
/// injects scripted or probabilistic I/O errors per file kind and op, and
/// simulates process crashes. Writes pass through to the base env (the DB
/// reads its own unsynced output, e.g. vlog values), but every byte
/// appended after the file's last successful Sync() is tracked; a "crash"
/// (SetFilesystemActive(false) -> close DB -> DropUnsyncedData()) truncates
/// each file back to its synced prefix — never-synced files disappear
/// entirely — optionally leaving a deterministic torn tail. Thread-safe;
/// does not take ownership of `base`.
class FaultInjectionEnv final : public EnvWrapper {
 public:
  explicit FaultInjectionEnv(Env* base, uint64_t seed = 0xfeedfacedeadbeefull);

  // --- Fault programs ------------------------------------------------------
  /// Installs a rule; returns its index (for debugging).
  size_t AddRule(const FaultRule& rule) EXCLUDES(mu_);
  void ClearRules() EXCLUDES(mu_);
  /// Total faults injected by rules (not by the crash kill switch).
  uint64_t injected_faults() const {
    return injected_faults_.load(std::memory_order_relaxed);
  }

  /// Convenience kill switch matching the old test-local FailSwitchEnv:
  /// while set, every Append and Sync on every file fails.
  void SetFailWrites(bool fail) {
    fail_writes_.store(fail, std::memory_order_relaxed);
  }

  // --- Crash simulation ----------------------------------------------------
  /// While inactive, every mutating operation (opens, appends, syncs,
  /// renames, removals, mkdir) fails as if the device vanished; reads keep
  /// working. This freezes on-disk state at the crash point so the DB can
  /// be shut down without its background work mutating anything further.
  void SetFilesystemActive(bool active) {
    filesystem_active_.store(active, std::memory_order_relaxed);
  }
  bool filesystem_active() const {
    return filesystem_active_.load(std::memory_order_relaxed);
  }

  /// Completes the crash: rewinds every tracked file to its last-synced
  /// prefix (deleting files that were never synced). With
  /// torn_tail_one_in > 0, each file that lost bytes keeps — with
  /// probability 1/n — a random-length prefix of its unsynced tail whose
  /// final byte is corrupted (a torn write). Deterministic given the
  /// constructor seed. Requires all DB handles into this env to be closed.
  Status DropUnsyncedData(uint64_t torn_tail_one_in = 0) EXCLUDES(mu_);

  // --- Env interface -------------------------------------------------------
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  Status NewRandomRWFile(const std::string& fname,
                         std::unique_ptr<RandomRWFile>* result) override;
  Status RemoveFile(const std::string& fname) override;
  Status CreateDir(const std::string& dirname) override;
  Status RemoveDir(const std::string& dirname) override;
  Status RenameFile(const std::string& src, const std::string& target) override;
  /// Forwards the link and copies the source's synced-prefix bookkeeping to
  /// the target: a linked file is exactly as durable as its source, so a
  /// later crash must not spuriously "tear" an immutable linked SSTable.
  Status LinkFile(const std::string& src, const std::string& target) override;
  /// Batched reads with serial-equivalent fault semantics: every
  /// injected-error rule check runs in request order before dispatch, every
  /// flip_bit check in request order after completion, so scripted
  /// at_op_index rules fire on the same per-rule op index as a serial Read
  /// loop over the same requests. The base env sees the surviving requests
  /// as one cross-file batch.
  void MultiRead(ReadRequest* reqs, size_t n) override;

  // Internal taps used by the wrapper file classes (public for them only).
  /// Returns true (filling *error) when a rule fires for (fname, op).
  bool MaybeInjectFault(const std::string& fname, FaultOp op, Status* error)
      EXCLUDES(mu_);
  /// Read-side corruption: true when a flip_bit read rule fires for fname.
  bool MaybeCorruptRead(const std::string& fname) EXCLUDES(mu_);
  void OnAppend(const std::string& fname, uint64_t bytes) EXCLUDES(mu_);
  void OnSync(const std::string& fname) EXCLUDES(mu_);
  bool fail_writes() const {
    return fail_writes_.load(std::memory_order_relaxed);
  }

 private:
  /// Write-through bookkeeping for one file created via this env.
  struct FileState {
    uint64_t size = 0;    // Bytes successfully appended.
    uint64_t synced = 0;  // Size at the last successful Sync().
  };
  struct RuleState {
    FaultRule rule;
    int64_t matched = 0;   // Ops seen matching (kinds x ops).
    int64_t injected = 0;  // Faults this rule has injected.
  };

  static uint32_t FileKindOf(const std::string& fname);
  bool RuleFires(RuleState* rs) REQUIRES(mu_);

  std::atomic<bool> filesystem_active_{true};
  std::atomic<bool> fail_writes_{false};
  std::atomic<uint64_t> injected_faults_{0};
  /// Cheap gate so fault-free runs skip the mutex on every op.
  std::atomic<bool> have_rules_{false};

  mutable Mutex mu_{LockRank::kIoWrapperEnv, "fault_injection_env.mu"};
  Random rng_ GUARDED_BY(mu_);
  std::vector<RuleState> rules_ GUARDED_BY(mu_);
  std::map<std::string, FileState> files_ GUARDED_BY(mu_);
};

}  // namespace lsmlab

#endif  // LSMLAB_IO_FAULT_INJECTION_ENV_H_
