#ifndef LSMLAB_UTIL_LOCK_RANK_H_
#define LSMLAB_UTIL_LOCK_RANK_H_

/// Runtime lock-rank validator and I/O-under-lock detector.
///
/// Every engine Mutex (util/mutex.h) carries a name and a LockRank from the
/// declared lock-order DAG in util/lock_order.h. When the validator is
/// compiled in (LSMLAB_LOCK_RANK_CHECKS — every debug/sanitizer build, see
/// the LSMLAB_LOCK_RANK CMake option), each thread keeps a stack of the
/// locks it holds and every acquisition is checked, *before* blocking,
/// against:
///
///   1. The declared DAG: the new lock's rank must be strictly greater
///      than the rank of every ranked lock already held. Equal-rank
///      nesting (two block-cache stripes, two shards' mu_) is a violation
///      — no engine path needs it, and forbidding it is what keeps the
///      N-shard topology deadlock-free without ordering shard visits.
///   2. A dynamically learned acquired-after graph: every observed
///      (held → acquired) pair is recorded with its acquisition backtrace.
///      A new edge that closes a cycle — which can only involve unranked
///      mutexes, since ranked ones are acyclic by rule 1 — aborts.
///   3. Self-deadlock: re-acquiring a mutex this thread already holds.
///
/// Violations print both acquisition stacks (the current one and the
/// recorded stack of the conflicting edge) and abort, so TSan-invisible
/// deadlock *potential* (an inversion that never races in the test run)
/// still fails the suite deterministically.
///
/// The I/O-under-lock detector rides on the same held-lock stack: Env
/// Append/Flush/Sync/Read/MultiRead paths call LSMLAB_CHECK_IO_UNDER_LOCK and
/// abort when any held lock's rank forbids I/O (RankForbidsIo). The few
/// deliberate I/O-under-lock sites (manifest writes under VersionSet::mu_,
/// WAL rotation sync under mu_) open an IoAllowedSection with a written
/// rationale; the lint pass (scripts/lint_invariants.py) enforces that the
/// rationale is a non-empty string literal.
///
/// Environment kill switch: LSMLAB_LOCK_RANK=off disables all checking at
/// startup even when compiled in (for bisecting validator overhead).

#include <cstdint>

#include "util/lock_order.h"

namespace lsmlab {

class Mutex;

namespace lock_rank {

#if defined(LSMLAB_LOCK_RANK_CHECKS)

/// True when checking is compiled in and not disabled via the
/// LSMLAB_LOCK_RANK=off environment variable. Cached after first call.
bool Enabled();

/// Pre-acquisition check + held-stack push. Called by Mutex::Lock with the
/// mutex's identity before the underlying lock() blocks. Aborts on a rank
/// inversion, a learned-graph cycle, or self-deadlock.
void OnLock(const Mutex* mu, LockRank rank, const char* name);

/// Held-stack push without ordering enforcement (TryLock success: a
/// non-blocking acquisition cannot deadlock, but the held lock must still
/// gate I/O and order later blocking acquisitions).
void OnTryLockAcquired(const Mutex* mu, LockRank rank, const char* name);

/// Held-stack pop. Tolerates non-LIFO release order.
void OnUnlock(const Mutex* mu);

/// Condition-variable wait discipline: the waited mutex must be the
/// innermost lock this thread holds. Waiting while holding a lock ordered
/// after the waited one means sleeping with a leaf lock pinned — a stall
/// (and deadlock, if the waker needs the leaf) TSan cannot see.
void OnCondVarWait(const Mutex* mu);

/// Aborts if any held lock's rank forbids I/O (RankForbidsIo) and no
/// IoAllowedSection is active on this thread. `op` and `detail` label the
/// report (e.g. "Sync", filename).
void CheckIoAllowed(const char* op, const char* detail);

/// Number of locks the calling thread currently holds (tests).
int HeldLockCount();

/// Enters/leaves the thread-local I/O-allowed scope. Use the RAII wrapper.
void PushIoAllowed();
void PopIoAllowed();

/// RAII escape hatch for the deliberate I/O-under-lock sites. The rationale
/// must be a string literal explaining why holding the lock across I/O is
/// the design rather than a bug; it is kept in the binary so a violation
/// report inside the scope can never be confused with an annotated site.
class IoAllowedSection {
 public:
  explicit IoAllowedSection(const char* rationale) : rationale_(rationale) {
    PushIoAllowed();
  }
  ~IoAllowedSection() { PopIoAllowed(); }

  IoAllowedSection(const IoAllowedSection&) = delete;
  IoAllowedSection& operator=(const IoAllowedSection&) = delete;

  const char* rationale() const { return rationale_; }

 private:
  const char* const rationale_;
};

#define LSMLAB_CHECK_IO_UNDER_LOCK(op, detail) \
  ::lsmlab::lock_rank::CheckIoAllowed((op), (detail))

#else  // !LSMLAB_LOCK_RANK_CHECKS

inline bool Enabled() { return false; }
inline int HeldLockCount() { return 0; }

/// No-op twin so annotated sites compile identically in release builds.
class IoAllowedSection {
 public:
  explicit IoAllowedSection(const char*) {}
};

#define LSMLAB_CHECK_IO_UNDER_LOCK(op, detail) \
  do {                                         \
  } while (0)

#endif  // LSMLAB_LOCK_RANK_CHECKS

}  // namespace lock_rank
}  // namespace lsmlab

#endif  // LSMLAB_UTIL_LOCK_RANK_H_
