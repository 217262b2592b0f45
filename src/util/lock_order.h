#ifndef LSMLAB_UTIL_LOCK_ORDER_H_
#define LSMLAB_UTIL_LOCK_ORDER_H_

#include <cstdint>

namespace lsmlab {

/// The declared lock-order DAG of the whole engine, as one total-orderable
/// rank space. A thread may acquire a mutex only while every mutex it
/// already holds has a *strictly smaller* rank — so the declared hierarchy
/// is acyclic by construction and the runtime validator (util/lock_rank.h)
/// can check every acquisition in O(held locks).
///
/// This is the machine-checked companion of DESIGN.md "Locking discipline"
/// and the single place the full hierarchy is written down. PR 3's Clang
/// `ACQUIRED_BEFORE` annotations still hold for the static pairs they can
/// express (writer_queue_mu_ before mu_); the ranks cover what they cannot:
/// a dynamic array of N ShardEngine lock sets under one facade commit lock,
/// and the shared leaf resources (block cache, rate limiter, thread pool,
/// statistics) reachable from every shard.
///
///   ShardedDB::commit_mu_                               (kCommitMu)
///     └─ ShardEngine::writer_queue_mu_  [× N shards]    (kWriterQueue)
///          └─ ShardEngine::mu_          [× N shards]    (kEngineMu)
///               ├─ VersionSet::mu_                      (kVersionSet)
///               ├─ VlogManager::mu_                     (kVlog)
///               ├─ CompactionPicker::mu_                (kCompactionPicker)
///               ├─ CompactionJob::shard_mu_             (kCompactionJob)
///               ├─ ShardEngine::read_view_mu_           (kReadView)
///               ├─ TableHandle::mu                      (kTableHandle)
///               ├─ LruCache::Shard::mu                  (kBlockCacheShard)
///               ├─ RateLimiter::mu_                     (kRateLimiter)
///               ├─ ThreadPool::mu_                      (kThreadPool)
///               └─ Statistics histogram locks           (kStatistics)
///                    └─ Env-wrapper locks               (kIoWrapperEnv)
///                         └─ Env-internal locks         (kIoEnv)
///                         └─ Logger locks               (kLogger)
///
/// Cross-shard note: a cross-shard commit holds commit_mu_ while it takes
/// the write-queue *leadership* of each involved shard in ascending shard
/// order (LogCrossShard), and keeps every one until the commit record is
/// synced and each slice applied (EndCrossShard). Leadership is a protocol
/// on top of writer_queue_mu_, not a held mutex: each shard's
/// writer_queue_mu_/mu_ is acquired and released before the next shard is
/// touched, so no thread ever holds two same-rank mutexes at once (the
/// validator treats an equal-rank nested acquisition as a violation). The
/// leaderships cannot deadlock: only the facade, under commit_mu_, leads
/// more than one queue, and it takes them in a fixed order; every other
/// leader leads one queue and waits for nothing a queue holder owns.
enum class LockRank : uint16_t {
  /// Opted out of rank checking (generic/test code, short-lived local
  /// latches). Still participates in the learned acquired-after graph, so
  /// a cycle among unranked mutexes is caught dynamically.
  kUnranked = 0,

  // --- Facade ---------------------------------------------------------
  /// ShardedDB::commit_mu_: serializes cross-shard commits, snapshot cuts,
  /// and COMMITLOG writes. Outermost lock of the system; explicitly an
  /// I/O-covering lock (the COMMITLOG fsync under it IS the commit point,
  /// and the shards' synced slice appends happen inside its scope).
  kCommitMu = 100,

  // --- Per-shard engine core ------------------------------------------
  /// ShardEngine::writer_queue_mu_: group-commit queue. Held only for
  /// queue manipulation; never across WAL I/O (the leader protocol is the
  /// WAL's lock).
  kWriterQueue = 200,
  /// ShardEngine::mu_: the per-shard DB mutex. I/O under it is forbidden
  /// except inside the explicitly annotated IoAllowedSection sites (WAL
  /// rotation sync, manifest install — see lock_rank.h).
  kEngineMu = 300,

  // --- Engine-internal leaf locks (acquired under mu_, one at a time) --
  /// VersionSet::mu_: version list + manifest state. Manifest writes
  /// happen under it by documented design (IoAllowedSection inside
  /// VersionSet's manifest I/O methods).
  kVersionSet = 400,
  /// VlogManager::mu_: active value-log file. Value-log appends happen
  /// under it by design (the lock serializes the active file).
  kVlog = 410,
  /// CompactionPicker::mu_: round-robin cursors only.
  kCompactionPicker = 420,
  /// CompactionJob::shard_mu_: subcompaction completion latch.
  kCompactionJob = 430,

  // --- Read-path leaf locks -------------------------------------------
  /// ShardEngine::read_view_mu_: published ReadView pointer swap.
  kReadView = 500,
  /// TableHandle::mu: per-file reader pin (pointer copy only).
  kTableHandle = 530,
  /// LruCache::Shard::mu: block-cache stripe.
  kBlockCacheShard = 540,

  // --- Shared process-wide resources ----------------------------------
  /// RateLimiter::mu_: token bucket (sleeps under it, no I/O).
  kRateLimiter = 600,
  /// ThreadPool::mu_: work queues.
  kThreadPool = 610,
  /// Statistics histogram locks.
  kStatistics = 620,

  // --- I/O substrate (innermost; held *during* I/O by definition) ------
  /// Env-*wrapper* state locks (FaultInjectionEnv's rule/file tables):
  /// held while calling into the wrapped env, so ordered before kIoEnv.
  kIoWrapperEnv = 690,
  /// Env-internal state locks: MemEnv file table, POSIX env internals.
  kIoEnv = 700,
  /// Logger serialization (fprintf interleaving).
  kLogger = 720,

  /// Test-only mutexes that want ordering checks without joining the
  /// production hierarchy. Ranked after everything so holding one can
  /// never constrain engine locks.
  kTest = 900,
};

/// True for ranks that must never be held across Env I/O
/// (Append/Sync/Read/MultiRead) — the latency/deadlock class the
/// I/O-under-lock detector aborts on. Ranks held across I/O *by documented
/// design* (commit_mu_, vlog, the I/O substrate itself) return false.
constexpr bool RankForbidsIo(LockRank rank) {
  switch (rank) {
    case LockRank::kUnranked:
    case LockRank::kCommitMu:  // COMMITLOG fsync is the commit point.
    case LockRank::kVlog:      // Value-log appends serialize on this lock.
    case LockRank::kIoWrapperEnv:
    case LockRank::kIoEnv:
    case LockRank::kLogger:
    case LockRank::kTest:
      return false;
    default:
      return true;
  }
}

}  // namespace lsmlab

#endif  // LSMLAB_UTIL_LOCK_ORDER_H_
