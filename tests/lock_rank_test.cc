// Tests of the runtime lock-rank validator and the I/O-under-lock detector
// (src/util/lock_rank.h). The seeded-inversion cases are death tests: each
// deliberately violates the declared DAG in a forked child and asserts the
// validator aborts with a lock-rank report — proving the guardrail actually
// fires, not just that clean code stays clean. The sharded cases then prove
// the production N=4 2PC commit path is rank-clean end to end.
//
// The whole file is compiled only when the validator is (default for any
// non-Release build; see LSMLAB_LOCK_RANK in CMakeLists.txt).

#include <gtest/gtest.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/db.h"
#include "db/write_batch.h"
#include "io/env.h"
#include "io/mem_env.h"
#include "util/lock_rank.h"
#include "util/mutex.h"

#if defined(LSMLAB_LOCK_RANK_CHECKS)

namespace lsmlab {
namespace {

// ---------------------------------------------------------------------------
// Seeded inversions (death tests)
// ---------------------------------------------------------------------------

using LockRankDeathTest = ::testing::Test;

TEST(LockRankDeathTest, RankInversionAborts) {
  ASSERT_DEATH(
      {
        // kEngineMu (300) then kWriterQueue (200): the exact inversion the
        // writer-queue protocol forbids (writer_queue_mu_ is ACQUIRED_BEFORE
        // mu_), expressed with test-local mutexes.
        Mutex engine(LockRank::kEngineMu, "death.engine_mu");
        Mutex queue(LockRank::kWriterQueue, "death.writer_queue_mu");
        engine.Lock();
        queue.Lock();
      },
      "lock-rank violation: rank inversion");
}

TEST(LockRankDeathTest, EqualRankNestingAborts) {
  ASSERT_DEATH(
      {
        // Two same-rank locks at once — the invariant that keeps N-shard
        // visits deadlock-free without ordering them.
        Mutex shard_a(LockRank::kEngineMu, "death.shard_a_mu");
        Mutex shard_b(LockRank::kEngineMu, "death.shard_b_mu");
        shard_a.Lock();
        shard_b.Lock();
      },
      "lock-rank violation: equal-rank nested acquisition");
}

TEST(LockRankDeathTest, SelfDeadlockAborts) {
  ASSERT_DEATH(
      {
        Mutex mu(LockRank::kTest, "death.recursive_mu");
        mu.Lock();
        mu.Lock();
      },
      "lock-rank violation: self-deadlock");
}

TEST(LockRankDeathTest, LearnedCycleAmongUnrankedAborts) {
  ASSERT_DEATH(
      {
        // Unranked mutexes carry no declared order, so the first nesting
        // (a → b) merely teaches the graph. The opposite nesting closes a
        // cycle and must abort — this is the dynamically-learned half of
        // the validator, covering locks the DAG does not name.
        Mutex a;  // Unranked on purpose.
        Mutex b;
        a.Lock();
        b.Lock();
        b.Unlock();
        a.Unlock();
        b.Lock();
        a.Lock();
      },
      "lock-rank violation: cycle in the learned acquired-after graph");
}

TEST(LockRankDeathTest, CondVarWaitWithInnerLockHeldAborts) {
  ASSERT_DEATH(
      {
        Mutex outer(LockRank::kEngineMu, "death.wait_outer");
        Mutex inner(LockRank::kReadView, "death.wait_inner");
        CondVar cv;
        outer.Lock();
        inner.Lock();
        // Sleeping on `outer` would pin `inner` (a lock ordered after it)
        // for the whole wait; the waker may need it — a stall TSan cannot
        // see because no data race ever happens.
        cv.WaitForMicros(outer, 1000);
      },
      "lock-rank violation: condition wait");
}

TEST(LockRankDeathTest, TryLockOutOfOrderDoesNotAbort) {
  // TryLock cannot deadlock (it never blocks), so ordering is not enforced
  // on it — but the acquired lock still gates I/O and later acquisitions.
  Mutex engine(LockRank::kEngineMu, "trylock.engine_mu");
  Mutex queue(LockRank::kWriterQueue, "trylock.queue_mu");
  engine.Lock();
  ASSERT_TRUE(queue.TryLock());
  EXPECT_EQ(2, lock_rank::HeldLockCount());
  queue.Unlock();
  engine.Unlock();
  EXPECT_EQ(0, lock_rank::HeldLockCount());
}

// ---------------------------------------------------------------------------
// I/O-under-lock detection
// ---------------------------------------------------------------------------

TEST(LockRankDeathTest, FsyncUnderEngineMuAborts) {
  ASSERT_DEATH(
      {
        // An fsync while a lock ranked like ShardEngine::mu_ is held must be
        // caught.
        MemEnv env;
        std::unique_ptr<WritableFile> file;
        ASSERT_TRUE(env.NewWritableFile("/wal", &file).ok());
        ASSERT_TRUE(file->Append("payload").ok());
        Mutex engine_mu(LockRank::kEngineMu, "death.io_engine_mu");
        engine_mu.Lock();
        (void)file->Sync();
      },
      "I/O under lock: Sync");
}

TEST(LockRankDeathTest, ReadUnderLeafLockAborts) {
  ASSERT_DEATH(
      {
        MemEnv env;  // MemEnv carries the detector hooks directly.
        ASSERT_TRUE(WriteStringToFile(&env, "contents", "/sst").ok());
        std::unique_ptr<RandomAccessFile> file;
        ASSERT_TRUE(env.NewRandomAccessFile("/sst", &file).ok());
        Mutex stripe(LockRank::kBlockCacheShard, "death.io_cache_stripe");
        stripe.Lock();
        char scratch[8];
        Slice result;
        (void)file->Read(0, 8, &result, scratch);
      },
      "I/O under lock: Read");
}

TEST(LockRankDeathTest, RandomRWSyncUnderEngineMuAborts) {
  ASSERT_DEATH(
      {
        // The B+-tree baseline's page-file fsync is I/O like any other.
        MemEnv env;
        std::unique_ptr<RandomRWFile> file;
        ASSERT_TRUE(env.NewRandomRWFile("/pages", &file).ok());
        ASSERT_TRUE(file->Write(0, "page").ok());
        Mutex engine_mu(LockRank::kEngineMu, "death.io_engine_mu");
        engine_mu.Lock();
        (void)file->Sync();  // Aborts before returning.
      },
      "I/O under lock: Sync");
}

TEST(LockRankDeathTest, PosixEnvMultiReadUnderLeafLockAborts) {
  // MultiGet submits through the env-level MultiRead, which never reaches
  // the file-level check, so the env must run the check itself.
  Env* env = Env::Default();
  const std::string fname = ::testing::TempDir() + "lsmlab_lock_rank_" +
                            std::to_string(::getpid());
  ASSERT_TRUE(WriteStringToFile(env, "contents", fname).ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env->NewRandomAccessFile(fname, &file).ok());
  EXPECT_DEATH(  // EXPECT, not ASSERT: the cleanup below must still run.
      {
        char scratch[8];
        ReadRequest req;
        req.file = file.get();
        req.len = sizeof(scratch);
        req.scratch = scratch;
        Mutex stripe(LockRank::kBlockCacheShard, "death.io_cache_stripe");
        stripe.Lock();
        env->MultiRead(&req, 1);
      },
      "I/O under lock: MultiRead");
  file.reset();
  // Best-effort cleanup of the scratch file.
  (void)env->RemoveFile(fname);
}

TEST(LockRankTest, IoAllowedSectionSuppressesDetector) {
  MemEnv env;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile("/manifest", &file).ok());
  Mutex vs_mu(LockRank::kVersionSet, "test.version_set_mu");
  vs_mu.Lock();
  {
    lock_rank::IoAllowedSection io(
        "Test twin of the manifest-install escape: I/O under "
        "VersionSet-ranked lock is the documented design.");
    EXPECT_TRUE(file->Append("edit").ok());
    EXPECT_TRUE(file->Sync().ok());
  }
  vs_mu.Unlock();
}

TEST(LockRankTest, IoAllowedByRankNeedsNoSection) {
  // commit_mu_'s rank is io-allowed by declaration: the COMMITLOG fsync
  // under it IS the 2PC commit point.
  MemEnv env;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile("/COMMITLOG", &file).ok());
  Mutex commit_mu(LockRank::kCommitMu, "test.commit_mu");
  commit_mu.Lock();
  EXPECT_TRUE(file->Append("marker").ok());
  EXPECT_TRUE(file->Sync().ok());
  commit_mu.Unlock();
}

// ---------------------------------------------------------------------------
// Production topology: the N=4 2PC commit path is rank-clean
// ---------------------------------------------------------------------------

class ShardedRankCleanTest : public ::testing::Test {
 protected:
  ShardedRankCleanTest() {
    options_.env = &env_;
    options_.write_buffer_size = 4 << 10;  // Force WAL rotations + flushes.
    options_.max_bytes_for_level_base = 32 << 10;
    options_.target_file_size = 8 << 10;
    options_.block_size = 1024;
    options_.num_shards = 4;
    options_.shard_split_keys = {"g", "n", "t"};
  }

  static std::string Key(int i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%c%04d", 'a' + (i % 26), i);
    return buf;
  }

  MemEnv env_;
  Options options_;
};

TEST_F(ShardedRankCleanTest, CrossShardCommitsSnapshotsAndScans) {
  // Every operation here runs with the validator armed; any ordering or
  // I/O-under-lock slip in the commit_mu_ → writer_queue_mu_ → mu_ → leaf
  // chain aborts the test. Mixed sizes force group commit, WAL rotation,
  // flushes, and cross-shard 2PC (batches spanning all four ranges).
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options_, "/rankclean", &db).ok());
  ASSERT_EQ(4, db->num_shards());

  for (int round = 0; round < 30; ++round) {
    WriteBatch batch;
    for (int i = 0; i < 16; ++i) {
      int k = round * 16 + i;
      batch.Put(Key(k), std::string(64, static_cast<char>('a' + (k % 26))));
    }
    batch.Delete(Key(round));
    ASSERT_TRUE(db->Write(WriteOptions(), &batch).ok());
  }

  uint64_t snapshot = db->GetSnapshot();
  ASSERT_TRUE(db->Put(WriteOptions(), "zzz-post-snapshot", "v").ok());

  // Cross-shard consistent scan at the snapshot plus a current scan.
  for (uint64_t snap : {snapshot, uint64_t{0}}) {
    ReadOptions ro;
    ro.snapshot_seqno = snap;
    auto iter = db->NewIterator(ro);
    int entries = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      ++entries;
    }
    EXPECT_TRUE(iter->status().ok());
    EXPECT_GT(entries, 0);
  }
  db->ReleaseSnapshot(snapshot);

  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), Key(470), &value).ok());
  EXPECT_EQ(0, lock_rank::HeldLockCount());
  db.reset();

  // Reopen: recovery (WAL replay + manifest rebuild + 2PC resolution) must
  // also be rank-clean.
  ASSERT_TRUE(DB::Open(options_, "/rankclean", &db).ok());
  EXPECT_TRUE(db->Get(ReadOptions(), Key(470), &value).ok());
}

}  // namespace
}  // namespace lsmlab

#endif  // LSMLAB_LOCK_RANK_CHECKS
