// Crash-safety and fault-injection tests: torn WAL tails, corrupted
// manifests, obsolete-file GC, repeated reopen cycles, and process kills on
// real files.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/db.h"
#include "db/filename.h"
#include "db/shard_directory.h"
#include "io/env.h"
#include "io/fault_injection_env.h"
#include "io/mem_env.h"
#include "util/random.h"
#include "version/version_edit.h"

namespace lsmlab {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() {
    options_.env = &env_;
    options_.write_buffer_size = 8 << 10;
    options_.max_bytes_for_level_base = 64 << 10;
  }

  void Open() { ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok()); }
  void Close() { db_.reset(); }
  void Reopen() {
    Close();
    Open();
  }

  std::string Get(const std::string& key) {
    std::string value;
    Status s = db_->Get(ReadOptions(), key, &value);
    return s.ok() ? value : (s.IsNotFound() ? "NOT_FOUND" : s.ToString());
  }

  /// Finds files of `type` in the DB dir.
  std::vector<std::string> FilesOfType(FileType want) {
    std::vector<std::string> children, result;
    EXPECT_TRUE(env_.GetChildren("/db", &children).ok());
    for (const auto& child : children) {
      uint64_t number;
      FileType type;
      if (ParseFileName(child, &number, &type) && type == want) {
        result.push_back("/db/" + child);
      }
    }
    return result;
  }

  void TruncateFile(const std::string& path, size_t drop_bytes) {
    std::string contents;
    ASSERT_TRUE(ReadFileToString(&env_, path, &contents).ok());
    ASSERT_GT(contents.size(), drop_bytes);
    contents.resize(contents.size() - drop_bytes);
    ASSERT_TRUE(WriteStringToFile(&env_, contents, path).ok());
  }

  void CorruptFile(const std::string& path, size_t offset) {
    std::string contents;
    ASSERT_TRUE(ReadFileToString(&env_, path, &contents).ok());
    ASSERT_GT(contents.size(), offset);
    contents[offset] ^= 0x42;
    ASSERT_TRUE(WriteStringToFile(&env_, contents, path).ok());
  }

  MemEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

/// Closes a fixture's DB when a test body ends. A test that opens db_ on an
/// env declared in its own body declares one of these right after the env:
/// otherwise db_, a fixture member, outlives that env, and background work
/// still running at the end of the test touches a destroyed env.
struct CloseDbFirst {
  std::unique_ptr<DB>* db;
  ~CloseDbFirst() { db->reset(); }
};

TEST_F(RecoveryTest, TornWalTailLosesOnlyTheTornWrite) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "committed1", "v1").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "committed2", "v2").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "torn", "vX").ok());
  Close();

  // Simulate a crash mid-write: chop bytes off the newest WAL.
  auto logs = FilesOfType(FileType::kLogFile);
  ASSERT_FALSE(logs.empty());
  TruncateFile(logs.back(), 3);

  Open();
  EXPECT_EQ("v1", Get("committed1"));
  EXPECT_EQ("v2", Get("committed2"));
  // The torn record is gone — not corrupted data, just an unacknowledged
  // loss at the tail, the WAL contract.
  EXPECT_EQ("NOT_FOUND", Get("torn"));
}

TEST_F(RecoveryTest, TornWalTailToleratedInAbsoluteConsistencyMode) {
  // A cleanly truncated final record is the expected crash signature (the
  // writer died mid-append), not corruption: even the strict mode opens.
  options_.wal_recovery_mode = WalRecoveryMode::kAbsoluteConsistency;
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "committed", "v").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "torn", "vX").ok());
  Close();

  auto logs = FilesOfType(FileType::kLogFile);
  ASSERT_FALSE(logs.empty());
  TruncateFile(logs.back(), 3);

  Open();
  EXPECT_EQ("v", Get("committed"));
  EXPECT_EQ("NOT_FOUND", Get("torn"));
}

TEST_F(RecoveryTest, MidLogCorruptionFailsAbsoluteButKeepsPrefixInPit) {
  Open();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i),
                         "v" + std::to_string(i))
                    .ok());
  }
  Close();

  // Each Put is one WAL record: 7-byte header + batch rep (12-byte batch
  // header + 1 type + 1 keylen + 2 key + 1 vallen + 2 val = 19), i.e. 26
  // bytes. Flip a payload byte of the *second* record — mid-log, not a
  // truncated tail — so the checksum check trips.
  auto logs = FilesOfType(FileType::kLogFile);
  ASSERT_EQ(1u, logs.size());
  CorruptFile(logs.back(), 26 + 12);

  // Absolute consistency: replaying past a corrupt record would silently
  // drop acknowledged history, so the open must fail.
  Options absolute = options_;
  absolute.wal_recovery_mode = WalRecoveryMode::kAbsoluteConsistency;
  std::unique_ptr<DB> db;
  EXPECT_FALSE(DB::Open(absolute, "/db", &db).ok());

  // Point-in-time: recover the longest clean prefix — the first record —
  // and drop everything from the corruption onward.
  options_.wal_recovery_mode = WalRecoveryMode::kPointInTimeRecovery;
  Open();
  EXPECT_EQ("v0", Get("k0"));
  EXPECT_EQ("NOT_FOUND", Get("k1"));
  EXPECT_EQ("NOT_FOUND", Get("k2"));
  EXPECT_EQ("NOT_FOUND", Get("k3"));
  EXPECT_TRUE(db_->ValidateTreeInvariants().ok());
  // The recovered prefix is a working DB: new writes land normally.
  ASSERT_TRUE(db_->Put(WriteOptions(), "k1", "rewritten").ok());
  EXPECT_EQ("rewritten", Get("k1"));
}

TEST_F(RecoveryTest, PointInTimeRecoveryDeletesSkippedLaterLogs) {
  Open();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i),
                         "v" + std::to_string(i))
                    .ok());
  }
  Close();

  // Simulate a second live WAL (as left behind by a crash with a sealed-
  // but-unflushed memtable): a higher-numbered log whose records replay
  // after the first log's. Then corrupt the *first* log mid-record.
  auto logs = FilesOfType(FileType::kLogFile);
  ASSERT_EQ(1u, logs.size());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env_, logs.back(), &contents).ok());
  const std::string later_log = LogFileName("/db", 99);
  ASSERT_TRUE(WriteStringToFile(&env_, contents, later_log).ok());
  CorruptFile(logs.back(), 26 + 12);  // Record 2's payload (layout above).

  // Point-in-time recovery stops at the corruption in the first log. The
  // skipped later log must be deleted during this open — if it survived,
  // the next open would replay it after the new WAL, resurrecting the
  // dropped writes out of order.
  options_.wal_recovery_mode = WalRecoveryMode::kPointInTimeRecovery;
  Open();
  EXPECT_EQ("v0", Get("k0"));
  EXPECT_EQ("NOT_FOUND", Get("k1"));
  EXPECT_FALSE(env_.FileExists(later_log));
  // Its number was marked used, so the fresh WAL landed above it.
  for (const auto& log : FilesOfType(FileType::kLogFile)) {
    uint64_t number;
    FileType type;
    ASSERT_TRUE(ParseFileName(log.substr(strlen("/db/")), &number, &type));
    EXPECT_GT(number, 99u);
  }
  ASSERT_TRUE(db_->Put(WriteOptions(), "after", "recovered").ok());

  // The dropped writes stay dropped across another reopen.
  Reopen();
  EXPECT_EQ("v0", Get("k0"));
  EXPECT_EQ("NOT_FOUND", Get("k1"));
  EXPECT_EQ("NOT_FOUND", Get("k2"));
  EXPECT_EQ("NOT_FOUND", Get("k3"));
  EXPECT_EQ("recovered", Get("after"));
  EXPECT_TRUE(db_->ValidateTreeInvariants().ok());
}

TEST_F(RecoveryTest, ManifestHardErrorReadOnlyModeAndResume) {
  FaultInjectionEnv fault_env(&env_);
  const CloseDbFirst close_db_first{&db_};
  options_.env = &fault_env;
  Open();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "k" + std::to_string(i), "v").ok());
  }

  // The next manifest append fails: the flush builds its L0 file, then
  // LogAndApply tears — a hard error (the manifest write point is lost).
  FaultRule rule;
  rule.file_kinds = kFaultManifest;
  rule.ops = kFaultOpAppend;
  rule.one_in = 1;
  rule.max_failures = 1;
  fault_env.AddRule(rule);

  EXPECT_FALSE(db_->Flush().ok());
  ErrorState state = db_->BackgroundErrorState();
  EXPECT_TRUE(state.hard());
  EXPECT_EQ(ErrorSource::kManifest, state.source);
  // First-error provenance survives in the summary (the reporting-gap fix:
  // wait loops used to return whichever failure happened to be last).
  const std::string summary = db_->DebugLevelSummary();
  EXPECT_NE(std::string::npos,
            summary.find("\nfirst background error: [manifest] "))
      << summary;

  // Read-only mode: reads serve, writes fail fast.
  EXPECT_EQ("v", Get("k0"));
  EXPECT_FALSE(db_->Put(WriteOptions(), "rejected", "x").ok());

  // Resume rolls to a fresh manifest and reschedules the flush.
  ASSERT_TRUE(db_->Resume().ok());
  EXPECT_TRUE(db_->BackgroundErrorState().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "after", "resumed").ok());
  ASSERT_TRUE(db_->Flush().ok());

  // The rolled manifest is complete: a reopen sees everything.
  Reopen();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ("v", Get("k" + std::to_string(i)));
  }
  EXPECT_EQ("resumed", Get("after"));
  EXPECT_TRUE(db_->ValidateTreeInvariants().ok());
}

TEST_F(RecoveryTest, SummaryKeepsLongErrorMessagesWhole) {
  FaultInjectionEnv fault_env(&env_);
  const CloseDbFirst close_db_first{&db_};
  options_.env = &fault_env;
  options_.max_background_error_retries = 0;  // Fail straight to hard.
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v").ok());

  const std::string message(300, 'x');
  FaultRule rule;
  rule.file_kinds = kFaultTable;
  rule.ops = kFaultOpAppend;
  rule.one_in = 1;
  rule.max_failures = 1;
  rule.error = Status::IOError(message);
  fault_env.AddRule(rule);
  EXPECT_FALSE(db_->Flush().ok());

  // Both error lines carry the whole message and start lines of their own.
  const std::string summary = db_->DebugLevelSummary();
  EXPECT_NE(std::string::npos,
            summary.find("\nbackground error: [hard/flush] IO error: " +
                         message + "\n"))
      << summary;
  EXPECT_NE(std::string::npos,
            summary.find("\nfirst background error: [flush] IO error: " +
                         message + " at t="))
      << summary;
}

TEST_F(RecoveryTest, RepeatedReopenPreservesEverything) {
  Open();
  std::map<std::string, std::string> model;
  Random rnd(3);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 400; ++i) {
      std::string key = "key" + std::to_string(rnd.Uniform(300));
      std::string value = "r" + std::to_string(round) + "-" +
                          std::to_string(i);
      model[key] = value;
      ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    }
    Reopen();
    for (const auto& [key, value] : model) {
      ASSERT_EQ(value, Get(key)) << "round " << round << " key " << key;
    }
  }
}

TEST_F(RecoveryTest, RecoveryAfterCompactionKeepsOnlyLiveFiles) {
  Open();
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "key" + std::to_string(i % 500),
                 std::string(64, 'v'))
            .ok());
  }
  ASSERT_TRUE(db_->CompactRange().ok());
  size_t tables_after_compact = FilesOfType(FileType::kTableFile).size();
  Reopen();
  // Reopen must not resurrect deleted inputs nor lose live outputs.
  EXPECT_EQ(tables_after_compact,
            FilesOfType(FileType::kTableFile).size());
  EXPECT_EQ(500u, db_->CountLiveEntries());
  EXPECT_TRUE(db_->ValidateTreeInvariants().ok());
}

TEST_F(RecoveryTest, OrphanCompactionOutputIsCollectedOnReopen) {
  Open();
  std::map<std::string, std::string> model;
  for (int i = 0; i < 1500; ++i) {
    std::string key = "key" + std::to_string(i % 400);
    std::string value = "v" + std::to_string(i);
    model[key] = value;
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
  }
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  Close();

  // Simulate a crash mid-compaction: an output table was fully written but
  // the job died before its VersionEdit reached the manifest. Because the
  // stitched edit is one atomic manifest record, recovery sees either the
  // whole result or (as here) none of it — the file is just an orphan.
  std::string orphan = TableFileName("/db", 999999);
  ASSERT_TRUE(
      WriteStringToFile(&env_, std::string(2048, 'x'), orphan).ok());

  Open();
  // All committed data intact; the orphan was garbage-collected.
  for (const auto& [key, value] : model) {
    ASSERT_EQ(value, Get(key)) << key;
  }
  EXPECT_FALSE(env_.FileExists(orphan));
  EXPECT_TRUE(db_->ValidateTreeInvariants().ok());
}

TEST_F(RecoveryTest, ShutdownWithParallelCompactionsInFlightLosesNothing) {
  // Aggressive settings so several compactions are admitted, then the DB is
  // closed while they run: shutdown aborts them, their partial outputs are
  // removed, and every acknowledged write must survive reopen via WAL/SSTs.
  options_.write_buffer_size = 4 << 10;
  options_.max_bytes_for_level_base = 16 << 10;
  options_.target_file_size = 4 << 10;
  options_.background_threads = 4;
  options_.max_subcompactions = 3;
  Open();
  std::map<std::string, std::string> model;
  Random rnd(91);
  for (int i = 0; i < 5000; ++i) {
    std::string key = "key" + std::to_string(rnd.Uniform(600));
    std::string value = "v" + std::to_string(i);
    model[key] = value;
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
  }
  // No drain: close with the background engine mid-flight.
  Close();

  Open();
  for (const auto& [key, value] : model) {
    ASSERT_EQ(value, Get(key)) << key;
  }
  EXPECT_TRUE(db_->ValidateTreeInvariants().ok());
  // The engine must come back up and settle the leftover backlog.
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  EXPECT_TRUE(db_->ValidateTreeInvariants().ok());
}

TEST_F(RecoveryTest, ObsoleteWalsAreRemoved) {
  Open();
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(i),
                         std::string(64, 'v'))
                    .ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  // After a flush, only the active WAL should remain.
  EXPECT_LE(FilesOfType(FileType::kLogFile).size(), 1u);
}

TEST_F(RecoveryTest, CorruptManifestFailsOpenCleanly) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v").ok());
  ASSERT_TRUE(db_->Flush().ok());
  Close();

  auto manifests = FilesOfType(FileType::kManifestFile);
  ASSERT_FALSE(manifests.empty());
  CorruptFile(manifests.back(), 12);

  std::unique_ptr<DB> db;
  Status s = DB::Open(options_, "/db", &db);
  // A corrupted manifest must surface as an error, never a silent
  // half-recovered database.
  EXPECT_FALSE(s.ok());
}

TEST_F(RecoveryTest, MissingCurrentRecoversWalResidentWrites) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "in-wal", "recovered").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "flushed", "orphaned").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "post-flush", "recovered2").ok());
  Close();
  // Losing CURRENT loses the manifest pointer: with create_if_missing the
  // DB reinitializes its metadata, orphaning flushed SSTables — but WAL
  // files still on disk are replayed, so unflushed writes survive.
  ASSERT_TRUE(env_.RemoveFile(CurrentFileName("/db")).ok());
  Open();
  EXPECT_EQ("recovered2", Get("post-flush"));
  EXPECT_EQ("NOT_FOUND", Get("flushed"));  // Its SST is orphaned.
}

TEST_F(RecoveryTest, SequenceNumbersResumeAfterReopen) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "old").ok());
  Reopen();
  // A new write after reopen must shadow the pre-reopen write: sequence
  // numbers may never regress.
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "new").ok());
  Reopen();
  EXPECT_EQ("new", Get("k"));
}

TEST_F(RecoveryTest, LargeWalRecoverySpillsToL0) {
  // A WAL bigger than the write buffer must flush to L0 tables during
  // replay rather than building an oversized memtable.
  options_.write_buffer_size = 4 << 10;
  Open();
  std::map<std::string, std::string> model;
  for (int i = 0; i < 500; ++i) {
    std::string key = "key" + std::to_string(i);
    std::string value(100, static_cast<char>('a' + i % 26));
    model[key] = value;
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
  }
  Reopen();
  for (const auto& [key, value] : model) {
    EXPECT_EQ(value, Get(key));
  }
  EXPECT_TRUE(db_->ValidateTreeInvariants().ok());
}

// Recovery's flush is a merge too: a WAL that holds only a put and its
// SingleDelete recovers to no table, and the manifest names none.
TEST_F(RecoveryTest, WalOfAnnihilatedPairRecoversToNoTable) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v").ok());
  ASSERT_TRUE(db_->SingleDelete(WriteOptions(), "k").ok());
  Reopen();
  EXPECT_EQ(0, db_->TotalSortedRuns()) << db_->LevelsDebugString();
  EXPECT_TRUE(FilesOfType(FileType::kTableFile).empty());
  EXPECT_EQ("NOT_FOUND", Get("k"));
  Reopen();
  EXPECT_EQ(0, db_->TotalSortedRuns()) << db_->LevelsDebugString();
  EXPECT_EQ("NOT_FOUND", Get("k"));
  EXPECT_TRUE(db_->ValidateTreeInvariants().ok());
}

TEST_F(RecoveryTest, VersionEditRoundTrip) {
  VersionEdit edit;
  edit.SetComparatorName("cmp-name");
  edit.SetLogNumber(42);
  edit.SetNextFileNumber(99);
  edit.SetLastSequence(123456789);
  FileMetaData f;
  f.file_number = 7;
  f.file_size = 4096;
  f.smallest = InternalKey("aaa", 10, kTypeValue);
  f.largest = InternalKey("zzz", 5, kTypeDeletion);
  f.num_entries = 100;
  f.num_tombstones = 3;
  f.creation_time_micros = 111;
  f.oldest_tombstone_time_micros = 110;
  f.oldest_vlog = 5;
  edit.AddFile(2, f);
  edit.RemoveFile(1, 6);

  std::string encoded;
  edit.EncodeTo(&encoded);
  VersionEdit decoded;
  ASSERT_TRUE(decoded.DecodeFrom(encoded).ok());
  EXPECT_EQ("cmp-name", decoded.comparator());
  EXPECT_EQ(42u, decoded.log_number());
  EXPECT_EQ(99u, decoded.next_file_number());
  EXPECT_EQ(123456789u, decoded.last_sequence());
  ASSERT_EQ(1u, decoded.new_files().size());
  const auto& [level, nf] = decoded.new_files()[0];
  EXPECT_EQ(2, level);
  EXPECT_EQ(7u, nf.file_number);
  EXPECT_EQ("aaa", nf.smallest.user_key().ToString());
  EXPECT_EQ("zzz", nf.largest.user_key().ToString());
  EXPECT_EQ(3u, nf.num_tombstones);
  EXPECT_EQ(5u, nf.oldest_vlog);
  EXPECT_EQ(1u, decoded.deleted_files().count({1, 6}));
}

TEST_F(RecoveryTest, VersionEditRejectsGarbage) {
  VersionEdit edit;
  EXPECT_TRUE(edit.DecodeFrom(Slice("\x07garbage-bytes")).IsCorruption());
}

TEST_F(RecoveryTest, VersionEditRejectsTrailingGarbage) {
  // Fuzzer-derived regression (fuzz_version_edit): a well-formed edit with
  // bytes appended used to decode OK, silently swallowing the tail. A lone
  // 0xff is a truncated tag varint — the minimal such suffix.
  VersionEdit edit;
  edit.SetLogNumber(3);
  edit.SetNextFileNumber(4);
  edit.SetLastSequence(5);
  std::string encoded;
  edit.EncodeTo(&encoded);

  VersionEdit decoded;
  ASSERT_TRUE(decoded.DecodeFrom(encoded).ok());
  encoded.push_back('\xff');
  VersionEdit rejected;
  EXPECT_TRUE(rejected.DecodeFrom(encoded).IsCorruption());
}

TEST_F(RecoveryTest, VersionEditAcceptsConcatenatedEdits) {
  // Two encodings back to back are still one well-formed tag stream (the
  // manifest group-record shape), so the trailing-garbage check must not
  // reject them: later fields simply win.
  VersionEdit first, second;
  first.SetLogNumber(10);
  first.SetNextFileNumber(11);
  second.SetLogNumber(20);
  second.SetLastSequence(99);
  std::string encoded;
  first.EncodeTo(&encoded);
  second.EncodeTo(&encoded);

  VersionEdit decoded;
  ASSERT_TRUE(decoded.DecodeFrom(encoded).ok());
  EXPECT_EQ(20u, decoded.log_number());
  EXPECT_EQ(11u, decoded.next_file_number());
  EXPECT_EQ(99u, decoded.last_sequence());
}

TEST_F(RecoveryTest, ComparatorMismatchRefusesOpen) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v").ok());
  ASSERT_TRUE(db_->Flush().ok());
  Close();

  // Reopen with a comparator claiming a different name.
  class RenamedComparator : public Comparator {
   public:
    int Compare(const Slice& a, const Slice& b) const override {
      return a.compare(b);
    }
    const char* Name() const override { return "other.Comparator"; }
    void FindShortestSeparator(std::string*, const Slice&) const override {}
    void FindShortSuccessor(std::string*) const override {}
  };
  RenamedComparator other;
  Options options = options_;
  options.comparator = &other;
  std::unique_ptr<DB> db;
  Status s = DB::Open(options, "/db", &db);
  EXPECT_FALSE(s.ok());
}

// A synced write whose value went to the vlog survives a crash. Its WAL
// record holds only a pointer, so the sync must cover the vlog record too,
// for a per-write sync and for sync_wal alike.
TEST(RecoveryKvSeparationTest, SyncedWriteKeepsSeparatedValue) {
  for (const bool per_write_sync : {true, false}) {
    SCOPED_TRACE(per_write_sync ? "WriteOptions::sync" : "Options::sync_wal");
    MemEnv base;
    FaultInjectionEnv env(&base);
    Options options;
    options.env = &env;
    options.kv_separation = true;
    options.kv_separation_threshold = 32;
    options.sync_wal = !per_write_sync;
    WriteOptions write_options;
    write_options.sync = per_write_sync;
    const std::string value(100, 'v');

    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    ASSERT_TRUE(db->Put(write_options, "key", value).ok());
    env.SetFilesystemActive(false);
    db.reset();
    ASSERT_TRUE(env.DropUnsyncedData().ok());
    env.SetFilesystemActive(true);

    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    std::string got;
    Status s = db->Get(ReadOptions(), "key", &got);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(value, got);
  }
}

// A flush installs a table whose vlog pointers reference values nothing
// has synced yet, and then deletes the WAL that also held them. Unless the
// flush makes the vlog durable first, a power loss right after it leaves
// the table pointing past the log's durable end.
TEST(RecoveryKvSeparationTest, FlushedSeparatedValuesSurviveACrash) {
  constexpr int kKeys = 100;
  MemEnv base;
  FaultInjectionEnv env(&base);
  Options options;
  options.env = &env;
  options.kv_separation = true;
  options.kv_separation_threshold = 32;
  auto key_of = [](int i) { return "key" + std::to_string(1000 + i); };
  auto value_of = [](int i) {
    return std::string(100, static_cast<char>('a' + i % 26));
  };

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db->Put(WriteOptions(), key_of(i), value_of(i)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  env.SetFilesystemActive(false);
  db.reset();
  ASSERT_TRUE(env.DropUnsyncedData().ok());
  env.SetFilesystemActive(true);

  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  int lost = 0;
  std::string first_error;
  for (int i = 0; i < kKeys; ++i) {
    std::string got;
    Status s = db->Get(ReadOptions(), key_of(i), &got);
    if (!s.ok() || got != value_of(i)) {
      if (lost++ == 0) {
        first_error = key_of(i) + ": " + s.ToString();
      }
    }
  }
  EXPECT_EQ(0, lost) << first_error;
}

// A cross-shard slice fsyncs its shard's WAL, and with it the earlier
// records there; the value log their pointers lead into must be durable
// first, or recovery meets a pointer to nothing ahead of the slice.
TEST(RecoveryKvSeparationTest, CrossShardPrepareSyncsTheValueLog) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  Options options;
  options.env = &env;
  options.kv_separation = true;
  options.kv_separation_threshold = 32;
  options.num_shards = 2;
  options.shard_split_keys = {"m"};
  const std::string value(100, 'v');

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "a", value).ok());
  WriteBatch batch;  // Spans both shards: a cross-shard commit.
  batch.Put("b", "inline-b");
  batch.Put("z", "inline-z");
  ASSERT_TRUE(db->Write(WriteOptions(), &batch).ok());
  env.SetFilesystemActive(false);
  db.reset();
  ASSERT_TRUE(env.DropUnsyncedData().ok());
  env.SetFilesystemActive(true);

  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (const auto& [key, expected] :
       std::map<std::string, std::string>{
           {"a", value}, {"b", "inline-b"}, {"z", "inline-z"}}) {
    std::string got;
    Status s = db->Get(ReadOptions(), key, &got);
    ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
    EXPECT_EQ(expected, got) << key;
  }
}

// A batch that spans shards separates its large values as any write group
// does: each slice's WAL record holds pointers, and the values go to its
// shard's value log. They read back after a reopen and after a crash.
TEST(RecoveryKvSeparationTest, CrossShardBatchSeparatesItsValues) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  Options options;
  options.env = &env;
  options.kv_separation = true;
  options.kv_separation_threshold = 100;
  options.num_shards = 2;
  options.shard_split_keys = {"m"};
  auto vlog_bytes = [&env] {
    uint64_t total = 0;
    for (int k = 0; k < 2; ++k) {
      const std::string dir = ShardDirectory::ShardDirName("/db", k);
      std::vector<std::string> children;
      EXPECT_TRUE(env.GetChildren(dir, &children).ok());
      for (const auto& child : children) {
        uint64_t number;
        FileType type;
        uint64_t size = 0;
        if (ParseFileName(child, &number, &type) &&
            type == FileType::kVlogFile &&
            env.GetFileSize(dir + "/" + child, &size).ok()) {
          total += size;
        }
      }
    }
    return total;
  };
  auto write_batch = [](DB* db, char fill) {
    WriteBatch batch;
    batch.Put("a", std::string(400, fill));
    batch.Put("z", std::string(400, fill));
    return db->Write(WriteOptions(), &batch);
  };
  auto expect_batch = [](DB* db, char fill) {
    for (const char* key : {"a", "z"}) {
      std::string got;
      Status s = db->Get(ReadOptions(), key, &got);
      ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
      EXPECT_EQ(std::string(400, fill), got) << key;
    }
  };

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  ASSERT_TRUE(write_batch(db.get(), 'x').ok());
  EXPECT_GE(vlog_bytes(), 800u);
  db.reset();
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  expect_batch(db.get(), 'x');

  const uint64_t before = vlog_bytes();
  ASSERT_TRUE(write_batch(db.get(), 'y').ok());
  EXPECT_GE(vlog_bytes() - before, 800u);
  env.SetFilesystemActive(false);
  db.reset();
  ASSERT_TRUE(env.DropUnsyncedData().ok());
  env.SetFilesystemActive(true);
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  expect_batch(db.get(), 'y');
  EXPECT_TRUE(db->ValidateTreeInvariants().ok());
}

// An unsynced write can keep its WAL record through a crash yet lose its
// value in the value log's torn tail. Recovery then ends the write-order
// prefix before that record rather than replay a pointer to nothing, and
// a record torn at its last byte fails the key check (the key is stored
// last).
TEST(RecoveryKvSeparationTest, TornValueLogTailEndsReplay) {
  for (const bool truncate : {true, false}) {
    SCOPED_TRACE(truncate ? "truncated" : "last byte mangled");
    MemEnv env;
    Options options;
    options.env = &env;
    options.kv_separation = true;
    options.kv_separation_threshold = 32;
    const std::string value_a(100, 'a');
    const std::string value_b(100, 'b');

    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    ASSERT_TRUE(db->Put(WriteOptions(), "a", value_a).ok());
    ASSERT_TRUE(db->Put(WriteOptions(), "b", value_b).ok());
    db.reset();

    // Tear the newest value log's last record, the one "b" points at.
    std::vector<std::string> children;
    ASSERT_TRUE(env.GetChildren("/db", &children).ok());
    uint64_t newest = 0;
    for (const auto& child : children) {
      uint64_t number;
      FileType type;
      if (ParseFileName(child, &number, &type) &&
          type == FileType::kVlogFile) {
        newest = std::max(newest, number);
      }
    }
    const std::string vlog = VlogFileName("/db", newest);
    std::string contents;
    ASSERT_TRUE(ReadFileToString(&env, vlog, &contents).ok());
    ASSERT_FALSE(contents.empty());
    if (truncate) {
      contents.pop_back();
    } else {
      contents.back() = static_cast<char>(contents.back() ^ 0x40);
    }
    ASSERT_TRUE(WriteStringToFile(&env, contents, vlog).ok());

    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    std::string got;
    Status s = db->Get(ReadOptions(), "a", &got);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(value_a, got);
    s = db->Get(ReadOptions(), "b", &got);
    EXPECT_TRUE(s.IsNotFound()) << s.ToString();
    EXPECT_TRUE(db->ValidateTreeInvariants().ok());
  }
}

// A replayed pointer whose read fails for any reason but a torn tail (an
// open or a read that errs) says nothing about the value log. The open
// fails rather than end replay there, so a retry still finds every synced
// write.
TEST(RecoveryKvSeparationTest, ValueLogReadErrorFailsTheOpen) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  Options options;
  options.env = &env;
  options.kv_separation = true;
  options.kv_separation_threshold = 32;
  WriteOptions synced;
  synced.sync = true;
  auto key_of = [](int i) { return "key" + std::to_string(i); };
  auto value_of = [](int i) {
    return std::string(100, static_cast<char>('a' + i));
  };

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db->Put(synced, key_of(i), value_of(i)).ok());
  }
  env.SetFilesystemActive(false);
  db.reset();
  ASSERT_TRUE(env.DropUnsyncedData().ok());
  env.SetFilesystemActive(true);

  FaultRule rule;
  rule.file_kinds = kFaultVlog;
  rule.ops = kFaultOpRead;
  rule.at_op_index = 0;
  rule.max_failures = 1;
  env.AddRule(rule);
  Status s = DB::Open(options, "/db", &db);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(1u, env.injected_faults());
  env.ClearRules();

  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (int i = 0; i < 3; ++i) {
    std::string got;
    s = db->Get(ReadOptions(), key_of(i), &got);
    ASSERT_TRUE(s.ok()) << key_of(i) << ": " << s.ToString();
    EXPECT_EQ(value_of(i), got);
  }
}

// Vlog GC syncs the values it relocates before the tables that point at
// them install, and a log goes only once nothing points into it. So a
// crash loses no acknowledged value, whether a manifest write fails during
// GC's first install or the crash comes right after GC returns.
void CrashAroundVlogGc(bool fail_first_install) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  Options options;
  options.env = &env;
  options.write_buffer_size = 8 << 10;
  options.kv_separation = true;
  options.kv_separation_threshold = 32;
  auto key_of = [](int i) { return "key" + std::to_string(1000 + i); };
  std::map<std::string, std::string> latest;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (int round = 0; round < 3; ++round) {
    // Each round overwrites a sparser subset, some values inline.
    for (int i = 0; i < 200; i += round + 1) {
      const std::string value =
          i % 7 == 0 ? "inline" + std::to_string(round)
                     : std::string(100, static_cast<char>('a' + round)) +
                           std::to_string(i);
      ASSERT_TRUE(db->Put(WriteOptions(), key_of(i), value).ok());
      latest[key_of(i)] = value;
    }
    ASSERT_TRUE(db->Flush().ok());
  }
  ASSERT_TRUE(db->WaitForBackgroundWork().ok());
  if (fail_first_install) {
    FaultRule rule;
    rule.file_kinds = kFaultManifest;
    rule.ops = kFaultOpAppend;
    rule.at_op_index = 0;
    rule.max_failures = 1;
    env.AddRule(rule);
    EXPECT_FALSE(db->GarbageCollectVlog().ok());
    EXPECT_EQ(1u, env.injected_faults());
  } else {
    ASSERT_TRUE(db->GarbageCollectVlog().ok());
  }
  env.SetFilesystemActive(false);
  db.reset();
  ASSERT_TRUE(env.DropUnsyncedData().ok());
  env.SetFilesystemActive(true);
  env.ClearRules();

  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  int lost = 0;
  std::string first_error;
  for (const auto& [key, value] : latest) {
    std::string got;
    Status s = db->Get(ReadOptions(), key, &got);
    if (!s.ok() || got != value) {
      if (lost++ == 0) {
        first_error = key + ": " + s.ToString();
      }
    }
  }
  EXPECT_EQ(0, lost) << first_error;
  EXPECT_TRUE(db->ValidateTreeInvariants().ok());
}

TEST(RecoveryKvSeparationTest, FailedGcInstallThenCrashLosesNothing) {
  CrashAroundVlogGc(/*fail_first_install=*/true);
}

TEST(RecoveryKvSeparationTest, CrashRightAfterGcLosesNothing) {
  CrashAroundVlogGc(/*fail_first_install=*/false);
}

// A process kill on real files keeps every acknowledged write, synced or
// not: the WAL writer and the vlog hand each record to the kernel before
// the write returns, so the page cache holds it even though the child
// neither syncs nor closes. The child also reads each key back, which a
// separated value passes only if its vlog record reached the file.
void KillAfterUnsyncedPuts(bool kv_separation) {
  constexpr int kKeys = 2000;
  Options options;
  options.env = Env::Default();
  options.kv_separation = kv_separation;
  options.kv_separation_threshold = 64;
  const std::string dbname = ::testing::TempDir() + "lsmlab_kill_test_" +
                             std::to_string(::getpid()) +
                             (kv_separation ? "_kvsep" : "");
  ASSERT_TRUE(DestroyDB(options, dbname).ok());
  auto key_of = [](int i) { return "key" + std::to_string(100000 + i); };
  auto value_of = [](int i) {
    return std::string(100, static_cast<char>('a' + i % 26)) +
           std::to_string(i);
  };

  EXPECT_EXIT(
      {
        std::unique_ptr<DB> db;
        if (!DB::Open(options, dbname, &db).ok()) {
          ::_exit(1);
        }
        for (int i = 0; i < kKeys; ++i) {
          if (!db->Put(WriteOptions(), key_of(i), value_of(i)).ok()) {
            ::_exit(2);
          }
          std::string got;
          if (!db->Get(ReadOptions(), key_of(i), &got).ok() ||
              got != value_of(i)) {
            ::_exit(3);
          }
        }
        ::_exit(0);  // A kill: no Close, no destructor, no sync.
      },
      ::testing::ExitedWithCode(0), "");

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  int missing = 0;
  for (int i = 0; i < kKeys; ++i) {
    std::string got;
    if (!db->Get(ReadOptions(), key_of(i), &got).ok() || got != value_of(i)) {
      ++missing;
    }
  }
  EXPECT_EQ(0, missing);
  db.reset();
  EXPECT_TRUE(DestroyDB(options, dbname).ok());
}

TEST(RecoveryDeathTest, ProcessKillKeepsAcknowledgedWrites) {
  KillAfterUnsyncedPuts(/*kv_separation=*/false);
}

TEST(RecoveryDeathTest, ProcessKillKeepsAcknowledgedSeparatedWrites) {
  KillAfterUnsyncedPuts(/*kv_separation=*/true);
}

}  // namespace
}  // namespace lsmlab
