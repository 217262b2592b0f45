#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "db/filename.h"
#include "io/counting_env.h"
#include "io/env.h"
#include "io/fault_injection_env.h"
#include "io/latency_env.h"
#include "io/mem_env.h"
#include "io/readahead_file.h"
#include "io/wal_reader.h"
#include "io/wal_writer.h"
#include "util/clock.h"
#include "util/random.h"

namespace lsmlab {
namespace {

// ----------------------------------------------------------------- Env -----

class EnvTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      env_ = &mem_env_;
      dir_ = "/envtest";
    } else {
      env_ = Env::Default();
      // Unique per process: ctest runs each discovered case as its own
      // process, possibly in parallel, and a shared directory lets one
      // case's TearDown delete files another case is still reading.
      dir_ = ::testing::TempDir() + "lsmlab_env_test_" +
             std::to_string(::getpid());
    }
    ASSERT_TRUE(env_->CreateDir(dir_).ok());
  }

  void TearDown() override {
    std::vector<std::string> children;
    if (env_->GetChildren(dir_, &children).ok()) {
      for (const auto& child : children) {
        (void)env_->RemoveFile(dir_ + "/" + child);
      }
    }
    (void)env_->RemoveDir(dir_);
  }

  MemEnv mem_env_;
  Env* env_ = nullptr;
  std::string dir_;
};

TEST_P(EnvTest, WriteReadRoundTrip) {
  const std::string fname = dir_ + "/f1";
  ASSERT_TRUE(WriteStringToFile(env_, "hello world", fname).ok());

  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_, fname, &contents).ok());
  EXPECT_EQ("hello world", contents);

  uint64_t size = 0;
  ASSERT_TRUE(env_->GetFileSize(fname, &size).ok());
  EXPECT_EQ(11u, size);
}

TEST_P(EnvTest, RandomAccessReads) {
  const std::string fname = dir_ + "/f2";
  ASSERT_TRUE(WriteStringToFile(env_, "0123456789", fname).ok());

  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env_->NewRandomAccessFile(fname, &file).ok());
  char scratch[16];
  Slice result;
  ASSERT_TRUE(file->Read(3, 4, &result, scratch).ok());
  EXPECT_EQ("3456", result.ToString());
  // Read past EOF yields short read.
  ASSERT_TRUE(file->Read(8, 10, &result, scratch).ok());
  EXPECT_EQ("89", result.ToString());
  ASSERT_TRUE(file->Read(100, 10, &result, scratch).ok());
  EXPECT_TRUE(result.empty());
}

TEST_P(EnvTest, MissingFileIsNotFound) {
  std::unique_ptr<SequentialFile> f;
  Status s = env_->NewSequentialFile(dir_ + "/missing", &f);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  EXPECT_FALSE(env_->FileExists(dir_ + "/missing"));
}

TEST_P(EnvTest, GetChildrenListsFiles) {
  ASSERT_TRUE(WriteStringToFile(env_, "a", dir_ + "/a").ok());
  ASSERT_TRUE(WriteStringToFile(env_, "b", dir_ + "/b").ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(dir_, &children).ok());
  EXPECT_EQ(2u, children.size());
}

TEST_P(EnvTest, RenameReplacesTarget) {
  ASSERT_TRUE(WriteStringToFile(env_, "source", dir_ + "/src").ok());
  ASSERT_TRUE(WriteStringToFile(env_, "old", dir_ + "/dst").ok());
  ASSERT_TRUE(env_->RenameFile(dir_ + "/src", dir_ + "/dst").ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_, dir_ + "/dst", &contents).ok());
  EXPECT_EQ("source", contents);
  EXPECT_FALSE(env_->FileExists(dir_ + "/src"));
}

TEST_P(EnvTest, RemoveFileDeletes) {
  ASSERT_TRUE(WriteStringToFile(env_, "x", dir_ + "/x").ok());
  ASSERT_TRUE(env_->RemoveFile(dir_ + "/x").ok());
  EXPECT_FALSE(env_->FileExists(dir_ + "/x"));
  EXPECT_TRUE(env_->RemoveFile(dir_ + "/x").IsNotFound());
}

INSTANTIATE_TEST_SUITE_P(MemAndPosix, EnvTest, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "MemEnv" : "PosixEnv";
                         });

TEST_P(EnvTest, RandomRWFileReadWrite) {
  const std::string fname = dir_ + "/rw";
  std::unique_ptr<RandomRWFile> file;
  ASSERT_TRUE(env_->NewRandomRWFile(fname, &file).ok());

  // Write at scattered offsets, including extending the file.
  ASSERT_TRUE(file->Write(0, "0123456789").ok());
  ASSERT_TRUE(file->Write(4, "XY").ok());
  ASSERT_TRUE(file->Write(20, "tail").ok());
  ASSERT_TRUE(file->Sync().ok());

  char scratch[32];
  Slice result;
  ASSERT_TRUE(file->Read(0, 10, &result, scratch).ok());
  EXPECT_EQ("0123XY6789", result.ToString());
  ASSERT_TRUE(file->Read(20, 4, &result, scratch).ok());
  EXPECT_EQ("tail", result.ToString());
  // The gap [10,20) reads as zero bytes.
  ASSERT_TRUE(file->Read(10, 10, &result, scratch).ok());
  EXPECT_EQ(std::string(10, '\0'), result.ToString());
}

TEST_P(EnvTest, FlushHandsAppendsToFreshReaders) {
  const std::string fname = dir_ + "/flushed";
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env_->NewWritableFile(fname, &file).ok());
  ASSERT_TRUE(file->Append("header").ok());
  ASSERT_TRUE(file->Append("payload").ok());
  ASSERT_TRUE(file->Flush().ok());

  std::unique_ptr<RandomAccessFile> reader;
  ASSERT_TRUE(env_->NewRandomAccessFile(fname, &reader).ok());
  char scratch[32];
  Slice result;
  ASSERT_TRUE(reader->Read(0, sizeof(scratch), &result, scratch).ok());
  EXPECT_EQ("headerpayload", result.ToString());
  uint64_t size = 0;
  ASSERT_TRUE(env_->GetFileSize(fname, &size).ok());
  EXPECT_EQ(13u, size);
}

TEST_P(EnvTest, SyncAndCloseFlushFirst) {
  const std::string fname = dir_ + "/synced";
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env_->NewWritableFile(fname, &file).ok());
  ASSERT_TRUE(file->Append("synced").ok());
  ASSERT_TRUE(file->Sync().ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_, fname, &contents).ok());
  EXPECT_EQ("synced", contents);

  ASSERT_TRUE(file->Append("+closed").ok());
  ASSERT_TRUE(file->Close().ok());
  ASSERT_TRUE(ReadFileToString(env_, fname, &contents).ok());
  EXPECT_EQ("synced+closed", contents);
}

TEST_P(EnvTest, LargeTinyAndEmptyAppendsRoundTrip) {
  const std::string fname = dir_ + "/appends";
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env_->NewWritableFile(fname, &file).ok());
  Random rnd(17);
  std::string expected;
  auto append = [&](size_t n) {
    std::string chunk(n, '\0');
    for (char& c : chunk) {
      c = static_cast<char>('a' + rnd.Uniform(26));
    }
    ASSERT_TRUE(file->Append(chunk).ok());
    expected += chunk;
  };
  // The one-byte appends part-fill a write buffer, so the 200 KiB append
  // tops it up, writes it and sends the rest straight to the file, and the
  // 100 KiB one leaves a remainder buffered for Close().
  for (int i = 0; i < 10000; ++i) {
    append(1);
  }
  append(200 << 10);
  append(0);
  for (int i = 0; i < 10000; ++i) {
    append(1);
  }
  append(100 << 10);
  ASSERT_TRUE(file->Close().ok());

  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_, fname, &contents).ok());
  ASSERT_EQ(expected.size(), contents.size());
  EXPECT_TRUE(expected == contents);
}

TEST_P(EnvTest, RandomRWFilePreservesExistingContents) {
  const std::string fname = dir_ + "/rw2";
  ASSERT_TRUE(WriteStringToFile(env_, "persistent", fname).ok());
  // Unlike NewWritableFile, reopening read-write must not truncate.
  std::unique_ptr<RandomRWFile> file;
  ASSERT_TRUE(env_->NewRandomRWFile(fname, &file).ok());
  char scratch[32];
  Slice result;
  ASSERT_TRUE(file->Read(0, 10, &result, scratch).ok());
  EXPECT_EQ("persistent", result.ToString());
  ASSERT_TRUE(file->Write(0, "P").ok());
  ASSERT_TRUE(file->Read(0, 10, &result, scratch).ok());
  EXPECT_EQ("Persistent", result.ToString());
}

TEST(MemEnvTest, OpenReaderSurvivesRemove) {
  // POSIX unlink semantics: a compaction can delete an input file while an
  // iterator still reads it.
  MemEnv env;
  ASSERT_TRUE(WriteStringToFile(&env, "still here", "/f").ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env.NewRandomAccessFile("/f", &file).ok());
  ASSERT_TRUE(env.RemoveFile("/f").ok());
  char scratch[16];
  Slice result;
  ASSERT_TRUE(file->Read(0, 10, &result, scratch).ok());
  EXPECT_EQ("still here", result.ToString());
}

TEST(MemEnvTest, TotalFileBytes) {
  MemEnv env;
  EXPECT_EQ(0u, env.TotalFileBytes());
  ASSERT_TRUE(WriteStringToFile(&env, "12345", "/a").ok());
  ASSERT_TRUE(WriteStringToFile(&env, "123", "/b").ok());
  EXPECT_EQ(8u, env.TotalFileBytes());
}

// ---------------------------------------------------------- CountingEnv ----

TEST(CountingEnvTest, CountsReadsAndWrites) {
  MemEnv base;
  CountingEnv env(&base);
  ASSERT_TRUE(WriteStringToFile(&env, "hello world!", "/f").ok());

  IoStats stats = env.GetStats();
  EXPECT_EQ(12u, stats.bytes_written);
  EXPECT_EQ(1u, stats.write_ops);
  EXPECT_EQ(1u, stats.files_created);
  EXPECT_EQ(1u, stats.syncs);

  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env, "/f", &contents).ok());
  stats = env.GetStats();
  EXPECT_EQ(12u, stats.bytes_read);
  EXPECT_GE(stats.read_ops, 1u);
}

TEST(CountingEnvTest, ResetClearsCounters) {
  MemEnv base;
  CountingEnv env(&base);
  ASSERT_TRUE(WriteStringToFile(&env, "data", "/f").ok());
  env.ResetStats();
  IoStats stats = env.GetStats();
  EXPECT_EQ(0u, stats.bytes_written);
  EXPECT_EQ(0u, stats.files_created);
}

TEST(CountingEnvTest, WriteAmplificationHelper) {
  IoStats stats;
  stats.bytes_written = 400;
  EXPECT_DOUBLE_EQ(4.0, stats.WriteAmplification(100));
  EXPECT_DOUBLE_EQ(0.0, stats.WriteAmplification(0));
}

// ----------------------------------------------------------- LatencyEnv ----

TEST(LatencyEnvTest, ChargesVirtualTime) {
  MemEnv base;
  MockClock clock;
  DeviceModel model;
  model.per_op_latency_micros = 100;
  model.bandwidth_bytes_per_sec = 1000000;  // 1 MB/s -> 1 us per byte.
  LatencyEnv env(&base, model, &clock);

  ASSERT_TRUE(WriteStringToFile(&env, std::string(1000, 'x'), "/f").ok());
  // One write of 1000 bytes (100us fixed + 1000us transfer) plus the sync,
  // which costs one zero-byte device op (100us) — the cost group commit
  // amortizes across writers.
  EXPECT_EQ(1200u, clock.NowMicros());

  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env, "/f", &contents).ok());
  EXPECT_EQ(1000u, contents.size());
  EXPECT_GE(clock.NowMicros(), 2200u);
}

TEST(LatencyEnvTest, RandomRWSyncChargesOneOp) {
  MemEnv base;
  MockClock clock;
  DeviceModel model;
  model.per_op_latency_micros = 100;
  LatencyEnv env(&base, model, &clock);
  std::unique_ptr<RandomRWFile> file;
  ASSERT_TRUE(env.NewRandomRWFile("/pages", &file).ok());

  // An in-place page fsync is one device round trip, like WritableFile's.
  const uint64_t before = clock.NowMicros();
  ASSERT_TRUE(file->Sync().ok());
  EXPECT_EQ(before + 100, clock.NowMicros());
}

TEST(LatencyEnvTest, DevicePresetsDiffer) {
  EXPECT_GT(DeviceModel::Hdd().per_op_latency_micros,
            DeviceModel::Ssd().per_op_latency_micros);
  EXPECT_GT(DeviceModel::Nvme().bandwidth_bytes_per_sec,
            DeviceModel::Ssd().bandwidth_bytes_per_sec);
}

// --------------------------------------------------- FaultInjectionEnv ----

class FaultInjectionEnvTest : public ::testing::Test {
 protected:
  // Appends `data` to `fname`, optionally syncing, and returns the combined
  // append/sync status (first failure wins).
  Status Append(const std::string& fname, const std::string& data,
                bool sync) {
    std::unique_ptr<WritableFile> file;
    Status s = env_.NewWritableFile(fname, &file);
    if (!s.ok()) {
      return s;
    }
    s = file->Append(data);
    if (s.ok() && sync) {
      s = file->Sync();
    }
    Status c = file->Close();
    return s.ok() ? c : s;
  }

  std::string Contents(const std::string& fname) {
    std::string data;
    EXPECT_TRUE(ReadFileToString(&env_, fname, &data).ok());
    return data;
  }

  MemEnv base_;
  FaultInjectionEnv env_{&base_, /*seed=*/12345};
};

TEST_F(FaultInjectionEnvTest, DropUnsyncedDataKeepsSyncedPrefix) {
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env_.NewWritableFile("/000001.log", &file).ok());
  ASSERT_TRUE(file->Append("durable").ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Append("volatile").ok());  // Never synced.
  ASSERT_TRUE(file->Close().ok());             // Close implies no durability.
  file.reset();

  // Before the crash the DB can read its own unsynced bytes (write-through).
  EXPECT_EQ("durablevolatile", Contents("/000001.log"));

  ASSERT_TRUE(env_.DropUnsyncedData().ok());
  EXPECT_EQ("durable", Contents("/000001.log"));
}

TEST_F(FaultInjectionEnvTest, DropUnsyncedDataDeletesNeverSyncedFiles) {
  ASSERT_TRUE(Append("/000002.sst", "never synced", /*sync=*/false).ok());
  ASSERT_TRUE(Append("/000003.sst", "synced", /*sync=*/true).ok());

  ASSERT_TRUE(env_.DropUnsyncedData().ok());
  EXPECT_FALSE(env_.FileExists("/000002.sst"));
  EXPECT_EQ("synced", Contents("/000003.sst"));
}

TEST_F(FaultInjectionEnvTest, TornTailNeverPersistsNeverSyncedFile) {
  // A never-synced file's directory entry was never fsynced either: after a
  // crash the whole file is gone. A torn-tail fragment must not keep it
  // alive — even with tearing forced on every unsynced tail.
  ASSERT_TRUE(Append("/000042.sst", "never synced", /*sync=*/false).ok());
  ASSERT_TRUE(env_.DropUnsyncedData(/*torn_tail_one_in=*/1).ok());
  EXPECT_FALSE(env_.FileExists("/000042.sst"));
}

TEST_F(FaultInjectionEnvTest, TornTailIsDeterministicForASeed) {
  auto run_once = [](uint64_t seed) {
    MemEnv base;
    FaultInjectionEnv env(&base, seed);
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(env.NewWritableFile("/000004.log", &file).ok());
    EXPECT_TRUE(file->Append("synced-part|").ok());
    EXPECT_TRUE(file->Sync().ok());
    EXPECT_TRUE(file->Append("this tail will tear somewhere").ok());
    file.reset();
    EXPECT_TRUE(env.DropUnsyncedData(/*torn_tail_one_in=*/1).ok());
    std::string data;
    EXPECT_TRUE(ReadFileToString(&env, "/000004.log", &data).ok());
    return data;
  };

  const std::string a = run_once(99);
  const std::string b = run_once(99);
  EXPECT_EQ(a, b);  // Reproducible from the seed.
  // The torn tail is a strict extension of the synced prefix with a
  // corrupted final byte — never a rewind of synced data.
  EXPECT_EQ(0u, a.find("synced-part|"));
  EXPECT_GT(a.size(), std::string("synced-part|").size());
  EXPECT_NE(a, std::string("synced-part|") + "this tail will tear somewhere");
}

TEST_F(FaultInjectionEnvTest, RulesFilterByFileKind) {
  FaultRule rule;
  rule.file_kinds = kFaultWal;
  rule.ops = kFaultOpAppend | kFaultOpSync;
  rule.one_in = 1;  // Every matching op fails unconditionally.
  env_.AddRule(rule);

  EXPECT_FALSE(Append("/000005.log", "wal write", /*sync=*/true).ok());
  EXPECT_TRUE(Append("/000006.sst", "table write", /*sync=*/true).ok());
  EXPECT_TRUE(Append("/MANIFEST-000007", "edit", /*sync=*/true).ok());
  EXPECT_GE(env_.injected_faults(), 1u);
}

TEST_F(FaultInjectionEnvTest, ScriptedRuleFiresAtExactOpIndex) {
  FaultRule rule;
  rule.file_kinds = kFaultTable;
  rule.ops = kFaultOpAppend;
  rule.at_op_index = 2;  // Third table append fails; all others succeed.
  env_.AddRule(rule);

  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env_.NewWritableFile("/000008.sst", &file).ok());
  EXPECT_TRUE(file->Append("a").ok());
  EXPECT_TRUE(file->Append("b").ok());
  EXPECT_FALSE(file->Append("c").ok());
  EXPECT_TRUE(file->Append("d").ok());
  EXPECT_EQ(1u, env_.injected_faults());
}

TEST_F(FaultInjectionEnvTest, TransientRuleStopsAfterMaxFailures) {
  FaultRule rule;
  rule.file_kinds = kFaultAnyFile;
  rule.ops = kFaultOpSync;
  rule.one_in = 1;  // Every sync...
  rule.max_failures = 2;  // ...for the first two.
  env_.AddRule(rule);

  EXPECT_FALSE(Append("/000009.sst", "x", /*sync=*/true).ok());
  EXPECT_FALSE(Append("/000010.sst", "x", /*sync=*/true).ok());
  EXPECT_TRUE(Append("/000011.sst", "x", /*sync=*/true).ok());
  EXPECT_EQ(2u, env_.injected_faults());
}

TEST_F(FaultInjectionEnvTest, FlipBitRuleCorruptsReadsWithoutErrors) {
  ASSERT_TRUE(Append("/000012.sst", "pristine data", /*sync=*/true).ok());

  FaultRule rule;
  rule.file_kinds = kFaultTable;
  rule.ops = kFaultOpRead;
  rule.one_in = 1;
  rule.flip_bit = true;
  env_.AddRule(rule);

  std::string data;
  ASSERT_TRUE(ReadFileToString(&env_, "/000012.sst", &data).ok());
  EXPECT_NE("pristine data", data);    // Silently corrupted...
  EXPECT_EQ(13u, data.size());         // ...but same length,
  int diff = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    diff += data[i] != "pristine data"[i];
  }
  EXPECT_EQ(1, diff);  // ...differing in exactly one byte.
}

TEST_F(FaultInjectionEnvTest, InactiveFilesystemFailsMutationsNotReads) {
  ASSERT_TRUE(Append("/000013.log", "before crash", /*sync=*/true).ok());

  env_.SetFilesystemActive(false);
  EXPECT_FALSE(Append("/000014.log", "during crash", /*sync=*/false).ok());
  EXPECT_FALSE(env_.RenameFile("/000013.log", "/000015.log").ok());
  EXPECT_FALSE(env_.RemoveFile("/000013.log").ok());
  EXPECT_EQ("before crash", Contents("/000013.log"));  // Reads still work.

  env_.SetFilesystemActive(true);
  EXPECT_TRUE(Append("/000014.log", "after reopen", /*sync=*/false).ok());
}

TEST_F(FaultInjectionEnvTest, FailWritesKillSwitch) {
  env_.SetFailWrites(true);
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env_.NewWritableFile("/000016.sst", &file).ok());
  EXPECT_FALSE(file->Append("x").ok());
  EXPECT_FALSE(file->Sync().ok());
  env_.SetFailWrites(false);
  EXPECT_TRUE(file->Append("x").ok());
  EXPECT_TRUE(file->Sync().ok());
}

TEST_F(FaultInjectionEnvTest, RenameMovesSyncTracking) {
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env_.NewWritableFile("/000017.tmp", &file).ok());
  ASSERT_TRUE(file->Append("durable").ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Append("lost in the crash").ok());
  ASSERT_TRUE(file->Close().ok());
  file.reset();
  ASSERT_TRUE(env_.RenameFile("/000017.tmp", "/CURRENT").ok());

  ASSERT_TRUE(env_.DropUnsyncedData().ok());
  // The durable-prefix bookkeeping followed the rename: the renamed file is
  // rewound to its synced prefix rather than left (or dropped) whole.
  EXPECT_EQ("durable", Contents("/CURRENT"));
}

// ------------------------------------------------------------------ WAL ----

class WalTest : public ::testing::Test {
 protected:
  struct CountingReporter : public wal::Reader::Reporter {
    size_t dropped_bytes = 0;
    int corruption_reports = 0;
    void Corruption(size_t bytes, const Status&) override {
      dropped_bytes += bytes;
      ++corruption_reports;
    }
  };

  // Writes `records` through wal::Writer and reads them back.
  std::vector<std::string> RoundTrip(const std::vector<std::string>& records) {
    WriteAll(records);
    return ReadAll();
  }

  void WriteAll(const std::vector<std::string>& records) {
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(env_.NewWritableFile("/wal", &file).ok());
    wal::Writer writer(file.get());
    for (const auto& r : records) {
      EXPECT_TRUE(writer.AddRecord(r).ok());
    }
    EXPECT_TRUE(file->Close().ok());
  }

  std::vector<std::string> ReadAll() {
    std::unique_ptr<SequentialFile> file;
    EXPECT_TRUE(env_.NewSequentialFile("/wal", &file).ok());
    wal::Reader reader(file.get(), &reporter_);
    std::vector<std::string> out;
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch)) {
      out.push_back(record.ToString());
    }
    return out;
  }

  void CorruptByte(size_t offset) {
    std::string contents;
    EXPECT_TRUE(ReadFileToString(&env_, "/wal", &contents).ok());
    contents[offset] ^= 0x55;
    EXPECT_TRUE(WriteStringToFile(&env_, contents, "/wal").ok());
  }

  void TruncateTo(size_t size) {
    std::string contents;
    EXPECT_TRUE(ReadFileToString(&env_, "/wal", &contents).ok());
    contents.resize(size);
    EXPECT_TRUE(WriteStringToFile(&env_, contents, "/wal").ok());
  }

  MemEnv env_;
  CountingReporter reporter_;
};

TEST_F(WalTest, EmptyLog) {
  WriteAll({});
  EXPECT_TRUE(ReadAll().empty());
}

TEST_F(WalTest, SmallRecords) {
  auto out = RoundTrip({"alpha", "beta", "", "gamma"});
  ASSERT_EQ(4u, out.size());
  EXPECT_EQ("alpha", out[0]);
  EXPECT_EQ("beta", out[1]);
  EXPECT_EQ("", out[2]);
  EXPECT_EQ("gamma", out[3]);
  EXPECT_EQ(0, reporter_.corruption_reports);
}

TEST_F(WalTest, RecordSpanningBlocks) {
  // Records larger than one 32KB block must fragment and reassemble.
  std::string big(100000, 'z');
  std::string medium(40000, 'y');
  auto out = RoundTrip({big, medium, "tail"});
  ASSERT_EQ(3u, out.size());
  EXPECT_EQ(big, out[0]);
  EXPECT_EQ(medium, out[1]);
  EXPECT_EQ("tail", out[2]);
}

TEST_F(WalTest, ManyRandomSizedRecords) {
  Random rnd(301);
  std::vector<std::string> records;
  for (int i = 0; i < 500; ++i) {
    records.push_back(std::string(rnd.Skewed(16), static_cast<char>('a' + i % 26)));
  }
  auto out = RoundTrip(records);
  ASSERT_EQ(records.size(), out.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i], out[i]) << "record " << i;
  }
}

TEST_F(WalTest, ChecksumCorruptionDetected) {
  WriteAll({"first-record-payload", "second-record-payload"});
  CorruptByte(wal::kHeaderSize + 2);  // Inside the first record's payload.
  auto out = ReadAll();
  EXPECT_GE(reporter_.corruption_reports, 1);
  // The first record is dropped; replay resumes at a safe point.
  for (const auto& r : out) {
    EXPECT_NE("first-record-payload", r);
  }
}

TEST_F(WalTest, TruncatedTailIsSilentlyIgnored) {
  WriteAll({"one", "two", "three"});
  uint64_t size;
  ASSERT_TRUE(env_.GetFileSize("/wal", &size).ok());
  TruncateTo(size - 2);  // Simulates a crash mid-write of the last record.
  auto out = ReadAll();
  ASSERT_EQ(2u, out.size());
  EXPECT_EQ("one", out[0]);
  EXPECT_EQ("two", out[1]);
  EXPECT_EQ(0, reporter_.corruption_reports);  // A torn tail is not corruption.
}

TEST_F(WalTest, ReopenAndAppendSeparateWriters) {
  // The manifest is appended to by a fresh Writer after reopen; records from
  // both writers must replay (fresh writer starts at block 0 of its view,
  // so this test uses separate files to model rotation instead).
  WriteAll({"epoch1-a", "epoch1-b"});
  auto out = ReadAll();
  ASSERT_EQ(2u, out.size());
}

// ------------------------------------------------------------ MultiRead ----

TEST_P(EnvTest, MultiReadMatchesSerialReads) {
  const std::string fname = dir_ + "/batch";
  const std::string content = "0123456789abcdefghij";  // 20 bytes.
  ASSERT_TRUE(WriteStringToFile(env_, content, fname).ok());

  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env_->NewRandomAccessFile(fname, &file).ok());

  struct Case {
    uint64_t offset;
    size_t len;
    std::string expected;
  };
  const Case cases[] = {
      {0, 5, "01234"},
      {10, 4, "abcd"},
      {7, 3, "789"},
      {18, 6, "ij"},  // Short read at EOF.
      {25, 4, ""},    // Entirely past EOF: empty, not an error.
  };

  char bufs[5][8];
  ReadRequest reqs[5];
  for (size_t i = 0; i < 5; ++i) {
    reqs[i].file = file.get();
    reqs[i].offset = cases[i].offset;
    reqs[i].len = cases[i].len;
    reqs[i].scratch = bufs[i];
  }
  file->MultiRead(reqs, 5);
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(reqs[i].status.ok()) << "request " << i << ": "
                                     << reqs[i].status.ToString();
    EXPECT_EQ(cases[i].expected, reqs[i].result.ToString()) << "request " << i;
  }
}

TEST_P(EnvTest, EnvMultiReadSpansFilesInterleaved) {
  const std::string f1 = dir_ + "/batch1";
  const std::string f2 = dir_ + "/batch2";
  ASSERT_TRUE(WriteStringToFile(env_, "AAAABBBBCCCC", f1).ok());
  ASSERT_TRUE(WriteStringToFile(env_, "wwwwxxxxyyyy", f2).ok());

  std::unique_ptr<RandomAccessFile> file1, file2;
  ASSERT_TRUE(env_->NewRandomAccessFile(f1, &file1).ok());
  ASSERT_TRUE(env_->NewRandomAccessFile(f2, &file2).ok());

  // Interleave the two files so the grouping path is exercised.
  char bufs[4][8];
  ReadRequest reqs[4];
  RandomAccessFile* files[] = {file1.get(), file2.get(), file1.get(),
                               file2.get()};
  const uint64_t offsets[] = {0, 4, 8, 8};
  for (size_t i = 0; i < 4; ++i) {
    reqs[i].file = files[i];
    reqs[i].offset = offsets[i];
    reqs[i].len = 4;
    reqs[i].scratch = bufs[i];
  }
  env_->MultiRead(reqs, 4);
  const std::string expected[] = {"AAAA", "xxxx", "CCCC", "yyyy"};
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(reqs[i].status.ok()) << "request " << i;
    EXPECT_EQ(expected[i], reqs[i].result.ToString()) << "request " << i;
  }
}

TEST_P(EnvTest, EnvMultiReadRejectsNullFilePerRequest) {
  const std::string fname = dir_ + "/batch3";
  ASSERT_TRUE(WriteStringToFile(env_, "payload", fname).ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env_->NewRandomAccessFile(fname, &file).ok());

  char bufs[2][8];
  ReadRequest reqs[2];
  reqs[0].file = nullptr;  // Malformed request.
  reqs[0].len = 4;
  reqs[0].scratch = bufs[0];
  reqs[1].file = file.get();
  reqs[1].offset = 0;
  reqs[1].len = 7;
  reqs[1].scratch = bufs[1];
  env_->MultiRead(reqs, 2);
  // Requests are independent: the bad one fails alone.
  EXPECT_TRUE(reqs[0].status.IsInvalidArgument());
  ASSERT_TRUE(reqs[1].status.ok());
  EXPECT_EQ("payload", reqs[1].result.ToString());
}

TEST(PosixMultiReadTest, LongBatchMatchesFileContents) {
  Env* env = Env::Default();
  const std::string dir = ::testing::TempDir() + "lsmlab_multiread_test_" +
                          std::to_string(::getpid());
  ASSERT_TRUE(env->CreateDir(dir).ok());
  const std::string fname = dir + "/data";
  std::string content(8192, '\0');
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<char>('a' + (i % 26));
  }
  ASSERT_TRUE(WriteStringToFile(env, content, fname).ok());

  // Offsets hash around the file; the last few land near or past EOF to
  // cover short reads.
  constexpr size_t kReqs = 70;
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env->NewRandomAccessFile(fname, &file).ok());
  std::vector<std::string> bufs(kReqs, std::string(32, '\0'));
  std::vector<ReadRequest> reqs(kReqs);
  for (size_t i = 0; i < kReqs; ++i) {
    reqs[i].file = file.get();
    reqs[i].offset = (i * 997) % 8300;  // A few past 8192 - 32.
    reqs[i].len = 32;
    reqs[i].scratch = bufs[i].data();
  }
  env->MultiRead(reqs.data(), kReqs);
  for (size_t i = 0; i < kReqs; ++i) {
    ASSERT_TRUE(reqs[i].status.ok())
        << "request " << i << ": " << reqs[i].status.ToString();
    const uint64_t off = reqs[i].offset;
    const std::string expected =
        off >= content.size() ? "" : content.substr(off, 32);
    EXPECT_EQ(expected, reqs[i].result.ToString()) << "request " << i;
  }

  file.reset();
  (void)env->RemoveFile(fname);
  (void)env->RemoveDir(dir);
}

TEST(CountingEnvTest, MultiReadCountsRequestsAndBatches) {
  // E1's stack: counters over an emulated device over memory, so every
  // batch crosses two decorator layers.
  MemEnv base;
  MockClock clock;
  DeviceModel model;
  model.per_op_latency_micros = 100;
  model.bandwidth_bytes_per_sec = 1000000;  // 1 MB/s -> 1 us per byte.
  LatencyEnv latency(&base, model, &clock);
  CountingEnv env(&latency);
  ASSERT_TRUE(WriteStringToFile(&base, "aaaabbbbcccc", "/f1").ok());
  ASSERT_TRUE(WriteStringToFile(&base, "ddddeeeeffff", "/f2").ok());

  std::unique_ptr<RandomAccessFile> file1, file2;
  ASSERT_TRUE(env.NewRandomAccessFile("/f1", &file1).ok());
  ASSERT_TRUE(env.NewRandomAccessFile("/f2", &file2).ok());
  env.ResetStats();

  // File-level batch: every request tallies as one read op, the submission
  // as one batch — so serial and batched runs agree on read_ops/bytes_read.
  char bufs[4][8];
  ReadRequest reqs[3];
  for (size_t i = 0; i < 3; ++i) {
    reqs[i].file = file1.get();
    reqs[i].offset = i * 4;
    reqs[i].len = 4;
    reqs[i].scratch = bufs[i];
  }
  uint64_t before = clock.NowMicros();
  file1->MultiRead(reqs, 3);
  IoStats stats = env.GetStats();
  EXPECT_EQ(3u, stats.read_ops);
  EXPECT_EQ(12u, stats.bytes_read);
  EXPECT_EQ(1u, stats.multiread_batches);
  EXPECT_EQ(before + 100 + 12, clock.NowMicros());  // One op charge.

  // Env-level interleaved cross-file batch: still one submission and one
  // op charge through both layers.
  env.ResetStats();
  ReadRequest cross[4];
  RandomAccessFile* files[] = {file1.get(), file2.get(), file1.get(),
                               file2.get()};
  for (size_t i = 0; i < 4; ++i) {
    cross[i].file = files[i];
    cross[i].offset = 4;
    cross[i].len = 4;
    cross[i].scratch = bufs[i];
  }
  before = clock.NowMicros();
  env.MultiRead(cross, 4);
  stats = env.GetStats();
  EXPECT_EQ(4u, stats.read_ops);
  EXPECT_EQ(16u, stats.bytes_read);
  EXPECT_EQ(1u, stats.multiread_batches);
  EXPECT_EQ(before + 100 + 16, clock.NowMicros());
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(cross[i].status.ok());
    EXPECT_EQ(i % 2 == 0 ? "bbbb" : "eeee", cross[i].result.ToString());
  }
}

TEST(LatencyEnvTest, MultiReadChargesOneOpPerBatch) {
  MemEnv base;
  MockClock clock;
  DeviceModel model;
  model.per_op_latency_micros = 100;
  model.bandwidth_bytes_per_sec = 1000000;  // 1 MB/s -> 1 us per byte.
  LatencyEnv env(&base, model, &clock);
  ASSERT_TRUE(WriteStringToFile(&base, std::string(1024, 'x'), "/f").ok());

  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env.NewRandomAccessFile("/f", &file).ok());

  char bufs[4][128];
  ReadRequest reqs[4];
  for (size_t i = 0; i < 4; ++i) {
    reqs[i].file = file.get();
    reqs[i].offset = i * 100;
    reqs[i].len = 100;
    reqs[i].scratch = bufs[i];
  }

  // A queued device (NCQ): the batch pays ONE fixed op cost plus transfer
  // for the total bytes...
  uint64_t before = clock.NowMicros();
  file->MultiRead(reqs, 4);
  EXPECT_EQ(before + 100 + 400, clock.NowMicros());

  // ...where the serial loop pays the fixed cost on every read. This gap is
  // the entire batched-MultiGet speedup of experiment A6.
  before = clock.NowMicros();
  for (size_t i = 0; i < 4; ++i) {
    Slice result;
    ASSERT_TRUE(file->Read(i * 100, 100, &result, bufs[i]).ok());
  }
  EXPECT_EQ(before + 4 * (100 + 100), clock.NowMicros());

  // Env-level cross-file batches are still one submission.
  std::unique_ptr<RandomAccessFile> file2;
  ASSERT_TRUE(WriteStringToFile(&base, std::string(1024, 'y'), "/g").ok());
  ASSERT_TRUE(env.NewRandomAccessFile("/g", &file2).ok());
  reqs[1].file = file2.get();
  reqs[3].file = file2.get();
  before = clock.NowMicros();
  env.MultiRead(reqs, 4);
  EXPECT_EQ(before + 100 + 400, clock.NowMicros());
}

// Batched reads must be indistinguishable from a serial Read loop to fault
// rules: scripted indices, transient windows, and bit flips all fire on the
// same requests either way. (The equivalence argument: error-rule checks run
// in request order before dispatch, flip-bit checks in request order after —
// and the two rule families keep disjoint matched-counters.)

TEST_F(FaultInjectionEnvTest, ScriptedReadFaultParityThroughMultiRead) {
  const std::string content = "abcdefghijklmnopqrst";
  FaultRule rule;
  rule.ops = kFaultOpRead;
  rule.at_op_index = 2;

  // Serial baseline: which of 5 reads fails?
  std::vector<bool> serial_ok;
  {
    MemEnv base;
    ASSERT_TRUE(WriteStringToFile(&base, content, "/000030.sst").ok());
    FaultInjectionEnv env(&base, /*seed=*/777);
    env.AddRule(rule);
    std::unique_ptr<RandomAccessFile> file;
    ASSERT_TRUE(env.NewRandomAccessFile("/000030.sst", &file).ok());
    char scratch[8];
    for (int i = 0; i < 5; ++i) {
      Slice result;
      serial_ok.push_back(file->Read(i * 4, 4, &result, scratch).ok());
    }
    EXPECT_EQ(1u, env.injected_faults());
  }
  ASSERT_EQ((std::vector<bool>{true, true, false, true, true}), serial_ok);

  // The same five reads as one batch fail at the same index.
  {
    MemEnv base;
    ASSERT_TRUE(WriteStringToFile(&base, content, "/000030.sst").ok());
    FaultInjectionEnv env(&base, /*seed=*/777);
    env.AddRule(rule);
    std::unique_ptr<RandomAccessFile> file;
    ASSERT_TRUE(env.NewRandomAccessFile("/000030.sst", &file).ok());
    char bufs[5][8];
    ReadRequest reqs[5];
    for (size_t i = 0; i < 5; ++i) {
      reqs[i].file = file.get();
      reqs[i].offset = i * 4;
      reqs[i].len = 4;
      reqs[i].scratch = bufs[i];
    }
    file->MultiRead(reqs, 5);
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(serial_ok[i], reqs[i].status.ok()) << "request " << i;
      if (reqs[i].status.ok()) {
        EXPECT_EQ(content.substr(i * 4, 4), reqs[i].result.ToString());
      }
    }
    EXPECT_TRUE(reqs[2].status.IsIOError());
    EXPECT_EQ(1u, env.injected_faults());
  }
}

TEST_F(FaultInjectionEnvTest, ScriptedFaultHonorsRequestOrderAcrossFiles) {
  // An env-level batch interleaving two files must count rule matches in
  // request order — NOT per-file-group order — to mirror a serial loop.
  FaultRule rule;
  rule.ops = kFaultOpRead;
  rule.at_op_index = 3;

  MemEnv base;
  ASSERT_TRUE(WriteStringToFile(&base, "AAAAAAAA", "/000031.sst").ok());
  ASSERT_TRUE(WriteStringToFile(&base, "BBBBBBBB", "/000032.sst").ok());
  FaultInjectionEnv env(&base, /*seed=*/777);
  env.AddRule(rule);
  std::unique_ptr<RandomAccessFile> fa, fb;
  ASSERT_TRUE(env.NewRandomAccessFile("/000031.sst", &fa).ok());
  ASSERT_TRUE(env.NewRandomAccessFile("/000032.sst", &fb).ok());

  char bufs[5][8];
  ReadRequest reqs[5];
  RandomAccessFile* files[] = {fa.get(), fb.get(), fa.get(), fb.get(),
                               fa.get()};
  for (size_t i = 0; i < 5; ++i) {
    reqs[i].file = files[i];
    reqs[i].offset = 0;
    reqs[i].len = 4;
    reqs[i].scratch = bufs[i];
  }
  env.MultiRead(reqs, 5);
  // A per-file grouping ({A,A,A},{B,B}) would fail B's first read instead.
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(i != 3, reqs[i].status.ok()) << "request " << i;
  }
  EXPECT_TRUE(reqs[3].status.IsIOError());
}

TEST_F(FaultInjectionEnvTest, FlipBitParityThroughMultiRead) {
  const std::string content = "pristine-pristine-pristine";
  FaultRule rule;
  rule.ops = kFaultOpRead;
  rule.at_op_index = 1;
  rule.flip_bit = true;

  auto run = [&](bool batched) {
    MemEnv base;
    EXPECT_TRUE(WriteStringToFile(&base, content, "/000033.sst").ok());
    FaultInjectionEnv env(&base, /*seed=*/42);
    env.AddRule(rule);
    std::unique_ptr<RandomAccessFile> file;
    EXPECT_TRUE(env.NewRandomAccessFile("/000033.sst", &file).ok());
    std::vector<std::string> out;
    char bufs[3][16];
    if (batched) {
      ReadRequest reqs[3];
      for (size_t i = 0; i < 3; ++i) {
        reqs[i].file = file.get();
        reqs[i].offset = i * 8;
        reqs[i].len = 8;
        reqs[i].scratch = bufs[i];
      }
      file->MultiRead(reqs, 3);
      for (auto& req : reqs) {
        EXPECT_TRUE(req.status.ok());
        out.push_back(req.result.ToString());
      }
    } else {
      for (size_t i = 0; i < 3; ++i) {
        Slice result;
        EXPECT_TRUE(file->Read(i * 8, 8, &result, bufs[i]).ok());
        out.push_back(result.ToString());
      }
    }
    return out;
  };

  const auto serial = run(/*batched=*/false);
  const auto batched = run(/*batched=*/true);
  // Same seed, same single rng draw: the same bit of the same read flips.
  EXPECT_EQ(serial, batched);
  EXPECT_EQ(content.substr(0, 8), serial[0]);
  EXPECT_NE(content.substr(8, 8), serial[1]);  // Silently corrupted.
  EXPECT_EQ(content.substr(16, 8), serial[2]);
}

TEST_F(FaultInjectionEnvTest, TransientReadWindowParityThroughMultiRead) {
  // one_in=1 fires on every matching read until max_failures is exhausted:
  // a transient outage covering exactly the first two reads.
  FaultRule rule;
  rule.ops = kFaultOpRead;
  rule.one_in = 1;
  rule.max_failures = 2;

  auto failure_pattern = [&](bool batched) {
    MemEnv base;
    EXPECT_TRUE(WriteStringToFile(&base, "0123456789abcdef", "/000034.sst").ok());
    FaultInjectionEnv env(&base, /*seed=*/9);
    env.AddRule(rule);
    std::unique_ptr<RandomAccessFile> file;
    EXPECT_TRUE(env.NewRandomAccessFile("/000034.sst", &file).ok());
    std::vector<bool> ok;
    char bufs[4][8];
    if (batched) {
      ReadRequest reqs[4];
      for (size_t i = 0; i < 4; ++i) {
        reqs[i].file = file.get();
        reqs[i].offset = i * 4;
        reqs[i].len = 4;
        reqs[i].scratch = bufs[i];
      }
      file->MultiRead(reqs, 4);
      for (const auto& req : reqs) {
        ok.push_back(req.status.ok());
      }
    } else {
      for (size_t i = 0; i < 4; ++i) {
        Slice result;
        ok.push_back(file->Read(i * 4, 4, &result, bufs[i]).ok());
      }
    }
    return ok;
  };

  const std::vector<bool> expected{false, false, true, true};
  EXPECT_EQ(expected, failure_pattern(/*batched=*/false));
  EXPECT_EQ(expected, failure_pattern(/*batched=*/true));
}

// ------------------------------------------------------ ReadaheadFile ----

class ReadaheadTest : public ::testing::Test {
 protected:
  // A base file that counts how many device reads actually happen.
  class CountingFile : public RandomAccessFile {
   public:
    explicit CountingFile(RandomAccessFile* base) : base_(base) {}
    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      ++reads_;
      return base_->Read(offset, n, result, scratch);
    }
    mutable int reads_ = 0;

   private:
    RandomAccessFile* const base_;
  };

  void SetUp() override {
    content_.resize(2000);
    for (size_t i = 0; i < content_.size(); ++i) {
      content_[i] = static_cast<char>('a' + (i % 26));
    }
    ASSERT_TRUE(WriteStringToFile(&env_, content_, "/f").ok());
    ASSERT_TRUE(env_.NewRandomAccessFile("/f", &base_file_).ok());
    counting_ = std::make_unique<CountingFile>(base_file_.get());
  }

  std::string ReadAt(const ReadaheadRandomAccessFile& file, uint64_t offset,
                     size_t n) {
    std::string buf(n, '\0');
    Slice result;
    EXPECT_TRUE(file.Read(offset, n, &result, buf.data()).ok());
    return result.ToString();
  }

  MemEnv env_;
  std::string content_;
  std::unique_ptr<RandomAccessFile> base_file_;
  std::unique_ptr<CountingFile> counting_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

TEST_F(ReadaheadTest, SequentialScanRampsWindowAndSavesDeviceReads) {
  ReadaheadRandomAccessFile file(counting_.get(), /*initial_readahead=*/128,
                                 /*max_readahead=*/512, &hits_, &misses_);
  // First read misses and fetches the initial 128-byte window.
  EXPECT_EQ(content_.substr(0, 64), ReadAt(file, 0, 64));
  EXPECT_EQ(1u, misses_.load());
  EXPECT_EQ(1, counting_->reads_);
  EXPECT_EQ(128u, file.window());
  // Second read is served from the buffer: no device read.
  EXPECT_EQ(content_.substr(64, 64), ReadAt(file, 64, 64));
  EXPECT_EQ(1u, hits_.load());
  EXPECT_EQ(1, counting_->reads_);
  // Continuing exactly at the buffer end doubles the window: 256 bytes.
  EXPECT_EQ(content_.substr(128, 64), ReadAt(file, 128, 64));
  EXPECT_EQ(2u, misses_.load());
  EXPECT_EQ(2, counting_->reads_);
  EXPECT_EQ(256u, file.window());
  // ...which now covers the next three reads for free.
  for (int i = 0; i < 3; ++i) {
    const uint64_t off = 192 + i * 64;
    EXPECT_EQ(content_.substr(off, 64), ReadAt(file, off, 64));
  }
  EXPECT_EQ(4u, hits_.load());
  EXPECT_EQ(2, counting_->reads_);
  // The ramp caps at max_readahead.
  EXPECT_EQ(content_.substr(384, 64), ReadAt(file, 384, 64));
  EXPECT_EQ(512u, file.window());
}

TEST_F(ReadaheadTest, RandomJumpResetsWindow) {
  ReadaheadRandomAccessFile file(counting_.get(), 128, 512, &hits_, &misses_);
  ReadAt(file, 0, 64);
  ReadAt(file, 128, 64);  // Sequential: window -> 256.
  ASSERT_EQ(256u, file.window());
  // A random jump stops the speculation: window back to initial.
  EXPECT_EQ(content_.substr(1500, 64), ReadAt(file, 1500, 64));
  EXPECT_EQ(128u, file.window());
}

TEST_F(ReadaheadTest, ShortReadAtEofAndLargeReadPassthrough) {
  ReadaheadRandomAccessFile file(counting_.get(), 128, 512, &hits_, &misses_);
  // The prefetch window overruns EOF; the read itself is served short,
  // exactly like a plain Read.
  EXPECT_EQ(content_.substr(1990), ReadAt(file, 1990, 64));
  EXPECT_EQ(10u, ReadAt(file, 1990, 64).size());
  // Entirely past EOF: empty.
  EXPECT_EQ("", ReadAt(file, 3000, 32));
  // Reads >= max_readahead bypass the buffer (and its accounting).
  const uint64_t hits_before = hits_.load();
  const uint64_t misses_before = misses_.load();
  EXPECT_EQ(content_.substr(0, 512), ReadAt(file, 0, 512));
  EXPECT_EQ(hits_before, hits_.load());
  EXPECT_EQ(misses_before, misses_.load());
}

}  // namespace
}  // namespace lsmlab
