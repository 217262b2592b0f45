#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "db/db.h"
#include "db/filename.h"
#include "db/merge_operator.h"
#include "db/write_batch.h"
#include "io/mem_env.h"

namespace lsmlab {
namespace {

// ------------------------------------------------------------- unit level --

struct RecordingHandler : public WriteBatch::Handler {
  std::vector<std::string> events;
  void Put(const Slice& key, const Slice& value) override {
    events.push_back("put:" + key.ToString() + "=" + value.ToString());
  }
  void Delete(const Slice& key) override {
    events.push_back("del:" + key.ToString());
  }
  void SingleDelete(const Slice& key) override {
    events.push_back("sdel:" + key.ToString());
  }
  void Merge(const Slice& key, const Slice& operand) override {
    events.push_back("merge:" + key.ToString() + "+" + operand.ToString());
  }
};

TEST(WriteBatchTest, EmptyBatch) {
  WriteBatch batch;
  EXPECT_EQ(0u, batch.Count());
  RecordingHandler handler;
  EXPECT_TRUE(batch.Iterate(&handler).ok());
  EXPECT_TRUE(handler.events.empty());
}

TEST(WriteBatchTest, IterationPreservesOrder) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Delete("b");
  batch.Merge("c", "5");
  batch.SingleDelete("d");
  batch.Put("e", "");
  EXPECT_EQ(5u, batch.Count());

  RecordingHandler handler;
  ASSERT_TRUE(batch.Iterate(&handler).ok());
  ASSERT_EQ(5u, handler.events.size());
  EXPECT_EQ("put:a=1", handler.events[0]);
  EXPECT_EQ("del:b", handler.events[1]);
  EXPECT_EQ("merge:c+5", handler.events[2]);
  EXPECT_EQ("sdel:d", handler.events[3]);
  EXPECT_EQ("put:e=", handler.events[4]);
}

TEST(WriteBatchTest, SequenceRoundTrip) {
  WriteBatch batch;
  batch.Put("k", "v");
  batch.SetSequence(987654321);
  EXPECT_EQ(987654321u, batch.sequence());

  WriteBatch copy;
  ASSERT_TRUE(copy.SetRep(batch.rep()).ok());
  EXPECT_EQ(987654321u, copy.sequence());
  EXPECT_EQ(1u, copy.Count());
}

TEST(WriteBatchTest, ClearResets) {
  WriteBatch batch;
  batch.Put("k", "v");
  batch.Clear();
  EXPECT_EQ(0u, batch.Count());
}

TEST(WriteBatchTest, AppendConcatenatesCountsAndRecords) {
  WriteBatch dst, src;
  dst.Put("a", "1");
  dst.Delete("b");
  src.Put("c", "3");
  src.Merge("d", "4");
  src.SingleDelete("e");
  dst.Append(src);
  EXPECT_EQ(5u, dst.Count());
  EXPECT_EQ(3u, src.Count());  // Source is untouched.

  RecordingHandler handler;
  ASSERT_TRUE(dst.Iterate(&handler).ok());
  ASSERT_EQ(5u, handler.events.size());
  EXPECT_EQ("put:a=1", handler.events[0]);
  EXPECT_EQ("del:b", handler.events[1]);
  EXPECT_EQ("put:c=3", handler.events[2]);
  EXPECT_EQ("merge:d+4", handler.events[3]);
  EXPECT_EQ("sdel:e", handler.events[4]);
}

TEST(WriteBatchTest, AppendPreservesDestinationSequence) {
  WriteBatch dst, src;
  dst.Put("a", "1");
  dst.SetSequence(42);
  src.Put("b", "2");
  src.SetSequence(777);  // Follower sequences are ignored on append.
  dst.Append(src);
  EXPECT_EQ(42u, dst.sequence());
  EXPECT_EQ(2u, dst.Count());
}

TEST(WriteBatchTest, AppendEmptyBatches) {
  WriteBatch dst, src, empty;
  // Empty source: no-op.
  dst.Put("a", "1");
  dst.Append(empty);
  EXPECT_EQ(1u, dst.Count());
  RecordingHandler handler;
  ASSERT_TRUE(dst.Iterate(&handler).ok());
  EXPECT_EQ(1u, handler.events.size());
  // Empty destination adopts the source's records.
  src.Put("b", "2");
  empty.Append(src);
  EXPECT_EQ(1u, empty.Count());
  RecordingHandler handler2;
  ASSERT_TRUE(empty.Iterate(&handler2).ok());
  ASSERT_EQ(1u, handler2.events.size());
  EXPECT_EQ("put:b=2", handler2.events[0]);
}

TEST(WriteBatchTest, AppendTypedRecordRoundTrip) {
  // Raw typed records (e.g. vlog pointers) must survive an append intact.
  struct TypedHandler : public WriteBatch::Handler {
    std::vector<std::pair<ValueType, std::string>> records;
    void TypedRecord(ValueType type, const Slice& key,
                     const Slice& value) override {
      records.emplace_back(type, key.ToString() + "=" + value.ToString());
    }
    void Put(const Slice&, const Slice&) override {}
    void Delete(const Slice&) override {}
    void SingleDelete(const Slice&) override {}
    void Merge(const Slice&, const Slice&) override {}
  };

  WriteBatch dst, src;
  dst.PutTyped(kTypeValue, "k1", "v1");
  src.PutTyped(kTypeVlogPointer, "k2", "ptr-bytes");
  src.PutTyped(kTypeMerge, "k3", "+1");
  dst.Append(src);
  ASSERT_EQ(3u, dst.Count());

  TypedHandler handler;
  ASSERT_TRUE(dst.Iterate(&handler).ok());
  ASSERT_EQ(3u, handler.records.size());
  EXPECT_EQ(kTypeValue, handler.records[0].first);
  EXPECT_EQ("k1=v1", handler.records[0].second);
  EXPECT_EQ(kTypeVlogPointer, handler.records[1].first);
  EXPECT_EQ("k2=ptr-bytes", handler.records[1].second);
  EXPECT_EQ(kTypeMerge, handler.records[2].first);
  EXPECT_EQ("k3=+1", handler.records[2].second);

  // The appended rep round-trips through serialization (the WAL path).
  WriteBatch copy;
  ASSERT_TRUE(copy.SetRep(dst.rep()).ok());
  TypedHandler handler2;
  ASSERT_TRUE(copy.Iterate(&handler2).ok());
  EXPECT_EQ(handler.records, handler2.records);
}

TEST(WriteBatchTest, CorruptRepDetected) {
  WriteBatch batch;
  EXPECT_TRUE(batch.SetRep(Slice("tiny")).IsCorruption());

  // Valid header claiming one record, but truncated body.
  std::string rep(12, '\0');
  rep[8] = 1;  // count = 1.
  rep.push_back(static_cast<char>(kTypeValue));
  ASSERT_TRUE(batch.SetRep(rep).ok());
  RecordingHandler handler;
  EXPECT_TRUE(batch.Iterate(&handler).IsCorruption());
}

TEST(WriteBatchTest, CountMismatchDetected) {
  // Fuzzer-derived regression (fuzz_write_batch): a rep whose header count
  // disagrees with the records actually present must surface as Corruption
  // in both directions, never as a short or over-long replay.
  WriteBatch source;
  source.Put("a", "1");
  source.Put("b", "2");

  std::string overcounted = source.rep();
  overcounted[8] = 3;  // Header claims 3, body holds 2.
  WriteBatch batch;
  ASSERT_TRUE(batch.SetRep(overcounted).ok());
  RecordingHandler handler;
  EXPECT_TRUE(batch.Iterate(&handler).IsCorruption());

  std::string undercounted = source.rep();
  undercounted[8] = 1;  // Header claims 1, body holds 2.
  ASSERT_TRUE(batch.SetRep(undercounted).ok());
  RecordingHandler handler2;
  EXPECT_TRUE(batch.Iterate(&handler2).IsCorruption());
}

TEST(WriteBatchTest, UnknownRecordTagDetected) {
  // Fuzzer-derived regression: a tag byte past the newest known ValueType
  // (a record from a future or corrupted writer) must stop the replay with
  // Corruption rather than desynchronize the record stream.
  WriteBatch source;
  source.Put("k", "v");
  std::string rep = source.rep();
  rep[12] = '\x7e';  // First record's type byte: far beyond kTypeMerge.
  WriteBatch batch;
  ASSERT_TRUE(batch.SetRep(rep).ok());
  RecordingHandler handler;
  EXPECT_TRUE(batch.Iterate(&handler).IsCorruption());
}

// --------------------------------------------------------------- DB level --

class DbWriteBatchTest : public ::testing::Test {
 protected:
  DbWriteBatchTest() {
    options_.env = &env_;
    options_.write_buffer_size = 8 << 10;
    options_.merge_operator = NewInt64AddOperator();
  }

  void Open() { ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok()); }

  std::string Get(const std::string& key) {
    std::string value;
    Status s = db_->Get(ReadOptions(), key, &value);
    return s.ok() ? value : (s.IsNotFound() ? "NOT_FOUND" : s.ToString());
  }

  MemEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbWriteBatchTest, AppliesAllOperations) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "doomed", "x").ok());
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("doomed");
  batch.Merge("counter", "7");
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  EXPECT_EQ("1", Get("a"));
  EXPECT_EQ("2", Get("b"));
  EXPECT_EQ("NOT_FOUND", Get("doomed"));
  EXPECT_EQ("7", Get("counter"));
}

TEST_F(DbWriteBatchTest, LaterOpsInBatchShadowEarlier) {
  Open();
  WriteBatch batch;
  batch.Put("k", "first");
  batch.Put("k", "second");
  batch.Delete("k");
  batch.Put("k", "final");
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  EXPECT_EQ("final", Get("k"));
}

TEST_F(DbWriteBatchTest, AtomicAcrossRecovery) {
  Open();
  WriteBatch batch;
  for (int i = 0; i < 200; ++i) {
    batch.Put("batch-key" + std::to_string(i), "v" + std::to_string(i));
  }
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  db_.reset();
  Open();
  // All 200 writes of the batch replay together.
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ("v" + std::to_string(i), Get("batch-key" + std::to_string(i)));
  }
}

TEST_F(DbWriteBatchTest, EmptyBatchIsNoop) {
  Open();
  WriteBatch batch;
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  EXPECT_TRUE(db_->Write(WriteOptions(), nullptr).ok());
}

TEST_F(DbWriteBatchTest, BatchWithKvSeparation) {
  options_.kv_separation = true;
  options_.kv_separation_threshold = 50;
  Open();
  WriteBatch batch;
  std::string big(200, 'B');
  batch.Put("big", big);
  batch.Put("small", "s");
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  EXPECT_EQ(big, Get("big"));
  EXPECT_EQ("s", Get("small"));
  // The value log holds the big value's bytes.
  std::vector<std::string> children;
  ASSERT_TRUE(env_.GetChildren("/db", &children).ok());
  uint64_t vlog_bytes = 0;
  for (const auto& child : children) {
    uint64_t number, size;
    FileType type;
    if (ParseFileName(child, &number, &type) && type == FileType::kVlogFile) {
      ASSERT_TRUE(env_.GetFileSize("/db/" + child, &size).ok());
      vlog_bytes += size;
    }
  }
  EXPECT_GT(vlog_bytes, big.size());
  // Survives flush + reopen (WAL holds the pointer, vlog the bytes).
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ(big, Get("big"));
}

TEST_F(DbWriteBatchTest, SequencesInterleaveWithSingleWrites) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v1").ok());
  WriteBatch batch;
  batch.Put("k", "v2");
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v3").ok());
  EXPECT_EQ("v3", Get("k"));
  // Snapshot between batch and final put sees the batch's value.
  db_.reset();
  Open();
  EXPECT_EQ("v3", Get("k"));
}

}  // namespace
}  // namespace lsmlab
