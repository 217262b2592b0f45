#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "db/db.h"
#include "db/merge_operator.h"
#include "io/mem_env.h"
#include "util/random.h"

namespace lsmlab {
namespace {

class MergeTest : public ::testing::Test {
 protected:
  MergeTest() {
    options_.env = &env_;
    options_.write_buffer_size = 4 << 10;
    options_.max_bytes_for_level_base = 32 << 10;
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

TEST_F(MergeTest, RequiresOperator) {
  options_.merge_operator = nullptr;
  Open();
  EXPECT_TRUE(
      db_->Merge(WriteOptions(), "counter", "1").IsInvalidArgument());
}

TEST_F(MergeTest, WriteRejectsMergeWithoutOperator) {
  options_.merge_operator = nullptr;
  Open();
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Merge("counter", "1");
  const Status s = db_->Write(WriteOptions(), &batch);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(db_->Merge(WriteOptions(), "counter", "1").ToString(),
            s.ToString());
  // Refused before the WAL append: none of the batch lands, not even after
  // a reopen replays the log.
  EXPECT_EQ("NOT_FOUND", Get("a"));
  db_.reset();
  Open();
  EXPECT_EQ("NOT_FOUND", Get("a"));
  EXPECT_EQ("NOT_FOUND", Get("counter"));
}

TEST_F(MergeTest, StoredOperandsWithoutOperatorAreAnError) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "base", "1").ok());
  ASSERT_TRUE(db_->Merge(WriteOptions(), "flushed", "1").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Merge(WriteOptions(), "logged", "2").ok());  // WAL only.
  db_.reset();
  options_.merge_operator = nullptr;
  Open();
  const std::string missing =
      db_->Merge(WriteOptions(), "x", "1").ToString();
  ASSERT_NE("OK", missing);

  EXPECT_EQ("1", Get("base"));
  EXPECT_EQ(missing, Get("flushed"));
  EXPECT_EQ(missing, Get("logged"));

  std::vector<Slice> keys = {"base", "flushed", "logged"};
  std::vector<std::string> values;
  std::vector<Status> statuses = db_->MultiGet(ReadOptions(), keys, &values);
  ASSERT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  EXPECT_EQ("1", values[0]);
  EXPECT_EQ(missing, statuses[1].ToString());
  EXPECT_EQ(missing, statuses[2].ToString());

  auto iter = db_->NewIterator(ReadOptions());
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("base", iter->key().ToString());
  iter->Next();
  EXPECT_FALSE(iter->Valid());
  EXPECT_EQ(missing, iter->status().ToString());
}

TEST_F(MergeTest, MergeWithoutBase) {
  Open();
  ASSERT_TRUE(db_->Merge(WriteOptions(), "counter", "5").ok());
  ASSERT_TRUE(db_->Merge(WriteOptions(), "counter", "7").ok());
  EXPECT_EQ("12", Get("counter"));
}

TEST_F(MergeTest, MergeOnTopOfBaseValue) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "counter", "100").ok());
  ASSERT_TRUE(db_->Merge(WriteOptions(), "counter", "-30").ok());
  ASSERT_TRUE(db_->Merge(WriteOptions(), "counter", "5").ok());
  EXPECT_EQ("75", Get("counter"));
}

TEST_F(MergeTest, PutAfterMergeResets) {
  Open();
  ASSERT_TRUE(db_->Merge(WriteOptions(), "counter", "5").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "counter", "0").ok());
  ASSERT_TRUE(db_->Merge(WriteOptions(), "counter", "3").ok());
  EXPECT_EQ("3", Get("counter"));
}

TEST_F(MergeTest, DeleteCutsTheChain) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "counter", "100").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "counter").ok());
  ASSERT_TRUE(db_->Merge(WriteOptions(), "counter", "4").ok());
  // The merge sees no base (deleted): result is just the operand sum.
  EXPECT_EQ("4", Get("counter"));
}

TEST_F(MergeTest, DeletedMergeKeyIsNotFound) {
  Open();
  ASSERT_TRUE(db_->Merge(WriteOptions(), "counter", "4").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "counter").ok());
  EXPECT_EQ("NOT_FOUND", Get("counter"));
}

TEST_F(MergeTest, OperandsSurviveFlushesAndCompactions) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "counter", "1000").ok());
  ASSERT_TRUE(db_->Flush().ok());
  int64_t expected = 1000;
  Random rnd(5);
  for (int i = 0; i < 50; ++i) {
    int64_t delta = static_cast<int64_t>(rnd.Uniform(100)) - 50;
    expected += delta;
    ASSERT_TRUE(
        db_->Merge(WriteOptions(), "counter", std::to_string(delta)).ok());
    if (i % 10 == 9) {
      ASSERT_TRUE(db_->Flush().ok());
    }
  }
  EXPECT_EQ(std::to_string(expected), Get("counter"));
  ASSERT_TRUE(db_->CompactRange().ok());
  EXPECT_EQ(std::to_string(expected), Get("counter"))
      << "compaction must not drop merge operands";
}

TEST_F(MergeTest, ManyCountersAcrossTree) {
  Open();
  // Interleave puts and merges over many keys, spanning flushes.
  int64_t expected[40] = {};
  Random rnd(9);
  for (int i = 0; i < 4000; ++i) {
    int k = static_cast<int>(rnd.Uniform(40));
    std::string key = "c" + std::to_string(k);
    if (rnd.OneIn(10)) {
      int64_t base = static_cast<int64_t>(rnd.Uniform(1000));
      expected[k] = base;
      ASSERT_TRUE(
          db_->Put(WriteOptions(), key, std::to_string(base)).ok());
    } else {
      expected[k] += 1;
      ASSERT_TRUE(db_->Merge(WriteOptions(), key, "1").ok());
    }
  }
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  for (int k = 0; k < 40; ++k) {
    EXPECT_EQ(std::to_string(expected[k]), Get("c" + std::to_string(k)))
        << "counter " << k;
  }
}

TEST_F(MergeTest, IteratorResolvesMerges) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", "1").ok());
  ASSERT_TRUE(db_->Merge(WriteOptions(), "b", "2").ok());
  ASSERT_TRUE(db_->Merge(WriteOptions(), "b", "3").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "c", "10").ok());
  ASSERT_TRUE(db_->Merge(WriteOptions(), "c", "1").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Merge(WriteOptions(), "c", "1").ok());

  auto iter = db_->NewIterator(ReadOptions());
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("a", iter->key().ToString());
  EXPECT_EQ("1", iter->value().ToString());
  iter->Next();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("b", iter->key().ToString());
  EXPECT_EQ("5", iter->value().ToString());
  iter->Next();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("c", iter->key().ToString());
  EXPECT_EQ("12", iter->value().ToString());
  iter->Next();
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(MergeTest, IteratorMergeThenNextKeyNotSkipped) {
  // Regression guard: resolving a merge chain leaves the internal iterator
  // past the key; Next() must not skip the following key's newest version.
  Open();
  ASSERT_TRUE(db_->Merge(WriteOptions(), "a", "1").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "b", "old").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "b", "new").ok());

  auto iter = db_->NewIterator(ReadOptions());
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("a", iter->key().ToString());
  iter->Next();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("b", iter->key().ToString());
  EXPECT_EQ("new", iter->value().ToString());
}

TEST_F(MergeTest, MergeSurvivesReopen) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "counter", "10").ok());
  ASSERT_TRUE(db_->Merge(WriteOptions(), "counter", "5").ok());
  db_.reset();
  Open();
  ASSERT_TRUE(db_->Merge(WriteOptions(), "counter", "2").ok());
  EXPECT_EQ("17", Get("counter"));
}

TEST_F(MergeTest, SnapshotSeesOldOperandChain) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "counter", "10").ok());
  ASSERT_TRUE(db_->Merge(WriteOptions(), "counter", "1").ok());
  SequenceNumber snap = db_->GetSnapshot();
  ASSERT_TRUE(db_->Merge(WriteOptions(), "counter", "100").ok());

  ReadOptions at_snap;
  at_snap.snapshot_seqno = snap;
  std::string value;
  ASSERT_TRUE(db_->Get(at_snap, "counter", &value).ok());
  EXPECT_EQ("11", value);
  EXPECT_EQ("111", Get("counter"));
  db_->ReleaseSnapshot(snap);
}

TEST_F(MergeTest, CorruptOperandSurfacesError) {
  Open();
  ASSERT_TRUE(db_->Merge(WriteOptions(), "counter", "not-a-number").ok());
  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions(), "counter", &value).IsCorruption());
}

TEST_F(MergeTest, StringAppendOperator) {
  options_.merge_operator = NewStringAppendOperator(',');
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "list", "a").ok());
  ASSERT_TRUE(db_->Merge(WriteOptions(), "list", "b").ok());
  ASSERT_TRUE(db_->Merge(WriteOptions(), "list", "c").ok());
  EXPECT_EQ("a,b,c", Get("list"));
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactRange().ok());
  EXPECT_EQ("a,b,c", Get("list"));
}

}  // namespace
}  // namespace lsmlab
