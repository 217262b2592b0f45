// Direct unit tests of the WiscKey value-log manager (kvsep/vlog);
// db_test covers the integrated path.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "db/filename.h"
#include "io/counting_env.h"
#include "io/fault_injection_env.h"
#include "io/mem_env.h"
#include "kvsep/vlog.h"

namespace lsmlab {
namespace {

class VlogTest : public ::testing::Test {
 protected:
  VlogTest() : vlog_("/db", &env_) {
    EXPECT_TRUE(env_.CreateDir("/db").ok());
    EXPECT_TRUE(vlog_.OpenActive(1).ok());
  }

  MemEnv env_;
  VlogManager vlog_;
};

TEST_F(VlogTest, AppendReadRoundTrip) {
  VlogPointer ptr;
  ASSERT_TRUE(vlog_.Append("key1", "value-one", &ptr).ok());
  EXPECT_EQ(1u, ptr.file_number);
  EXPECT_EQ(9u, ptr.size);

  std::string value;
  ASSERT_TRUE(vlog_.Read(ptr, "key1", &value).ok());
  EXPECT_EQ("value-one", value);
}

TEST_F(VlogTest, ReadVerifiesKey) {
  VlogPointer ptr;
  ASSERT_TRUE(vlog_.Append("real-key", "v", &ptr).ok());
  std::string value;
  EXPECT_TRUE(vlog_.Read(ptr, "wrong-key", &value).IsCorruption());
}

TEST_F(VlogTest, PointerEncodingRoundTrip) {
  VlogPointer ptr;
  ptr.file_number = 42;
  ptr.offset = 123456;
  ptr.size = 789;
  std::string encoded;
  ptr.EncodeTo(&encoded);
  VlogPointer decoded;
  ASSERT_TRUE(decoded.DecodeFrom(encoded));
  EXPECT_EQ(42u, decoded.file_number);
  EXPECT_EQ(123456u, decoded.offset);
  EXPECT_EQ(789u, decoded.size);
  VlogPointer bad;
  EXPECT_FALSE(bad.DecodeFrom(Slice("\xff")));
}

TEST_F(VlogTest, MultipleAppendsHaveDistinctOffsets) {
  std::vector<VlogPointer> ptrs(3);
  ASSERT_TRUE(vlog_.Append("a", "aaaa", &ptrs[0]).ok());
  ASSERT_TRUE(vlog_.Append("b", "bb", &ptrs[1]).ok());
  ASSERT_TRUE(vlog_.Append("c", std::string(1000, 'c'), &ptrs[2]).ok());
  EXPECT_LT(ptrs[0].offset, ptrs[1].offset);
  EXPECT_LT(ptrs[1].offset, ptrs[2].offset);
  std::string value;
  ASSERT_TRUE(vlog_.Read(ptrs[1], "b", &value).ok());
  EXPECT_EQ("bb", value);
  ASSERT_TRUE(vlog_.Read(ptrs[2], "c", &value).ok());
  EXPECT_EQ(std::string(1000, 'c'), value);
}

TEST_F(VlogTest, ForEachRecordWalksAll) {
  VlogPointer ptr;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(vlog_.Append("key" + std::to_string(i),
                             "value" + std::to_string(i), &ptr)
                    .ok());
  }
  int count = 0;
  ASSERT_TRUE(vlog_
                  .ForEachRecord(1,
                                 [&](const Slice& key, const Slice& value,
                                     const VlogPointer& p) {
                                   EXPECT_EQ("key" + std::to_string(count),
                                             key.ToString());
                                   EXPECT_EQ("value" + std::to_string(count),
                                             value.ToString());
                                   EXPECT_EQ(1u, p.file_number);
                                   ++count;
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(10, count);
}

TEST_F(VlogTest, ForEachRecordEarlyStop) {
  VlogPointer ptr;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(vlog_.Append("k", "v", &ptr).ok());
  }
  int count = 0;
  ASSERT_TRUE(vlog_
                  .ForEachRecord(1,
                                 [&](const Slice&, const Slice&,
                                     const VlogPointer&) {
                                   return ++count < 3;
                                 })
                  .ok());
  EXPECT_EQ(3, count);
}

// The walk reads a torn tail as the end of the log, as WAL replay does,
// but a header that cannot parse with room to spare is corruption.
TEST_F(VlogTest, ForEachRecordEndsAtATornTailOnly) {
  VlogPointer ptr;
  ASSERT_TRUE(vlog_.Append("key1", "value-one", &ptr).ok());
  ASSERT_TRUE(vlog_.Append("key2", "value-two", &ptr).ok());
  ASSERT_TRUE(vlog_.Sync().ok());
  std::string whole;
  ASSERT_TRUE(ReadFileToString(&env_, VlogFileName("/db", 1), &whole).ok());
  auto walk = [this](const std::string& contents, int* count) {
    EXPECT_TRUE(WriteStringToFile(&env_, contents, VlogFileName("/db", 2)).ok());
    *count = 0;
    return vlog_.ForEachRecord(
        2, [count](const Slice&, const Slice&, const VlogPointer&) {
          ++*count;
          return true;
        });
  };

  // Cut anywhere inside the second record: the first one is all there is.
  const size_t second = static_cast<size_t>(ptr.offset);
  for (size_t cut = second + 1; cut < whole.size(); ++cut) {
    int count = 0;
    Status s = walk(whole.substr(0, cut), &count);
    EXPECT_TRUE(s.ok()) << "cut at " << cut << ": " << s.ToString();
    EXPECT_EQ(1, count) << "cut at " << cut;
  }

  // A second record whose header runs on past five bytes.
  int count = 0;
  Status s = walk(whole.substr(0, second) + std::string(12, '\xff'), &count);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(1, count);
}

TEST_F(VlogTest, RollToNewActiveLog) {
  VlogPointer old_ptr;
  ASSERT_TRUE(vlog_.Append("old", "old-value", &old_ptr).ok());
  ASSERT_TRUE(vlog_.OpenActive(2).ok());
  VlogPointer new_ptr;
  ASSERT_TRUE(vlog_.Append("new", "new-value", &new_ptr).ok());
  EXPECT_EQ(2u, new_ptr.file_number);
  // Old log remains readable after the roll.
  std::string value;
  ASSERT_TRUE(vlog_.Read(old_ptr, "old", &value).ok());
  EXPECT_EQ("old-value", value);
}

// A synced write group syncs the active vlog before its WAL record; a log
// with nothing appended since the last sync must not cost a second fsync.
TEST(VlogSyncTest, SyncSkipsALogWithNothingNewSinceTheLastSync) {
  MemEnv base;
  CountingEnv env(&base);
  ASSERT_TRUE(env.CreateDir("/db").ok());
  VlogManager vlog("/db", &env);
  ASSERT_TRUE(vlog.OpenActive(1).ok());
  ASSERT_TRUE(vlog.Sync().ok());
  EXPECT_EQ(0u, env.GetStats().syncs);

  VlogPointer ptr;
  ASSERT_TRUE(vlog.Append("k1", "v1", &ptr).ok());
  ASSERT_TRUE(vlog.Sync().ok());
  ASSERT_TRUE(vlog.Sync().ok());
  EXPECT_EQ(1u, env.GetStats().syncs);

  ASSERT_TRUE(vlog.Append("k2", "v2", &ptr).ok());
  ASSERT_TRUE(vlog.Sync().ok());
  EXPECT_EQ(2u, env.GetStats().syncs);

  // A roll starts a new, empty active log.
  ASSERT_TRUE(vlog.OpenActive(2).ok());
  ASSERT_TRUE(vlog.Sync().ok());
  EXPECT_EQ(2u, env.GetStats().syncs);
  ASSERT_TRUE(vlog.Append("k3", "v3", &ptr).ok());
  ASSERT_TRUE(vlog.Sync().ok());
  EXPECT_EQ(3u, env.GetStats().syncs);
}

// Tables and WALs keep pointing into a log after it stops being the active
// one, and Sync() no longer covers it then: the roll makes it durable.
TEST(VlogSyncTest, RollSyncsTheOutgoingLog) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  ASSERT_TRUE(env.CreateDir("/db").ok());
  VlogPointer ptr;
  {
    VlogManager vlog("/db", &env);
    ASSERT_TRUE(vlog.OpenActive(1).ok());
    ASSERT_TRUE(vlog.Append("k1", "v1", &ptr).ok());
    ASSERT_TRUE(vlog.OpenActive(2).ok());
  }
  ASSERT_TRUE(env.DropUnsyncedData().ok());

  VlogManager reader("/db", &env);
  std::string value;
  Status s = reader.Read(ptr, "k1", &value);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ("v1", value);
}

}  // namespace
}  // namespace lsmlab
