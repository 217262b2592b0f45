#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "db/statistics.h"
#include "util/arena.h"
#include "util/clock.h"
#include "util/coding.h"
#include "util/comparator.h"
#include "util/crc32c.h"
#include "util/hash.h"
#include "util/histogram.h"
#include "util/options.h"
#include "util/random.h"
#include "util/rate_limiter.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace lsmlab {
namespace {

// ---------------------------------------------------------------- Slice ----

TEST(SliceTest, Basics) {
  Slice empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(0u, empty.size());

  Slice s("hello");
  EXPECT_EQ(5u, s.size());
  EXPECT_EQ('h', s[0]);
  EXPECT_EQ("hello", s.ToString());

  std::string str = "world";
  Slice t(str);
  EXPECT_EQ("world", t.ToString());
}

TEST(SliceTest, Compare) {
  EXPECT_EQ(0, Slice("abc").compare(Slice("abc")));
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_GT(Slice("abc").compare(Slice("ab")), 0);
  EXPECT_TRUE(Slice("abc") == Slice("abc"));
  EXPECT_TRUE(Slice("abc") != Slice("abd"));
  EXPECT_TRUE(Slice("abc") < Slice("abd"));
}

TEST(SliceTest, PrefixOps) {
  Slice s("abcdef");
  EXPECT_TRUE(s.starts_with("abc"));
  EXPECT_FALSE(s.starts_with("abd"));
  s.remove_prefix(2);
  EXPECT_EQ("cdef", s.ToString());
  s.remove_suffix(1);
  EXPECT_EQ("cde", s.ToString());
}

// --------------------------------------------------------------- Status ----

TEST(StatusTest, OkIsDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ("OK", s.ToString());
}

TEST(StatusTest, ErrorCodes) {
  EXPECT_TRUE(Status::NotFound("k").IsNotFound());
  EXPECT_TRUE(Status::Corruption("c").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("i").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("io").IsIOError());
  EXPECT_TRUE(Status::Busy("b").IsBusy());
  EXPECT_TRUE(Status::NotSupported("n").IsNotSupported());
  EXPECT_TRUE(Status::Aborted("a").IsAborted());
  EXPECT_FALSE(Status::NotFound("k").ok());
}

TEST(StatusTest, MessageConcatenation) {
  Status s = Status::IOError("file.sst", "disk on fire");
  EXPECT_EQ("IO error: file.sst: disk on fire", s.ToString());
}

TEST(StatusTest, ResultCarriesValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(42, r.value());

  Result<int> e(Status::NotFound("nope"));
  EXPECT_FALSE(e.ok());
  EXPECT_TRUE(e.status().IsNotFound());
}

// --------------------------------------------------------------- Coding ----

TEST(CodingTest, Fixed32RoundTrip) {
  std::string s;
  for (uint32_t v : {0u, 1u, 255u, 256u, 0xdeadbeefu, 0xffffffffu}) {
    s.clear();
    PutFixed32(&s, v);
    ASSERT_EQ(4u, s.size());
    EXPECT_EQ(v, DecodeFixed32(s.data()));
  }
}

TEST(CodingTest, Fixed64RoundTrip) {
  std::string s;
  for (uint64_t v :
       {uint64_t{0}, uint64_t{1}, uint64_t{1} << 40, ~uint64_t{0}}) {
    s.clear();
    PutFixed64(&s, v);
    ASSERT_EQ(8u, s.size());
    EXPECT_EQ(v, DecodeFixed64(s.data()));
  }
}

TEST(CodingTest, Varint32RoundTrip) {
  std::string s;
  std::vector<uint32_t> values;
  for (uint32_t power = 0; power < 32; ++power) {
    values.push_back(uint32_t{1} << power);
    values.push_back((uint32_t{1} << power) - 1);
    values.push_back((uint32_t{1} << power) + 1);
  }
  for (uint32_t v : values) {
    PutVarint32(&s, v);
  }
  Slice input(s);
  for (uint32_t expected : values) {
    uint32_t actual;
    ASSERT_TRUE(GetVarint32(&input, &actual));
    EXPECT_EQ(expected, actual);
  }
  EXPECT_TRUE(input.empty());
}

TEST(CodingTest, Varint64RoundTrip) {
  std::string s;
  std::vector<uint64_t> values = {0, 100, ~uint64_t{0}};
  for (uint32_t power = 0; power < 64; ++power) {
    values.push_back(uint64_t{1} << power);
  }
  for (uint64_t v : values) {
    PutVarint64(&s, v);
  }
  Slice input(s);
  for (uint64_t expected : values) {
    uint64_t actual;
    ASSERT_TRUE(GetVarint64(&input, &actual));
    EXPECT_EQ(expected, actual);
  }
}

TEST(CodingTest, VarintLengthMatchesEncoding) {
  for (uint64_t v : {uint64_t{0}, uint64_t{127}, uint64_t{128},
                     uint64_t{1} << 20, ~uint64_t{0}}) {
    std::string s;
    PutVarint64(&s, v);
    EXPECT_EQ(static_cast<int>(s.size()), VarintLength(v));
  }
}

TEST(CodingTest, Varint32Truncated) {
  std::string s;
  PutVarint32(&s, 1 << 20);
  s.resize(1);  // Chop the continuation bytes.
  Slice input(s);
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&input, &v));
}

TEST(CodingTest, Varint32PtrDecodesEveryLength) {
  // The largest value of each encoded length, 1 to 5 bytes, and the
  // smallest value that needs that length.
  const uint32_t values[] = {0,          127,
                             128,        (1u << 14) - 1,
                             1u << 14,   (1u << 21) - 1,
                             1u << 21,   (1u << 28) - 1,
                             1u << 28,   0xffffffffu};
  for (uint32_t v : values) {
    std::string s;
    PutVarint32(&s, v);
    ASSERT_EQ(static_cast<size_t>(VarintLength(v)), s.size());
    s.append("tail");  // The decoder must stop at the varint's end.
    uint32_t actual = 0;
    const char* p = GetVarint32Ptr(s.data(), s.data() + s.size(), &actual);
    ASSERT_NE(nullptr, p) << v;
    EXPECT_EQ(v, actual);
    EXPECT_EQ(s.data() + VarintLength(v), p) << v;
  }
}

TEST(CodingTest, Varint32PtrStopsAtLimit) {
  uint32_t v = 7;
  const char one[] = {0x05};
  // p == limit: nothing to read, for the one-byte path too.
  EXPECT_EQ(nullptr, GetVarint32Ptr(one, one, &v));
  EXPECT_EQ(7u, v);
  // A multi-byte varint cut short by `limit` at every length.
  std::string s;
  PutVarint32(&s, 0xffffffffu);
  ASSERT_EQ(5u, s.size());
  for (size_t len = 1; len < s.size(); ++len) {
    EXPECT_EQ(nullptr, GetVarint32Ptr(s.data(), s.data() + len, &v)) << len;
  }
  // A sixth continuation byte is malformed even with bytes to spare.
  const std::string too_long(6, '\x80');
  EXPECT_EQ(nullptr, GetVarint32Ptr(too_long.data(),
                                    too_long.data() + too_long.size(), &v));
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string s;
  PutLengthPrefixedSlice(&s, Slice("alpha"));
  PutLengthPrefixedSlice(&s, Slice(""));
  PutLengthPrefixedSlice(&s, Slice("beta"));
  Slice input(s);
  Slice v;
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ("alpha", v.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ("", v.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ("beta", v.ToString());
  EXPECT_FALSE(GetLengthPrefixedSlice(&input, &v));
}

// --------------------------------------------------------------- CRC32C ----

TEST(Crc32cTest, StandardVectors) {
  // CRC-32C of 32 zero bytes (well-known test vector).
  char zeros[32];
  memset(zeros, 0, sizeof(zeros));
  EXPECT_EQ(0x8a9136aau, crc32c::Value(zeros, sizeof(zeros)));

  char ffs[32];
  memset(ffs, 0xff, sizeof(ffs));
  EXPECT_EQ(0x62a8ab43u, crc32c::Value(ffs, sizeof(ffs)));
}

TEST(Crc32cTest, ExtendEqualsWhole) {
  const std::string data = "hello world, this is a crc test";
  uint32_t whole = crc32c::Value(data.data(), data.size());
  uint32_t part = crc32c::Value(data.data(), 10);
  part = crc32c::Extend(part, data.data() + 10, data.size() - 10);
  EXPECT_EQ(whole, part);
}

TEST(Crc32cTest, MaskRoundTrip) {
  uint32_t crc = crc32c::Value("foo", 3);
  EXPECT_NE(crc, crc32c::Mask(crc));
  EXPECT_NE(crc, crc32c::Mask(crc32c::Mask(crc)));
  EXPECT_EQ(crc, crc32c::Unmask(crc32c::Mask(crc)));
}

TEST(Crc32cTest, DifferentInputsDiffer) {
  EXPECT_NE(crc32c::Value("a", 1), crc32c::Value("b", 1));
  EXPECT_NE(crc32c::Value("foo", 3), crc32c::Value("foO", 3));
}

TEST(Crc32cTest, Rfc3720CheckValue) {
  EXPECT_EQ(0xe3069283u, crc32c::Value("123456789", 9));
  EXPECT_EQ(0xe3069283u, crc32c::ExtendPortable(0, "123456789", 9));
}

// Extend() runs the CPU's crc32 instruction where CPUID reports SSE4.2 and
// must match the table loop bit for bit: every length up to 300 (the 8-byte
// steps plus every tail), one 4 KiB block plus its 5-byte trailer, every
// alignment within 16 bytes, and arbitrary running CRCs as `init`.
TEST(Crc32cTest, ExtendMatchesPortableTableLoop) {
  Random rnd(301);
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 300; ++len) {
    lengths.push_back(len);
  }
  lengths.push_back(4101);
  std::string buf(4101 + 32, '\0');
  for (char& c : buf) {
    c = static_cast<char>(rnd.Uniform(256));
  }
  const uintptr_t addr = reinterpret_cast<uintptr_t>(buf.data());
  const char* aligned16 = buf.data() + (16 - addr % 16) % 16;
  for (size_t len : lengths) {
    for (size_t align = 0; align < 16; ++align) {
      const char* p = aligned16 + align;
      const uint32_t init = rnd.Next();
      ASSERT_EQ(crc32c::ExtendPortable(init, p, len),
                crc32c::Extend(init, p, len))
          << "len " << len << " align " << align << " init " << init;
      ASSERT_EQ(crc32c::ExtendPortable(0, p, len), crc32c::Value(p, len))
          << "len " << len << " align " << align;
    }
  }
}

// ----------------------------------------------------------------- Hash ----

TEST(HashTest, Deterministic) {
  EXPECT_EQ(Hash32("abc", 3, 1), Hash32("abc", 3, 1));
  EXPECT_EQ(Hash64("abc", 3, 1), Hash64("abc", 3, 1));
}

TEST(HashTest, SeedChangesValue) {
  EXPECT_NE(Hash32("abc", 3, 1), Hash32("abc", 3, 2));
  EXPECT_NE(Hash64("abc", 3, 1), Hash64("abc", 3, 2));
}

TEST(HashTest, AllTailLengths) {
  // Exercise every switch arm in the tail handling.
  const char* data = "abcdefghijklmnop";
  for (size_t n = 0; n <= 16; ++n) {
    uint64_t h64 = Hash64(data, n, 7);
    uint32_t h32 = Hash32(data, n, 7);
    // Re-hash must agree; different lengths should (virtually always) differ.
    EXPECT_EQ(h64, Hash64(data, n, 7));
    EXPECT_EQ(h32, Hash32(data, n, 7));
    if (n > 0) {
      EXPECT_NE(h64, Hash64(data, n - 1, 7));
    }
  }
}

// --------------------------------------------------------------- Random ----

TEST(RandomTest, UniformInRange) {
  Random rnd(301);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rnd.Uniform(17), 17u);
  }
}

TEST(RandomTest, Deterministic) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RandomTest, DoubleInUnitInterval) {
  Random rnd(99);
  for (int i = 0; i < 10000; ++i) {
    double d = rnd.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, ZeroSeedIsUsable) {
  Random rnd(0);
  EXPECT_NE(rnd.Next64(), rnd.Next64());
}

// ---------------------------------------------------------------- Arena ----

TEST(ArenaTest, Empty) { Arena arena; }

TEST(ArenaTest, ManyAllocations) {
  std::vector<std::pair<size_t, char*>> allocated;
  Arena arena;
  const int kN = 10000;
  size_t bytes = 0;
  Random rnd(301);
  for (int i = 0; i < kN; ++i) {
    size_t s = (i % 100 == 0) ? rnd.Uniform(6000) + 1 : rnd.Uniform(20) + 1;
    char* r = (rnd.OneIn(10)) ? arena.AllocateAligned(s) : arena.Allocate(s);
    for (size_t b = 0; b < s; ++b) {
      r[b] = static_cast<char>(i % 256);  // Fill with a known pattern.
    }
    bytes += s;
    allocated.emplace_back(s, r);
    EXPECT_GE(arena.MemoryUsage(), bytes);
  }
  for (size_t i = 0; i < allocated.size(); ++i) {
    size_t num_bytes = allocated[i].first;
    const char* p = allocated[i].second;
    for (size_t b = 0; b < num_bytes; ++b) {
      EXPECT_EQ(static_cast<int>(p[b]) & 0xff, static_cast<int>(i % 256));
    }
  }
}

TEST(ArenaTest, AlignedAllocationIsAligned) {
  Arena arena;
  for (int i = 0; i < 100; ++i) {
    arena.Allocate(1);  // Misalign the bump pointer.
    char* p = arena.AllocateAligned(8);
    EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(p) %
                      alignof(std::max_align_t));
  }
}

// ------------------------------------------------------------ Histogram ----

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(0u, h.num());
  EXPECT_EQ(0.0, h.Average());
  EXPECT_EQ(0.0, h.Percentile(99));
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(42);
  EXPECT_EQ(1u, h.num());
  EXPECT_DOUBLE_EQ(42.0, h.Average());
  EXPECT_EQ(42.0, h.max());
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  Random rnd(17);
  for (int i = 0; i < 100000; ++i) {
    h.Add(static_cast<double>(rnd.Uniform(10000)));
  }
  double p50 = h.Percentile(50), p90 = h.Percentile(90),
         p99 = h.Percentile(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Uniform[0,10000): p50 should be near 5000.
  EXPECT_NEAR(p50, 5000, 700);
  EXPECT_NEAR(p99, 9900, 700);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Add(1);
  a.Add(2);
  b.Add(3);
  b.Add(4);
  a.Merge(b);
  EXPECT_EQ(4u, a.num());
  EXPECT_DOUBLE_EQ(2.5, a.Average());
  EXPECT_EQ(4.0, a.max());
  EXPECT_EQ(1.0, a.min());
}

// ----------------------------------------------------------- Statistics ----

TEST(StatisticsTest, ResetZeroesEveryTickerButTheGauge) {
  Statistics stats;
  uint64_t next = 1;
  Statistics::ForEachTicker(
      stats, [&](const char*, Statistics::Ticker& t) { t = next++; });
  Statistics::ForEachLevelTicker(
      stats, [&](const char*, Statistics::LevelTicker& slots) {
        for (auto& t : slots) {
          t = next++;
        }
      });
  stats.RecordWriteGroupSize(3);
  stats.RecordCompactionDuration(100);
  const uint64_t running = stats.compactions_running.load();

  stats.Reset();
  Statistics::ForEachTicker(
      stats, [&](const char* name, Statistics::Ticker& t) {
        const std::string n = name;
        const bool gauge =
            n == "compactions_running" || n == "max_compactions_running";
        EXPECT_EQ(gauge ? running : 0u, t.load()) << name;
      });
  Statistics::ForEachLevelTicker(
      stats, [&](const char* name, Statistics::LevelTicker& slots) {
        for (auto& t : slots) {
          EXPECT_EQ(0u, t.load()) << name;
        }
      });
  EXPECT_EQ(0u, stats.WriteGroupSizes().num());
  EXPECT_EQ(0u, stats.CompactionDurations().num());
}

TEST(StatisticsTest, ResetRestartsHighWaterMarkAtLiveGauge) {
  Statistics stats;
  stats.OnCompactionAdmitted();
  stats.OnCompactionAdmitted();
  stats.Reset();
  // Two jobs still run: the observed parallelism since the reset is two.
  EXPECT_EQ(2u, stats.compactions_running.load());
  EXPECT_EQ(2u, stats.max_compactions_running.load());
  stats.OnCompactionFinished();
  stats.OnCompactionAdmitted();
  EXPECT_EQ(2u, stats.max_compactions_running.load());
}

// ----------------------------------------------------------- Comparator ----

TEST(ComparatorTest, BytewiseOrder) {
  const Comparator* cmp = BytewiseComparator();
  EXPECT_LT(cmp->Compare("a", "b"), 0);
  EXPECT_GT(cmp->Compare("b", "a"), 0);
  EXPECT_EQ(cmp->Compare("a", "a"), 0);
  EXPECT_STREQ("lsmlab.BytewiseComparator", cmp->Name());
}

TEST(ComparatorTest, ShortestSeparator) {
  const Comparator* cmp = BytewiseComparator();
  std::string start = "abcdefghij";
  cmp->FindShortestSeparator(&start, "abzzzz");
  EXPECT_GT(start.compare("abcdefghij"), 0);
  EXPECT_LT(start.compare("abzzzz"), 0);
  EXPECT_LE(start.size(), 10u);

  // Prefix case: must not change.
  start = "abc";
  cmp->FindShortestSeparator(&start, "abcde");
  EXPECT_EQ("abc", start);
}

TEST(ComparatorTest, ShortSuccessor) {
  const Comparator* cmp = BytewiseComparator();
  std::string key = "abc";
  cmp->FindShortSuccessor(&key);
  EXPECT_GT(key.compare("abc"), 0);

  key = "\xff\xff";
  cmp->FindShortSuccessor(&key);  // All 0xff: unchanged.
  EXPECT_EQ("\xff\xff", key);
}

// -------------------------------------------------------------- Options ----

TEST(OptionsTest, DefaultsValidate) {
  Options options;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(OptionsTest, RejectsBadSizeRatio) {
  Options options;
  options.size_ratio = 1;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
}

TEST(OptionsTest, RejectsMisorderedStallTriggers) {
  Options options;
  options.level0_slowdown_writes_trigger = 2;
  options.level0_file_num_compaction_trigger = 4;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
}

TEST(OptionsTest, DesignPointLabelMentionsLayout) {
  Options options;
  options.data_layout = DataLayout::kTiering;
  options.size_ratio = 4;
  std::string label = options.DesignPointLabel();
  EXPECT_NE(label.find("tiering"), std::string::npos);
  EXPECT_NE(label.find("T=4"), std::string::npos);
}

TEST(OptionsTest, EnumNames) {
  EXPECT_STREQ("leveling", DataLayoutName(DataLayout::kLeveling));
  EXPECT_STREQ("lazy-leveling", DataLayoutName(DataLayout::kLazyLeveling));
  EXPECT_STREQ("least-overlap",
               FilePickPolicyName(FilePickPolicy::kLeastOverlap));
  EXPECT_STREQ("skiplist", MemTableRepTypeName(MemTableRepType::kSkipList));
}

// ------------------------------------------------------------ MockClock ----

TEST(ClockTest, MockAdvances) {
  MockClock clock(1000);
  EXPECT_EQ(1000u, clock.NowMicros());
  clock.Advance(500);
  EXPECT_EQ(1500u, clock.NowMicros());
  clock.SleepForMicros(100);
  EXPECT_EQ(1600u, clock.NowMicros());
}

TEST(ClockTest, SystemClockMonotonic) {
  Clock* clock = SystemClock();
  uint64_t a = clock->NowMicros();
  uint64_t b = clock->NowMicros();
  EXPECT_LE(a, b);
}

// ----------------------------------------------------------- RateLimiter ----

TEST(RateLimiterTest, UnlimitedNeverBlocks) {
  MockClock clock;
  RateLimiter limiter(0, &clock);
  limiter.Request(1 << 30);
  EXPECT_EQ(static_cast<uint64_t>(1 << 30), limiter.total_bytes_through());
  EXPECT_EQ(0u, clock.NowMicros());  // No sleeping happened.
}

TEST(RateLimiterTest, ThrottlesToConfiguredRate) {
  MockClock clock;
  RateLimiter limiter(1000000, &clock);  // 1 MB/s.
  // Request 2 MB; virtual time must advance by about 2 seconds.
  for (int i = 0; i < 20; ++i) {
    limiter.Request(100000);
  }
  EXPECT_GE(clock.NowMicros(), 1800000u);
  EXPECT_EQ(2000000u, limiter.total_bytes_through());
}

TEST(RateLimiterTest, RateChangeTakesEffect) {
  MockClock clock;
  RateLimiter limiter(1000, &clock);
  limiter.SetBytesPerSecond(0);
  limiter.Request(1 << 20);  // Must not block under unlimited.
  EXPECT_EQ(static_cast<uint64_t>(1 << 20), limiter.total_bytes_through());
}

// ------------------------------------------------------------ ThreadPool ----

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&counter] { counter.fetch_add(1); });
  }
  pool.WaitForIdle();
  EXPECT_EQ(100, counter.load());
}

TEST(ThreadPoolTest, HighPriorityRunsFirst) {
  ThreadPool pool(1);
  std::mutex mu;
  std::vector<int> order;
  // Block the single worker so both tasks end up queued.
  std::atomic<bool> release{false};
  pool.Schedule([&release] {
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  pool.Schedule(
      [&] {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(2);
      },
      ThreadPool::Priority::kLow);
  pool.Schedule(
      [&] {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(1);
      },
      ThreadPool::Priority::kHigh);
  release.store(true);
  pool.WaitForIdle();
  ASSERT_EQ(2u, order.size());
  EXPECT_EQ(1, order[0]);  // High priority first.
  EXPECT_EQ(2, order[1]);
}

TEST(ThreadPoolTest, WaitForIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.WaitForIdle();  // Must not hang.
}

}  // namespace
}  // namespace lsmlab
