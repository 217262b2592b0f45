// Property-style parameterized sweeps: invariants that must hold across
// whole ranges of knob settings, not just the defaults.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/db.h"
#include "filter/filter_policy.h"
#include "io/mem_env.h"
#include "table/block.h"
#include "table/block_builder.h"
#include "tuning/cost_model.h"
#include "tuning/monkey.h"
#include "util/random.h"

namespace lsmlab {
namespace {

// ---------------------------------------------------------------------------
// Blocks: round-trip across restart intervals.
// ---------------------------------------------------------------------------

class BlockRestartSweep : public ::testing::TestWithParam<int> {};

TEST_P(BlockRestartSweep, RoundTripAndSeek) {
  const int restart_interval = GetParam();
  BlockBuilder builder(BytewiseComparator(), restart_interval);
  std::map<std::string, std::string> model;
  Random rnd(restart_interval * 7 + 1);
  for (int i = 0; i < 400; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "key/%08llu",
             static_cast<unsigned long long>(rnd.Uniform(10000000)));
    model[key] = std::to_string(i);
  }
  for (const auto& [key, value] : model) {
    builder.Add(key, value);
  }
  Block block(builder.Finish().ToString());

  // Full iteration matches the model.
  auto iter = block.NewIterator(BytewiseComparator());
  iter->SeekToFirst();
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(key, iter->key().ToString());
    EXPECT_EQ(value, iter->value().ToString());
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());

  // Random seeks land on the lower bound.
  for (int probe = 0; probe < 200; ++probe) {
    char target[32];
    snprintf(target, sizeof(target), "key/%08llu",
             static_cast<unsigned long long>(rnd.Uniform(10000000)));
    iter->Seek(target);
    auto expect = model.lower_bound(target);
    if (expect == model.end()) {
      EXPECT_FALSE(iter->Valid());
    } else {
      ASSERT_TRUE(iter->Valid());
      EXPECT_EQ(expect->first, iter->key().ToString());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RestartIntervals, BlockRestartSweep,
                         ::testing::Values(1, 2, 4, 16, 64, 1000));

// ---------------------------------------------------------------------------
// Bloom filters: no false negatives at any bits-per-key.
// ---------------------------------------------------------------------------

class BloomBitsSweep : public ::testing::TestWithParam<double> {};

TEST_P(BloomBitsSweep, NeverFalseNegative) {
  auto policy = NewBloomFilterPolicy(GetParam());
  std::vector<std::string> keys;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back("k" + std::to_string(i * 37));
  }
  std::vector<Slice> slices(keys.begin(), keys.end());
  std::string filter;
  policy->CreateFilter(slices.data(), static_cast<int>(slices.size()),
                       &filter);
  for (const auto& key : keys) {
    EXPECT_TRUE(policy->KeyMayMatch(key, filter)) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, BloomBitsSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 5.0, 10.0, 20.0));

// ---------------------------------------------------------------------------
// Monkey: invariants across (T, levels, budget).
// ---------------------------------------------------------------------------

struct MonkeyParam {
  double bits;
  int levels;
  int t;
};

class MonkeySweep : public ::testing::TestWithParam<MonkeyParam> {};

TEST_P(MonkeySweep, MonotoneAndBudgeted) {
  auto [bits, levels, t] = GetParam();
  auto allocation = MonkeyBitsPerLevel(bits, levels, t);
  ASSERT_EQ(static_cast<size_t>(levels), allocation.size());

  // Monotone non-increasing with depth.
  for (size_t i = 1; i < allocation.size(); ++i) {
    EXPECT_GE(allocation[i - 1] + 1e-9, allocation[i]);
  }
  // Weighted budget respected.
  double total_w = 0, total_bits = 0, w = 1;
  for (int i = 0; i < levels; ++i) {
    total_bits += w * allocation[static_cast<size_t>(i)];
    total_w += w;
    w *= t;
  }
  EXPECT_NEAR(total_bits / total_w, bits, bits * 0.02 + 0.02);
  // Never worse than uniform in expected false-positive I/Os.
  std::vector<double> uniform(static_cast<size_t>(levels), bits);
  EXPECT_LE(ExpectedFalsePositiveIos(allocation),
            ExpectedFalsePositiveIos(uniform) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MonkeySweep,
    ::testing::Values(MonkeyParam{2, 3, 4}, MonkeyParam{5, 5, 10},
                      MonkeyParam{10, 7, 10}, MonkeyParam{16, 4, 2},
                      MonkeyParam{1, 6, 8}, MonkeyParam{8, 2, 16}));

// ---------------------------------------------------------------------------
// Cost model: sanity across the whole design grid.
// ---------------------------------------------------------------------------

TEST(CostModelGrid, AllCostsFiniteAndPositive) {
  DataSpec data;
  data.num_entries = 20'000'000;
  for (DataLayout layout :
       {DataLayout::kLeveling, DataLayout::kTiering,
        DataLayout::kLazyLeveling, DataLayout::kOneLeveling}) {
    for (int t = 2; t <= 16; t += 2) {
      for (double bits : {0.0, 5.0, 10.0}) {
        for (bool monkey : {false, true}) {
          LsmDesign design;
          design.layout = layout;
          design.size_ratio = t;
          design.filter_bits_per_key = bits;
          design.monkey_allocation = monkey;
          CostModel model(design, data);
          EXPECT_GT(model.WriteCost(), 0);
          EXPECT_GE(model.PointLookupCost(), 1.0);
          EXPECT_GE(model.ZeroResultLookupCost(), 0);
          EXPECT_GT(model.ShortScanCost(), 0);
          EXPECT_GT(model.SpaceAmplification(), 0);
          EXPECT_GE(model.NumLevels(), 1);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: DB correctness across block sizes and buffer sizes.
// ---------------------------------------------------------------------------

struct DbKnobParam {
  size_t block_size;
  size_t buffer_size;
  int restart_interval;
};

class DbKnobSweep : public ::testing::TestWithParam<DbKnobParam> {};

TEST_P(DbKnobSweep, ModelEquivalence) {
  auto [block_size, buffer_size, restart_interval] = GetParam();
  MemEnv env;
  Options options;
  options.env = &env;
  options.block_size = block_size;
  options.write_buffer_size = buffer_size;
  options.block_restart_interval = restart_interval;
  options.max_bytes_for_level_base = 32 << 10;
  options.filter_policy = NewBloomFilterPolicy(10);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/knobs", &db).ok());

  std::map<std::string, std::string> model;
  Random rnd(block_size + buffer_size);
  for (int i = 0; i < 2500; ++i) {
    std::string key = "key" + std::to_string(rnd.Uniform(400));
    if (rnd.OneIn(12)) {
      model.erase(key);
      ASSERT_TRUE(db->Delete(WriteOptions(), key).ok());
    } else {
      std::string value(rnd.Uniform(200) + 1, 'v');
      model[key] = value;
      ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
    }
  }
  ASSERT_TRUE(db->WaitForBackgroundWork().ok());
  ASSERT_TRUE(db->ValidateTreeInvariants().ok());

  std::map<std::string, std::string> dumped;
  auto iter = db->NewIterator(ReadOptions());
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    dumped[iter->key().ToString()] = iter->value().ToString();
  }
  EXPECT_EQ(model, dumped);
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, DbKnobSweep,
    ::testing::Values(DbKnobParam{512, 2 << 10, 1},
                      DbKnobParam{1024, 8 << 10, 4},
                      DbKnobParam{4096, 8 << 10, 16},
                      DbKnobParam{16384, 32 << 10, 16},
                      DbKnobParam{4096, 64 << 10, 64}));

// ---------------------------------------------------------------------------
// Parallel background engine: level invariants and read-your-writes must
// hold under every layout while flushes and range-disjoint compactions
// (with subcompaction splitting) run concurrently.
// ---------------------------------------------------------------------------

class ParallelCompactionSweep : public ::testing::TestWithParam<DataLayout> {};

TEST_P(ParallelCompactionSweep, InvariantsHoldUnderConcurrentChurn) {
  MemEnv env;
  Options options;
  options.env = &env;
  options.data_layout = GetParam();
  options.write_buffer_size = 4 << 10;
  options.max_bytes_for_level_base = 16 << 10;
  options.target_file_size = 4 << 10;
  options.size_ratio = 3;
  options.background_threads = 4;
  options.max_subcompactions = 3;
  if (GetParam() == DataLayout::kLeveling) {
    options.level0_file_num_compaction_trigger = 1;
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/par", &db).ok());

  // Writers churn disjoint key stripes so the final model is deterministic;
  // the main thread validates invariants while the engine compacts.
  constexpr int kWriters = 3;
  constexpr int kOpsPerWriter = 4000;
  std::vector<std::thread> writers;
  std::atomic<bool> failed{false};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Random rnd(1000 + w);
      for (int i = 0; i < kOpsPerWriter && !failed.load(); ++i) {
        std::string key =
            "w" + std::to_string(w) + "/k" + std::to_string(rnd.Uniform(500));
        Status s = rnd.OneIn(9)
                       ? db->Delete(WriteOptions(), key)
                       : db->Put(WriteOptions(), key, std::string(40, 'v'));
        if (!s.ok()) {
          failed.store(true);
        }
      }
    });
  }
  for (int check = 0; check < 10 && !failed.load(); ++check) {
    Status s = db->ValidateTreeInvariants();
    ASSERT_TRUE(s.ok()) << s.ToString() << "\n" << db->DebugLevelSummary();
  }
  for (auto& t : writers) {
    t.join();
  }
  ASSERT_FALSE(failed.load());

  ASSERT_TRUE(db->WaitForBackgroundWork().ok());
  Status s = db->ValidateTreeInvariants();
  ASSERT_TRUE(s.ok()) << s.ToString() << "\n" << db->DebugLevelSummary();

  // Replay each writer's stream against a model; the DB must match exactly.
  std::map<std::string, std::string> model;
  for (int w = 0; w < kWriters; ++w) {
    Random rnd(1000 + w);
    for (int i = 0; i < kOpsPerWriter; ++i) {
      std::string key =
          "w" + std::to_string(w) + "/k" + std::to_string(rnd.Uniform(500));
      if (rnd.OneIn(9)) {
        model.erase(key);
      } else {
        model[key] = std::string(40, 'v');
      }
    }
  }
  std::map<std::string, std::string> dumped;
  auto iter = db->NewIterator(ReadOptions());
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    dumped[iter->key().ToString()] = iter->value().ToString();
  }
  EXPECT_EQ(model, dumped) << db->DebugLevelSummary();

  // The summary must reflect the engine actually having run.
  EXPECT_GT(db->statistics()->compactions.load(), 0u);
  std::string summary = db->DebugLevelSummary();
  EXPECT_NE(summary.find("\ncompactions="), std::string::npos) << summary;
  EXPECT_EQ(summary.find("\ncompactions=0\n"), std::string::npos) << summary;
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, ParallelCompactionSweep,
    ::testing::Values(DataLayout::kLeveling, DataLayout::kTiering,
                      DataLayout::kLazyLeveling, DataLayout::kOneLeveling),
    [](const ::testing::TestParamInfo<DataLayout>& info) {
      switch (info.param) {
        case DataLayout::kLeveling:
          return "Leveling";
        case DataLayout::kTiering:
          return "Tiering";
        case DataLayout::kLazyLeveling:
          return "LazyLeveling";
        case DataLayout::kOneLeveling:
          return "OneLeveling";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace lsmlab
