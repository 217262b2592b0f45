#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "compaction/compaction_picker.h"
#include "db/db.h"
#include "db/merge_operator.h"
#include "io/mem_env.h"
#include "util/random.h"
#include "version/version_set.h"

namespace lsmlab {
namespace {

// ---------------------------------------------------------------------------
// Picker unit tests over hand-built versions.
// ---------------------------------------------------------------------------

class PickerTest : public ::testing::Test {
 protected:
  PickerTest() : icmp_(BytewiseComparator()) {
    options_.num_levels = 5;
    options_.size_ratio = 3;
    options_.level0_file_num_compaction_trigger = 3;
    options_.max_bytes_for_level_base = 1000;
  }

  FileMetaData MakeFile(uint64_t number, const std::string& smallest,
                        const std::string& largest, uint64_t size = 500,
                        uint64_t tombstones = 0,
                        uint64_t tombstone_age_start = 0) {
    FileMetaData f;
    f.file_number = number;
    f.file_size = size;
    f.smallest = InternalKey(smallest, 100, kTypeValue);
    f.largest = InternalKey(largest, 1, kTypeValue);
    f.num_entries = 10;
    f.num_tombstones = tombstones;
    f.creation_time_micros = number;
    f.oldest_tombstone_time_micros = tombstone_age_start;
    return f;
  }

  /// Builds a Version from (level, file) pairs via the edit/builder path.
  std::shared_ptr<const Version> MakeVersion(
      const std::vector<std::pair<int, FileMetaData>>& files) {
    versions_ =
        std::make_unique<VersionSet>("/picker", &options_, &icmp_);
    // Apply through a private builder path: reuse VersionSet recovery
    // machinery by going through LogAndApply on a fresh DB would need a
    // manifest; instead construct directly via a VersionEdit on CreateNew.
    env_ = std::make_unique<MemEnv>();
    options_.env = env_.get();
    versions_ =
        std::make_unique<VersionSet>("/picker", &options_, &icmp_);
    EXPECT_TRUE(env_->CreateDir("/picker").ok());
    EXPECT_TRUE(versions_->CreateNew().ok());
    VersionEdit edit;
    for (const auto& [level, f] : files) {
      edit.AddFile(level, f);
    }
    EXPECT_TRUE(versions_->LogAndApply(&edit).ok());
    return versions_->current();
  }

  Options options_;
  InternalKeyComparator icmp_;
  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<VersionSet> versions_;
};

TEST_F(PickerTest, NoWorkOnEmptyTree) {
  auto version = MakeVersion({});
  CompactionPicker picker(&options_);
  EXPECT_FALSE(picker.Pick(*version, 0).has_value());
}

TEST_F(PickerTest, NoWorkBelowTriggers) {
  auto version = MakeVersion({
      {0, MakeFile(10, "a", "m")},
      {0, MakeFile(11, "b", "z")},
  });
  CompactionPicker picker(&options_);
  // Two L0 files < trigger of 3.
  EXPECT_FALSE(picker.Pick(*version, 0).has_value());
}

TEST_F(PickerTest, L0TriggerFiresWithAllRuns) {
  options_.data_layout = DataLayout::kOneLeveling;
  auto version = MakeVersion({
      {0, MakeFile(10, "a", "m")},
      {0, MakeFile(11, "b", "z")},
      {0, MakeFile(12, "c", "q")},
      {1, MakeFile(5, "a", "j", 400)},
      {1, MakeFile(6, "k", "z", 400)},
  });
  CompactionPicker picker(&options_);
  auto job = picker.Pick(*version, 0);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(CompactionTrigger::kRunCount, job->trigger);
  EXPECT_EQ(0, job->input_level);
  EXPECT_EQ(1, job->output_level);
  EXPECT_EQ(3u, job->inputs.size());   // All L0 runs.
  EXPECT_EQ(2u, job->overlap.size());  // Both overlapping L1 files.
  // L2+ are empty, so the merge may drop tombstones.
  EXPECT_TRUE(job->bottommost);
}

TEST_F(PickerTest, LeveledSizeTriggerPicksOneFileUnderPartial) {
  options_.data_layout = DataLayout::kOneLeveling;
  options_.compaction_granularity = CompactionGranularity::kPartial;
  options_.file_pick_policy = FilePickPolicy::kLeastOverlap;
  // L1 over capacity (1500 > 1000); file 21 has no L2 overlap, file 22 has.
  auto version = MakeVersion({
      {1, MakeFile(21, "a", "c", 800)},
      {1, MakeFile(22, "d", "j", 700)},
      {2, MakeFile(15, "d", "k", 500)},
  });
  CompactionPicker picker(&options_);
  auto job = picker.Pick(*version, 0);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(CompactionTrigger::kLevelSize, job->trigger);
  EXPECT_EQ(1, job->input_level);
  ASSERT_EQ(1u, job->inputs.size());
  EXPECT_EQ(21u, job->inputs[0].file_number)
      << "least-overlap must pick the file without L2 overlap";
  EXPECT_TRUE(job->overlap.empty());
}

TEST_F(PickerTest, MostTombstonesPolicyPicksDensestFile) {
  options_.data_layout = DataLayout::kOneLeveling;
  options_.compaction_granularity = CompactionGranularity::kPartial;
  options_.file_pick_policy = FilePickPolicy::kMostTombstones;
  auto version = MakeVersion({
      {1, MakeFile(21, "a", "c", 800, /*tombstones=*/0)},
      {1, MakeFile(22, "d", "j", 700, /*tombstones=*/8, 1)},
  });
  CompactionPicker picker(&options_);
  auto job = picker.Pick(*version, 0);
  ASSERT_TRUE(job.has_value());
  ASSERT_EQ(1u, job->inputs.size());
  EXPECT_EQ(22u, job->inputs[0].file_number);
}

TEST_F(PickerTest, WholeLevelTakesEverything) {
  options_.data_layout = DataLayout::kOneLeveling;
  options_.compaction_granularity = CompactionGranularity::kWholeLevel;
  auto version = MakeVersion({
      {1, MakeFile(21, "a", "c", 800)},
      {1, MakeFile(22, "d", "j", 700)},
  });
  CompactionPicker picker(&options_);
  auto job = picker.Pick(*version, 0);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(2u, job->inputs.size());
}

TEST_F(PickerTest, FadeTtlOverridesSizeTriggers) {
  options_.data_layout = DataLayout::kOneLeveling;
  options_.tombstone_ttl_micros = 1000;
  // A small file with an overdue tombstone; level is way under capacity.
  auto version = MakeVersion({
      {1, MakeFile(21, "a", "c", 10, /*tombstones=*/2,
                   /*tombstone_age_start=*/500)},
  });
  CompactionPicker picker(&options_);
  // Before the TTL elapses: nothing to do.
  EXPECT_FALSE(picker.Pick(*version, 600).has_value());
  // After: the TTL job fires even though no size trigger is close.
  auto job = picker.Pick(*version, 2000);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(CompactionTrigger::kTombstoneTtl, job->trigger);
  ASSERT_EQ(1u, job->inputs.size());
  EXPECT_EQ(21u, job->inputs[0].file_number);
}

TEST_F(PickerTest, TieredTargetStacksWithoutOverlap) {
  options_.data_layout = DataLayout::kTiering;
  options_.size_ratio = 3;
  auto version = MakeVersion({
      {0, MakeFile(10, "a", "m")},
      {0, MakeFile(11, "b", "z")},
      {0, MakeFile(12, "c", "q")},
      {1, MakeFile(5, "a", "z", 400)},  // Existing L1 run.
  });
  CompactionPicker picker(&options_);
  auto job = picker.Pick(*version, 0);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(1, job->output_level);
  EXPECT_TRUE(job->overlap.empty())
      << "tiered targets stack a fresh run; no overlap merge";
  EXPECT_FALSE(job->bottommost)
      << "sibling run at the target level may hold older versions";
}

TEST_F(PickerTest, LastLevelTieringMergesInPlace) {
  options_.data_layout = DataLayout::kTiering;
  options_.num_levels = 3;
  auto version = MakeVersion({
      {2, MakeFile(30, "a", "m", 400)},
      {2, MakeFile(31, "b", "z", 400)},
      {2, MakeFile(32, "c", "q", 400)},
  });
  CompactionPicker picker(&options_);
  auto job = picker.Pick(*version, 0);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(2, job->input_level);
  EXPECT_EQ(2, job->output_level);
  EXPECT_EQ(3u, job->inputs.size());
  EXPECT_TRUE(job->bottommost);
}

TEST_F(PickerTest, ScoreGrowsWithPressure) {
  options_.data_layout = DataLayout::kOneLeveling;
  auto version = MakeVersion({
      {1, MakeFile(21, "a", "c", 500)},
      {1, MakeFile(22, "d", "j", 1500)},
  });
  CompactionPicker picker(&options_);
  EXPECT_GE(picker.Score(*version, 1), 2.0);  // 2000 bytes vs 1000 cap.
  EXPECT_EQ(0.0, picker.Score(*version, 2));
}

TEST_F(PickerTest, ManualCompactionCoversLevel) {
  options_.data_layout = DataLayout::kOneLeveling;
  auto version = MakeVersion({
      {1, MakeFile(21, "a", "c", 100)},
      {1, MakeFile(22, "d", "j", 100)},
  });
  CompactionPicker picker(&options_);
  auto job = picker.PickManual(*version, 1);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(CompactionTrigger::kManual, job->trigger);
  EXPECT_EQ(2u, job->inputs.size());
  EXPECT_FALSE(picker.PickManual(*version, 3).has_value());
}

// ---------------------------------------------------------------------------
// Conflict-aware picking: the admission rules the parallel scheduler
// relies on to keep concurrent compactions disjoint.
// ---------------------------------------------------------------------------

TEST_F(PickerTest, BusyInputFileBlocksWholeLevelPlan) {
  options_.data_layout = DataLayout::kOneLeveling;
  auto version = MakeVersion({
      {0, MakeFile(10, "a", "m")},
      {0, MakeFile(11, "b", "z")},
      {0, MakeFile(12, "c", "q")},
  });
  CompactionPicker picker(&options_);
  ASSERT_TRUE(picker.Pick(*version, 0).has_value());

  // An L0 merge needs every run; one busy file blocks the whole plan.
  std::set<uint64_t> busy = {11};
  PickContext ctx;
  ctx.busy_files = &busy;
  EXPECT_FALSE(picker.Pick(*version, 0, ctx).has_value());
}

TEST_F(PickerTest, BusyFileSkippedUnderPartialGranularity) {
  options_.data_layout = DataLayout::kOneLeveling;
  options_.compaction_granularity = CompactionGranularity::kPartial;
  options_.file_pick_policy = FilePickPolicy::kOldestFirst;
  auto version = MakeVersion({
      {1, MakeFile(21, "a", "c", 800)},
      {1, MakeFile(22, "d", "j", 700)},
  });
  CompactionPicker picker(&options_);

  // Partial granularity can route around a busy candidate: with file 21
  // (the oldest) busy, the picker falls back to file 22.
  std::set<uint64_t> busy = {21};
  PickContext ctx;
  ctx.busy_files = &busy;
  auto plan = picker.Pick(*version, 0, ctx);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(1u, plan->inputs.size());
  EXPECT_EQ(22u, plan->inputs[0].file_number);

  // Both busy: nothing admissible.
  busy.insert(22);
  EXPECT_FALSE(picker.Pick(*version, 0, ctx).has_value());
}

TEST_F(PickerTest, ClaimedRangeRejectsOverlappingPlan) {
  options_.data_layout = DataLayout::kOneLeveling;
  options_.compaction_granularity = CompactionGranularity::kPartial;
  options_.file_pick_policy = FilePickPolicy::kOldestFirst;
  auto version = MakeVersion({
      {1, MakeFile(21, "a", "c", 800)},
      {1, MakeFile(22, "d", "j", 700)},
  });
  CompactionPicker picker(&options_);

  // A running job claims [a, e] at the output level 2. File 21's plan
  // ([a, c] -> L2) intersects it even though no *file* is shared — this is
  // exactly the two-overlapping-jobs-into-empty-level hazard. File 22's
  // hull [d, j] also intersects [a, e], so nothing at L1 is admissible.
  std::vector<ClaimedRange> claims = {{2, "a", "e"}};
  PickContext ctx;
  ctx.claimed = &claims;
  auto plan = picker.Pick(*version, 0, ctx);
  EXPECT_FALSE(plan.has_value());

  // Shrink the claim to [a, c]: file 22 ([d, j]) becomes admissible.
  claims[0].largest = "c";
  plan = picker.Pick(*version, 0, ctx);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(1u, plan->inputs.size());
  EXPECT_EQ(22u, plan->inputs[0].file_number);

  // A claim at an unrelated level does not block anything.
  claims[0] = {4, "a", "z"};
  EXPECT_TRUE(picker.Pick(*version, 0, ctx).has_value());
}

TEST_F(PickerTest, DeepRunningJobSuppressesBottommost) {
  options_.data_layout = DataLayout::kOneLeveling;
  options_.num_levels = 3;
  auto version = MakeVersion({
      {1, MakeFile(21, "a", "c", 800)},
      {1, MakeFile(22, "d", "j", 700)},
  });
  CompactionPicker picker(&options_);
  auto plan = picker.Pick(*version, 0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(2, plan->output_level);
  EXPECT_TRUE(plan->bottommost) << "L2 is the deepest data: tombstones drop";

  // With a sibling job running at output level 2 (disjoint range, so the
  // plan is otherwise admissible), bottommost must be conservative: that
  // job may be writing older versions of keys this merge would drop.
  std::vector<ClaimedRange> claims = {{2, "x", "z"}};
  PickContext ctx;
  ctx.claimed = &claims;
  ctx.deepest_running_output = 2;
  plan = picker.Pick(*version, 0, ctx);
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->bottommost);
}

TEST_F(PickerTest, PlanKeyRangeIsInputOverlapHull) {
  options_.data_layout = DataLayout::kOneLeveling;
  auto version = MakeVersion({
      {0, MakeFile(10, "d", "m")},
      {0, MakeFile(11, "f", "p")},
      {0, MakeFile(12, "c", "q")},
      {1, MakeFile(5, "a", "j", 400)},
      {1, MakeFile(6, "k", "z", 400)},
  });
  CompactionPicker picker(&options_);
  auto plan = picker.Pick(*version, 0);
  ASSERT_TRUE(plan.has_value());
  std::string smallest, largest;
  plan->KeyRange(BytewiseComparator(), &smallest, &largest);
  EXPECT_EQ("a", smallest) << "hull must include the overlap files";
  EXPECT_EQ("z", largest);
}

TEST_F(PickerTest, HeldVersionStaysLiveAcrossSweeps) {
  // A reader pins the version holding file 10; a compaction then replaces
  // file 10 with file 11. Every GC sweep must keep file 10 while the pin
  // lasts, not just the first.
  std::shared_ptr<const Version> held =
      MakeVersion({{0, MakeFile(10, "a", "m")}});
  VersionEdit edit;
  edit.RemoveFile(0, 10);
  edit.AddFile(1, MakeFile(11, "a", "m"));
  ASSERT_TRUE(versions_->LogAndApply(&edit).ok());
  for (int sweep = 0; sweep < 3; ++sweep) {
    std::set<uint64_t> live;
    versions_->AddLiveFiles(&live);
    EXPECT_EQ(1u, live.count(10)) << "sweep " << sweep;
    EXPECT_EQ(1u, live.count(11)) << "sweep " << sweep;
  }
  held.reset();
  std::set<uint64_t> live;
  versions_->AddLiveFiles(&live);
  EXPECT_EQ(0u, live.count(10));
}

// ---------------------------------------------------------------------------
// Subcompaction splitting: a sharded merge must produce the same logical
// contents as an unsharded one.
// ---------------------------------------------------------------------------

TEST(SubcompactionTest, ShardedMergeMatchesUnsharded) {
  auto fill_and_dump = [](int subcompactions, int threads,
                          uint64_t* shards_run) {
    MemEnv env;
    Options options;
    options.env = &env;
    options.data_layout = DataLayout::kOneLeveling;
    options.write_buffer_size = 4 << 10;
    options.max_bytes_for_level_base = 32 << 10;
    options.target_file_size = 4 << 10;
    options.background_threads = threads;
    options.max_subcompactions = subcompactions;
    std::unique_ptr<DB> db;
    EXPECT_TRUE(DB::Open(options, "/sub", &db).ok());

    Random rnd(77);
    for (int i = 0; i < 6000; ++i) {
      std::string key = "key" + std::to_string(rnd.Uniform(900));
      if (rnd.OneIn(7)) {
        EXPECT_TRUE(db->Delete(WriteOptions(), key).ok());
      } else {
        EXPECT_TRUE(
            db->Put(WriteOptions(), key, "v" + std::to_string(i)).ok());
      }
    }
    EXPECT_TRUE(db->WaitForBackgroundWork().ok());
    EXPECT_TRUE(db->CompactRange().ok());
    Status s = db->ValidateTreeInvariants();
    EXPECT_TRUE(s.ok()) << s.ToString();

    std::string dump;
    auto iter = db->NewIterator(ReadOptions());
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      dump += iter->key().ToString() + "=" + iter->value().ToString() + ";";
    }
    *shards_run = db->statistics()->subcompactions.load();
    return dump;
  };

  uint64_t unsharded_shards = 0, sharded_shards = 0;
  std::string unsharded = fill_and_dump(1, 1, &unsharded_shards);
  std::string sharded = fill_and_dump(4, 4, &sharded_shards);
  EXPECT_EQ(unsharded, sharded);
  EXPECT_FALSE(sharded.empty());
  EXPECT_EQ(0u, unsharded_shards)
      << "max_subcompactions=1 must never split";
  EXPECT_GT(sharded_shards, 0u)
      << "large leveled merges should have been sharded";
}

// ---------------------------------------------------------------------------
// LevelIsTiered: the layout predicate.
// ---------------------------------------------------------------------------

TEST(LayoutPredicateTest, MatchesDefinitions) {
  const int kL = 5;
  // Leveling: nothing tiered.
  for (int i = 0; i < kL; ++i) {
    EXPECT_FALSE(LevelIsTiered(DataLayout::kLeveling, i, kL));
  }
  // Tiering: everything tiered.
  for (int i = 0; i < kL; ++i) {
    EXPECT_TRUE(LevelIsTiered(DataLayout::kTiering, i, kL));
  }
  // Lazy-leveling: all but the last.
  for (int i = 0; i < kL - 1; ++i) {
    EXPECT_TRUE(LevelIsTiered(DataLayout::kLazyLeveling, i, kL));
  }
  EXPECT_FALSE(LevelIsTiered(DataLayout::kLazyLeveling, kL - 1, kL));
  // 1-leveling: only L0.
  EXPECT_TRUE(LevelIsTiered(DataLayout::kOneLeveling, 0, kL));
  for (int i = 1; i < kL; ++i) {
    EXPECT_FALSE(LevelIsTiered(DataLayout::kOneLeveling, i, kL));
  }
}

// ---------------------------------------------------------------------------
// End-to-end tree invariants under every layout.
// ---------------------------------------------------------------------------

class TreeInvariantTest : public ::testing::TestWithParam<DataLayout> {};

TEST_P(TreeInvariantTest, HoldAfterHeavyChurn) {
  MemEnv env;
  Options options;
  options.env = &env;
  options.data_layout = GetParam();
  options.write_buffer_size = 4 << 10;
  options.max_bytes_for_level_base = 32 << 10;
  options.target_file_size = 8 << 10;
  options.size_ratio = 3;
  if (GetParam() == DataLayout::kLeveling) {
    options.level0_file_num_compaction_trigger = 1;
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/inv", &db).ok());

  Random rnd(23);
  for (int i = 0; i < 8000; ++i) {
    std::string key = "key" + std::to_string(rnd.Uniform(700));
    if (rnd.OneIn(8)) {
      ASSERT_TRUE(db->Delete(WriteOptions(), key).ok());
    } else {
      ASSERT_TRUE(db->Put(WriteOptions(), key, std::string(48, 'v')).ok());
    }
    if (i % 2000 == 1999) {
      ASSERT_TRUE(db->WaitForBackgroundWork().ok());
      Status s = db->ValidateTreeInvariants();
      ASSERT_TRUE(s.ok()) << s.ToString() << "\n" << db->LevelsDebugString();
    }
  }
  ASSERT_TRUE(db->CompactRange().ok());
  Status s = db->ValidateTreeInvariants();
  ASSERT_TRUE(s.ok()) << s.ToString();
}

// ---------------------------------------------------------------------------
// Output-file cutting must respect user-key boundaries. A hot merge key
// accumulates an operand run far larger than target_file_size; if the merge
// loop cut outputs purely on size it would split that run across two leveled
// files sharing the boundary user key, which violates the disjoint-range
// invariant and makes Get stop at the first file and miss the rest.
// Regression test: pre-fix this fails WaitForBackgroundWork with
// "Corruption: overlapping files produced at leveled level 1".
// ---------------------------------------------------------------------------

TEST(CompactionOutputCutTest, OutputFilesNeverSplitAUserKey) {
  MemEnv env;
  Options options;
  options.env = &env;
  options.data_layout = DataLayout::kOneLeveling;
  options.write_buffer_size = 4 << 10;
  options.level0_file_num_compaction_trigger = 2;
  options.max_bytes_for_level_base = 16 << 10;
  options.target_file_size = 4 << 10;  // Far below the hot key's operand run.
  options.background_threads = 2;
  options.merge_operator = NewStringAppendOperator(',');
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/cut", &db).ok());

  // Flank the hot key so output files have real ranges on both sides.
  const std::string filler(100, 'v');
  for (int i = 0; i < 20; ++i) {
    char before[8], after[8];
    std::snprintf(before, sizeof(before), "a%02d", i);
    std::snprintf(after, sizeof(after), "z%02d", i);
    ASSERT_TRUE(db->Put(WriteOptions(), before, filler).ok());
    ASSERT_TRUE(db->Put(WriteOptions(), after, filler).ok());
  }

  // ~40KB of merge operands on one user key: any size-based cut inside the
  // run would split "hot" across adjacent leveled files.
  const int kOperands = 400;
  const std::string operand(100, 'm');
  std::string expected;
  for (int i = 0; i < kOperands; ++i) {
    ASSERT_TRUE(db->Merge(WriteOptions(), "hot", operand).ok());
    if (!expected.empty()) {
      expected += ',';
    }
    expected += operand;
  }

  Status s = db->WaitForBackgroundWork();
  ASSERT_TRUE(s.ok()) << s.ToString();
  s = db->CompactRange();
  ASSERT_TRUE(s.ok()) << s.ToString();
  s = db->ValidateTreeInvariants();
  ASSERT_TRUE(s.ok()) << s.ToString() << "\n" << db->LevelsDebugString();

  std::string got;
  ASSERT_TRUE(db->Get(ReadOptions(), "hot", &got).ok());
  EXPECT_EQ(expected, got);
  EXPECT_TRUE(db->BackgroundErrorState().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, TreeInvariantTest,
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
