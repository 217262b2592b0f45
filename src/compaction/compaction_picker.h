#ifndef LSMLAB_COMPACTION_COMPACTION_PICKER_H_
#define LSMLAB_COMPACTION_COMPACTION_PICKER_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "compaction/compaction.h"
#include "util/mutex.h"
#include "util/options.h"
#include "util/thread_annotations.h"
#include "version/version_set.h"

namespace lsmlab {

/// A {level, key-range} region claimed by a running compaction. A job
/// claims the user-key hull of its inputs and overlap at both its input and
/// output levels; candidate plans intersecting a claim are not admissible.
struct ClaimedRange {
  int level = 0;
  std::string smallest;  // Inclusive user-key bounds.
  std::string largest;
};

/// Conflict state handed to Pick() by the scheduler so concurrent
/// compactions stay disjoint. Default-constructed context means "nothing is
/// running" (single-job behavior).
struct PickContext {
  /// File numbers owned (as input or overlap) by running jobs; candidates
  /// touching any of them are skipped.
  const std::set<uint64_t>* busy_files = nullptr;
  /// Level/key-range claims of running jobs; a candidate whose hull
  /// intersects a claim at a shared level is skipped. This is what makes
  /// two single-file L0 picks into an empty L1 safe: their L1 claims are
  /// their input hulls, which must not intersect.
  const std::vector<ClaimedRange>* claimed = nullptr;
  /// Deepest output level among running jobs; bottommost is suppressed for
  /// plans at or above it (a concurrent job deeper in the tree may hold
  /// versions of keys whose tombstones would otherwise drop).
  int deepest_running_output = -1;
};

/// CompactionPicker decides *whether*, *where*, and *which files* to
/// compact — the trigger, granularity, and data-movement primitives of
/// tutorial §2.2.4 — for all four disk data layouts of §2.2.2. Stateful only
/// for the round-robin cursor, which sits behind an internal leaf mutex, so
/// every method is individually safe from any thread. The scheduler (DB)
/// additionally serializes Pick calls under its own mutex so that two
/// concurrent picks never see the same tree shape and claim the same work.
class CompactionPicker {
 public:
  explicit CompactionPicker(const Options* options);

  /// Returns the most urgent compaction admissible under `ctx`, or nullopt
  /// when the tree shape is within bounds or every needed file/range is
  /// claimed by a running job. `now_micros` feeds the FADE tombstone-TTL
  /// trigger. Levels are tried in descending pressure order, so a busy
  /// top-pressure level does not starve admissible work elsewhere.
  std::optional<CompactionPlan> Pick(const Version& version,
                                     uint64_t now_micros,
                                     const PickContext& ctx = {})
      EXCLUDES(mu_);

  /// A manual whole-range compaction of `level` into `level + 1`.
  std::optional<CompactionPlan> PickManual(const Version& version, int level);

  /// Byte capacity of a leveled level (level >= 1): base * T^(level-1).
  uint64_t MaxBytesForLevel(int level) const;

  /// Run-count trigger for a tiered level.
  int RunCountTrigger(int level) const;

  /// The compaction-pressure score of a level (>= 1.0 means "needs work").
  /// Exposed for tests and the design-space explorer example.
  double Score(const Version& version, int level) const;

 private:
  std::optional<CompactionPlan> PickTtlCompaction(const Version& version,
                                                  uint64_t now_micros,
                                                  const PickContext& ctx);
  /// Builds an admissible plan for `level`, or nullopt if every choice
  /// conflicts with `ctx`. Commits the round-robin cursor on success.
  std::optional<CompactionPlan> TryPickLevel(const Version& version, int level,
                                             const PickContext& ctx)
      REQUIRES(mu_);
  CompactionPlan BuildPlan(const Version& version, CompactionTrigger trigger,
                           int level, std::vector<FileMetaData> inputs);
  /// Selects one input file from `candidates` (all from leveled `level`)
  /// per the configured FilePickPolicy (the data-movement primitive). Does
  /// not advance the round-robin cursor; the caller commits the choice.
  const FileMetaData* ChooseByPolicy(
      const Version& version, int level,
      const std::vector<const FileMetaData*>& candidates) const
      REQUIRES(mu_);
  bool FileBusy(const FileMetaData& f, const PickContext& ctx) const;
  /// Busy-file + claimed-range admission check; also suppresses bottommost
  /// when a running job is at or below the plan's output level.
  bool PlanAdmissible(CompactionPlan* plan, const PickContext& ctx) const;

  const Options* const options_;
  /// Orders user keys: options_->comparator, or bytewise when unset.
  const Comparator* const ucmp_;
  /// Leaf lock for the picker's only mutable state.
  mutable Mutex mu_{LockRank::kCompactionPicker, "compaction_picker.mu"};
  /// Round-robin cursors: the largest user key compacted so far per level.
  std::vector<std::string> cursor_ GUARDED_BY(mu_);
};

}  // namespace lsmlab

#endif  // LSMLAB_COMPACTION_COMPACTION_PICKER_H_
