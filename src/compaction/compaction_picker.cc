#include "compaction/compaction_picker.h"

#include <algorithm>
#include <cassert>

#include "util/comparator.h"

namespace lsmlab {

CompactionPicker::CompactionPicker(const Options* options)
    : options_(options),
      ucmp_(options->comparator != nullptr ? options->comparator
                                           : BytewiseComparator()),
      cursor_(static_cast<size_t>(options->num_levels)) {}

uint64_t CompactionPicker::MaxBytesForLevel(int level) const {
  assert(level >= 1);
  uint64_t bytes = options_->max_bytes_for_level_base;
  for (int i = 1; i < level; ++i) {
    bytes *= static_cast<uint64_t>(options_->size_ratio);
  }
  return bytes;
}

int CompactionPicker::RunCountTrigger(int level) const {
  if (level == 0) {
    // L0's trigger is its own knob in every layout (absorbs flush bursts).
    return options_->level0_file_num_compaction_trigger;
  }
  return options_->size_ratio;
}

double CompactionPicker::Score(const Version& version, int level) const {
  bool tiered =
      level == 0 || LevelIsTiered(options_->data_layout, level,
                                  options_->num_levels);
  if (tiered) {
    return static_cast<double>(version.NumFiles(level)) /
           static_cast<double>(RunCountTrigger(level));
  }
  if (level == 0) {
    return 0.0;
  }
  return static_cast<double>(version.LevelBytes(level)) /
         static_cast<double>(MaxBytesForLevel(level));
}

bool CompactionPicker::FileBusy(const FileMetaData& f,
                                const PickContext& ctx) const {
  return ctx.busy_files != nullptr &&
         ctx.busy_files->count(f.file_number) > 0;
}

bool CompactionPicker::PlanAdmissible(CompactionPlan* plan,
                                      const PickContext& ctx) const {
  for (const auto& f : plan->inputs) {
    if (FileBusy(f, ctx)) {
      return false;
    }
  }
  for (const auto& f : plan->overlap) {
    if (FileBusy(f, ctx)) {
      return false;
    }
  }
  if (ctx.claimed != nullptr && !ctx.claimed->empty()) {
    std::string smallest, largest;
    plan->KeyRange(ucmp_, &smallest, &largest);
    for (const auto& claim : *ctx.claimed) {
      if (claim.level != plan->input_level &&
          claim.level != plan->output_level) {
        continue;
      }
      bool disjoint =
          ucmp_->Compare(Slice(claim.largest), Slice(smallest)) < 0 ||
          ucmp_->Compare(Slice(largest), Slice(claim.smallest)) < 0;
      if (!disjoint) {
        return false;
      }
    }
  }
  if (ctx.deepest_running_output >= plan->output_level) {
    // A running job at or below the output level may still hold versions of
    // the affected keys; dropping tombstones here could resurrect them.
    plan->bottommost = false;
  }
  return true;
}

std::optional<CompactionPlan> CompactionPicker::PickTtlCompaction(
    const Version& version, uint64_t now_micros, const PickContext& ctx) {
  if (options_->tombstone_ttl_micros == 0) {
    return std::nullopt;
  }
  // FADE (Lethe): the file whose oldest tombstone is most overdue becomes
  // the top priority, bounding how long a delete can stay logical. Overdue
  // files whose plan conflicts with a running job are passed over until the
  // conflict clears.
  struct Candidate {
    uint64_t age;
    int level;
    const FileMetaData* file;
  };
  std::vector<Candidate> overdue;
  for (int level = 0; level < version.num_levels(); ++level) {
    for (const auto& f : version.files(level)) {
      if (f.oldest_tombstone_time_micros == 0 || f.num_tombstones == 0) {
        continue;
      }
      // A tombstone at the last level is dropped on its next merge; files
      // already at the last level still need one more (in-place) merge.
      uint64_t age = now_micros > f.oldest_tombstone_time_micros
                         ? now_micros - f.oldest_tombstone_time_micros
                         : 0;
      if (age >= options_->tombstone_ttl_micros && !FileBusy(f, ctx)) {
        overdue.push_back({age, level, &f});
      }
    }
  }
  std::sort(overdue.begin(), overdue.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.age > b.age;
            });
  for (const auto& c : overdue) {
    auto plan = BuildPlan(version, CompactionTrigger::kTombstoneTtl, c.level,
                          {*c.file});
    if (PlanAdmissible(&plan, ctx)) {
      return plan;
    }
  }
  return std::nullopt;
}

const FileMetaData* CompactionPicker::ChooseByPolicy(
    const Version& version, int level,
    const std::vector<const FileMetaData*>& candidates) const {
  assert(!candidates.empty());
  auto overlap_bytes = [&](const FileMetaData& f) {
    uint64_t total = 0;
    Slice smallest = f.smallest.user_key();
    Slice largest = f.largest.user_key();
    if (level + 1 < version.num_levels()) {
      for (const auto* of :
           version.FilesOverlapping(level + 1, &smallest, &largest)) {
        total += of->file_size;
      }
    }
    return total;
  };

  const FileMetaData* picked = nullptr;
  switch (options_->file_pick_policy) {
    case FilePickPolicy::kRoundRobin: {
      // First file whose smallest key is past the cursor; wrap at the end.
      const std::string& cursor = cursor_[static_cast<size_t>(level)];
      for (const auto* f : candidates) {
        if (cursor.empty() ||
            ucmp_->Compare(f->smallest.user_key(), cursor) > 0) {
          picked = f;
          break;
        }
      }
      if (picked == nullptr) {
        picked = candidates.front();
      }
      break;
    }
    case FilePickPolicy::kLeastOverlap: {
      uint64_t best = ~uint64_t{0};
      for (const auto* f : candidates) {
        uint64_t o = overlap_bytes(*f);
        if (o < best) {
          best = o;
          picked = f;
        }
      }
      break;
    }
    case FilePickPolicy::kMostTombstones: {
      double best = -1.0;
      for (const auto* f : candidates) {
        double density =
            f->num_entries == 0
                ? 0.0
                : static_cast<double>(f->num_tombstones) /
                      static_cast<double>(f->num_entries);
        if (density > best) {
          best = density;
          picked = f;
        }
      }
      break;
    }
    case FilePickPolicy::kOldestFirst: {
      uint64_t best = ~uint64_t{0};
      for (const auto* f : candidates) {
        if (f->creation_time_micros < best) {
          best = f->creation_time_micros;
          picked = f;
        }
      }
      break;
    }
    case FilePickPolicy::kWidestRange: {
      // Approximate "widest" by the byte span of overlap plus own size.
      uint64_t best = 0;
      picked = candidates.front();
      for (const auto* f : candidates) {
        uint64_t width = overlap_bytes(*f) + f->file_size;
        if (width >= best) {
          best = width;
          picked = f;
        }
      }
      break;
    }
  }
  assert(picked != nullptr);
  return picked;
}

CompactionPlan CompactionPicker::BuildPlan(const Version& version,
                                           CompactionTrigger trigger,
                                           int level,
                                           std::vector<FileMetaData> inputs) {
  CompactionPlan plan;
  plan.trigger = trigger;
  plan.input_level = level;
  plan.inputs = std::move(inputs);

  const int last_level = version.num_levels() - 1;
  bool at_last = (level == last_level);
  plan.output_level = at_last ? last_level : level + 1;

  bool target_tiered =
      !at_last && LevelIsTiered(options_->data_layout, plan.output_level,
                                options_->num_levels);

  if (target_tiered) {
    // Output stacks as a fresh run on the target level; no overlap merge.
    plan.overlap.clear();
  } else {
    // Merge with the overlapping files of the (leveled) target.
    Slice smallest, largest;
    bool first = true;
    std::string smallest_buf, largest_buf;
    for (const auto& f : plan.inputs) {
      if (first || ucmp_->Compare(f.smallest.user_key(), smallest) < 0) {
        smallest_buf = f.smallest.user_key().ToString();
        smallest = Slice(smallest_buf);
      }
      if (first || ucmp_->Compare(f.largest.user_key(), largest) > 0) {
        largest_buf = f.largest.user_key().ToString();
        largest = Slice(largest_buf);
      }
      first = false;
    }
    if (at_last) {
      // In-place merge of the last level's runs (pure tiering): all runs of
      // the level are the inputs; no separate overlap set.
      plan.overlap.clear();
    } else {
      for (const auto* f :
           version.FilesOverlapping(plan.output_level, &smallest, &largest)) {
        // Skip files already among the inputs (same level corner cases).
        plan.overlap.push_back(*f);
      }
    }
  }

  // Tombstones (and the entries they shadow) may drop only when, after this
  // merge, no other run anywhere can hold a version of the affected keys:
  //  (a) every level deeper than the output is empty,
  //  (b) a tiered output holds no other runs (a stacked sibling run could
  //      hold an older version a dropped tombstone would resurrect),
  //  (c) a tiered input is fully consumed (a leftover sibling run at the
  //      input level is *older* than nothing — it may hold stale versions
  //      of keys whose tombstone would otherwise be dropped below it).
  bool deeper_levels_empty = true;
  for (int l = plan.output_level + 1; l < version.num_levels(); ++l) {
    if (version.NumFiles(l) > 0) {
      deeper_levels_empty = false;
      break;
    }
  }
  bool input_level_tiered =
      level == 0 || LevelIsTiered(options_->data_layout, level,
                                  options_->num_levels);
  bool input_fully_consumed =
      !input_level_tiered ||
      plan.inputs.size() == version.files(level).size();
  bool output_has_sibling_runs =
      target_tiered && version.NumFiles(plan.output_level) > 0;
  plan.bottommost =
      deeper_levels_empty && input_fully_consumed && !output_has_sibling_runs;
  return plan;
}

std::optional<CompactionPlan> CompactionPicker::TryPickLevel(
    const Version& version, int level, const PickContext& ctx) {
  bool tiered = level == 0 || LevelIsTiered(options_->data_layout, level,
                                            options_->num_levels);
  if (tiered) {
    // Run-count trigger: merge all runs of the level — the whole level must
    // be free (an L0/tiered level's runs overlap arbitrarily, so there is
    // no safe partial-concurrency on it).
    auto plan = BuildPlan(version, CompactionTrigger::kRunCount, level,
                          version.files(level));
    if (PlanAdmissible(&plan, ctx)) {
      return plan;
    }
    return std::nullopt;
  }

  if (options_->compaction_granularity == CompactionGranularity::kWholeLevel) {
    auto plan = BuildPlan(version, CompactionTrigger::kLevelSize, level,
                          version.files(level));
    if (PlanAdmissible(&plan, ctx)) {
      return plan;
    }
    return std::nullopt;
  }

  // Partial pick: try files in policy order until one yields an admissible
  // plan. Each rejection removes the file from the candidate set, so this
  // terminates after at most NumFiles(level) attempts.
  std::vector<const FileMetaData*> candidates;
  candidates.reserve(version.files(level).size());
  for (const auto& f : version.files(level)) {
    if (!FileBusy(f, ctx)) {
      candidates.push_back(&f);
    }
  }
  while (!candidates.empty()) {
    const FileMetaData* picked = ChooseByPolicy(version, level, candidates);
    auto plan =
        BuildPlan(version, CompactionTrigger::kLevelSize, level, {*picked});
    if (PlanAdmissible(&plan, ctx)) {
      cursor_[static_cast<size_t>(level)] =
          picked->largest.user_key().ToString();
      return plan;
    }
    candidates.erase(
        std::find(candidates.begin(), candidates.end(), picked));
  }
  return std::nullopt;
}

std::optional<CompactionPlan> CompactionPicker::Pick(const Version& version,
                                                     uint64_t now_micros,
                                                     const PickContext& ctx) {
  MutexLock lock(&mu_);
  // FADE first: delete persistence is a correctness-adjacent deadline.
  auto ttl_plan = PickTtlCompaction(version, now_micros, ctx);
  if (ttl_plan.has_value()) {
    return ttl_plan;
  }

  // Otherwise compact under pressure, most-pressured level first; levels
  // whose files or ranges are claimed by running jobs are passed over so
  // disjoint work elsewhere can still be admitted.
  struct Scored {
    double score;
    int level;
  };
  std::vector<Scored> scored;
  for (int level = 0; level < version.num_levels(); ++level) {
    if (version.NumFiles(level) == 0) {
      continue;
    }
    double score = Score(version, level);
    if (score >= 1.0) {
      scored.push_back({score, level});
    }
  }
  // Ties break toward the deeper level (matches the historical single-job
  // picker, which scanned levels in order and kept the last best).
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) {
              return a.score != b.score ? a.score > b.score
                                        : a.level > b.level;
            });
  for (const auto& s : scored) {
    auto plan = TryPickLevel(version, s.level, ctx);
    if (plan.has_value()) {
      return plan;
    }
  }
  return std::nullopt;
}

std::optional<CompactionPlan> CompactionPicker::PickManual(
    const Version& version, int level) {
  if (version.NumFiles(level) == 0) {
    return std::nullopt;
  }
  return BuildPlan(version, CompactionTrigger::kManual, level,
                   version.files(level));
}

}  // namespace lsmlab
