#ifndef LSMLAB_COMPACTION_COMPACTION_H_
#define LSMLAB_COMPACTION_COMPACTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "version/version_edit.h"

namespace lsmlab {

/// What fired a compaction — the "trigger" primitive of the compaction
/// design space (tutorial §2.2.4).
enum class CompactionTrigger {
  kLevelSize,       // A leveled level exceeded its byte capacity.
  kRunCount,        // A tiered level accumulated too many runs.
  kTombstoneTtl,    // FADE: a file's tombstones exceeded their TTL (Lethe).
  kManual,          // CompactRange().
};

const char* CompactionTriggerName(CompactionTrigger trigger);

/// A fully specified compaction plan: the picker's output, a CompactionJob's
/// input. Together with CompactionTrigger this encodes all four primitives
/// of the design space: trigger, data layout (via which levels hold runs),
/// granularity (how many input files), and data-movement policy (which
/// files were picked).
struct CompactionPlan {
  CompactionTrigger trigger = CompactionTrigger::kLevelSize;
  int input_level = 0;
  int output_level = 0;
  /// Files taken from input_level.
  std::vector<FileMetaData> inputs;
  /// Files of output_level merged in (empty when the target level is tiered:
  /// the output then becomes a fresh run stacked on that level).
  std::vector<FileMetaData> overlap;
  /// True when tombstones (and the entries they shadow) may be dropped:
  /// nothing deeper can contain the affected keys.
  bool bottommost = false;

  uint64_t InputBytes() const {
    uint64_t total = 0;
    for (const auto& f : inputs) total += f.file_size;
    for (const auto& f : overlap) total += f.file_size;
    return total;
  }

  /// Inclusive user-key hull over inputs and overlap under `ucmp` — the key
  /// range this plan claims at both its levels for conflict tracking.
  /// Requires at least one input file.
  void KeyRange(const Comparator* ucmp, std::string* smallest,
                std::string* largest) const;

  std::string DebugString() const;
};

}  // namespace lsmlab

#endif  // LSMLAB_COMPACTION_COMPACTION_H_
