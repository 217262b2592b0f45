#include "compaction/compaction.h"

#include <cassert>
#include <cstdio>

#include "util/comparator.h"

namespace lsmlab {

const char* CompactionTriggerName(CompactionTrigger trigger) {
  switch (trigger) {
    case CompactionTrigger::kLevelSize:
      return "level-size";
    case CompactionTrigger::kRunCount:
      return "run-count";
    case CompactionTrigger::kTombstoneTtl:
      return "tombstone-ttl";
    case CompactionTrigger::kManual:
      return "manual";
  }
  return "unknown";
}

void CompactionPlan::KeyRange(const Comparator* ucmp, std::string* smallest,
                              std::string* largest) const {
  assert(!inputs.empty());
  bool first = true;
  auto widen = [&](const FileMetaData& f) {
    if (first || ucmp->Compare(f.smallest.user_key(), *smallest) < 0) {
      *smallest = f.smallest.user_key().ToString();
    }
    if (first || ucmp->Compare(f.largest.user_key(), *largest) > 0) {
      *largest = f.largest.user_key().ToString();
    }
    first = false;
  };
  for (const auto& f : inputs) widen(f);
  for (const auto& f : overlap) widen(f);
}

std::string CompactionPlan::DebugString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "compaction[%s] L%d(%zu files) -> L%d(%zu overlap) %s",
                CompactionTriggerName(trigger), input_level, inputs.size(),
                output_level, overlap.size(),
                bottommost ? "bottommost" : "");
  return std::string(buf);
}

}  // namespace lsmlab
