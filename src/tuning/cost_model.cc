#include "tuning/cost_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "tuning/monkey.h"

namespace lsmlab {

std::string LsmDesign::Label() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s/T=%d/buf=%lluKB/bpk=%.1f%s",
                DataLayoutName(layout), size_ratio,
                static_cast<unsigned long long>(buffer_bytes >> 10),
                filter_bits_per_key, monkey_allocation ? "/monkey" : "");
  return std::string(buf);
}

CostModel::CostModel(const LsmDesign& design, const DataSpec& data)
    : design_(design), data_(data) {
  double total_bytes = static_cast<double>(data.num_entries) *
                       static_cast<double>(data.entry_bytes);
  double ratio = total_bytes / static_cast<double>(design.buffer_bytes);
  double t = static_cast<double>(std::max(2, design.size_ratio));
  // Smallest L with buffer * T^L >= data.
  num_levels_ = std::max(1, static_cast<int>(std::ceil(
                                std::log(std::max(ratio, 1.0)) /
                                std::log(t))));
}

double CostModel::RunsPerLevel(int level) const {
  double t = static_cast<double>(design_.size_ratio);
  bool last = (level == num_levels_ - 1);
  switch (design_.layout) {
    case DataLayout::kLeveling:
      return 1.0;
    case DataLayout::kTiering:
      // On average a tiered level is half full of runs.
      return t / 2.0;
    case DataLayout::kLazyLeveling:
      return last ? 1.0 : t / 2.0;
    case DataLayout::kOneLeveling:
      return level == 0 ? t / 2.0 : 1.0;
  }
  return 1.0;
}

double CostModel::LevelFpr(int level) const {
  if (design_.filter_bits_per_key <= 0) {
    return 1.0;
  }
  if (!design_.monkey_allocation) {
    return BloomFpr(design_.filter_bits_per_key);
  }
  auto bits = MonkeyBitsPerLevel(design_.filter_bits_per_key, num_levels_,
                                 design_.size_ratio);
  return BloomFpr(bits[static_cast<size_t>(
      std::min(level, num_levels_ - 1))]);
}

double CostModel::WriteCost() const {
  // Each entry is re-written once per level it passes through; under
  // leveling it is additionally re-merged ~T/2 times within each level.
  // Divide by entries-per-page: compaction I/O is sequential page I/O.
  double t = static_cast<double>(design_.size_ratio);
  double b = data_.EntriesPerPage();
  double cost = 0;
  for (int level = 0; level < num_levels_; ++level) {
    bool leveled_level = RunsPerLevel(level) == 1.0;
    cost += (leveled_level ? (t + 1.0) / 2.0 : 1.0) / b;
  }
  // Read + write during merges: a merged page is read once and written once.
  return 2.0 * cost;
}

double CostModel::PointLookupCost() const {
  // The target key resides in the largest level with high probability; all
  // shallower runs cost a false-positive probe, the final one a real I/O.
  double cost = 1.0;  // The hit itself.
  for (int level = 0; level < num_levels_ - 1; ++level) {
    cost += RunsPerLevel(level) * LevelFpr(level);
  }
  // Non-last runs of the last level (tiering) also pay FPR probes.
  cost += std::max(0.0, RunsPerLevel(num_levels_ - 1) - 1.0) *
          LevelFpr(num_levels_ - 1);
  return cost;
}

double CostModel::ZeroResultLookupCost() const {
  double cost = 0.0;
  for (int level = 0; level < num_levels_; ++level) {
    cost += RunsPerLevel(level) * LevelFpr(level);
  }
  return cost;
}

double CostModel::ShortScanCost() const {
  // A short scan touches one page of every sorted run: range filters are
  // out of the base model (see E6 for their effect). The engine matches it
  // for leveled runs of many files too: a scan merges one child per run,
  // which opens only the file its seek lands in.
  double cost = 0.0;
  for (int level = 0; level < num_levels_; ++level) {
    cost += RunsPerLevel(level);
  }
  return cost;
}

double CostModel::SpaceAmplification() const {
  double t = static_cast<double>(design_.size_ratio);
  switch (design_.layout) {
    case DataLayout::kLeveling:
    case DataLayout::kOneLeveling:
      // Shallower levels hold up to 1/(T-1) of the last level in stale
      // versions.
      return 1.0 / (t - 1.0);
    case DataLayout::kTiering:
      // Every level can hold T versions of the same data.
      return t - 1.0;
    case DataLayout::kLazyLeveling:
      // Tiered intermediates are small; the leveled last level dominates.
      return (t - 1.0) / t + 1.0 / (t - 1.0);
  }
  return 1.0;
}

double CostModel::WorkloadCost(const WorkloadMix& mix) const {
  return mix.writes * WriteCost() + mix.point_reads * PointLookupCost() +
         mix.empty_point_reads * ZeroResultLookupCost() +
         mix.short_scans * ShortScanCost();
}

}  // namespace lsmlab
