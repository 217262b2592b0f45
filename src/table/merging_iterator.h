#ifndef LSMLAB_TABLE_MERGING_ITERATOR_H_
#define LSMLAB_TABLE_MERGING_ITERATOR_H_

#include <memory>
#include <vector>

#include "table/iterator.h"
#include "util/comparator.h"

namespace lsmlab {

/// K-way merge over child iterators, the machinery behind both range scans
/// (tutorial §2.1.2: one iterator per sorted run, merged) and compactions.
/// Children yielding equal keys are surfaced in input order, so callers must
/// order children newest-run-first for LSM shadowing to work. The merge
/// ends at the first child that fails (invalid with a non-OK status):
/// without it, older versions its entries shadow would surface. status()
/// then reports that child's error.
std::unique_ptr<Iterator> NewMergingIterator(
    const Comparator* comparator,
    std::vector<std::unique_ptr<Iterator>> children);

}  // namespace lsmlab

#endif  // LSMLAB_TABLE_MERGING_ITERATOR_H_
