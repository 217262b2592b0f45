#include "table/merging_iterator.h"

#include <cassert>

namespace lsmlab {

namespace {

/// Straightforward tournament over N children. N is small (runs in a tree),
/// so a linear scan for the minimum beats heap bookkeeping in practice and
/// is simpler to verify. Ties are broken by child index, so children must be
/// ordered newest-first.
class MergingIterator final : public Iterator {
 public:
  MergingIterator(const Comparator* comparator,
                  std::vector<std::unique_ptr<Iterator>> children)
      : comparator_(comparator),
        children_(std::move(children)),
        current_(nullptr) {}

  bool Valid() const override { return current_ != nullptr; }

  void SeekToFirst() override {
    for (auto& child : children_) {
      child->SeekToFirst();
    }
    FindSmallest(nullptr);
  }

  void Seek(const Slice& target) override {
    for (auto& child : children_) {
      child->Seek(target);
    }
    FindSmallest(nullptr);
  }

  void Next() override {
    assert(Valid());
    current_->Next();
    FindSmallest(current_);
  }

  Slice key() const override {
    assert(Valid());
    return current_->key();
  }

  Slice value() const override {
    assert(Valid());
    return current_->value();
  }

  Status status() const override {
    for (const auto& child : children_) {
      Status s = child->status();
      if (!s.ok()) {
        return s;
      }
    }
    return Status::OK();
  }

 private:
  /// Points current_ at the child with the smallest key. `moved` is the
  /// one child that advanced, or null after a seek moved them all. A moved
  /// child that ran out with an error ends the merge: its unread entries
  /// may be newer versions or tombstones of keys the healthy children still
  /// hold, so merging on without it would serve shadowed data.
  void FindSmallest(const Iterator* moved) {
    Iterator* smallest = nullptr;
    for (auto& child : children_) {
      if (child->Valid()) {
        if (smallest == nullptr ||
            comparator_->Compare(child->key(), smallest->key()) < 0) {
          smallest = child.get();
        }
      } else if ((moved == nullptr || moved == child.get()) &&
                 !child->status().ok()) {
        current_ = nullptr;
        return;
      }
    }
    current_ = smallest;
  }

  const Comparator* const comparator_;
  std::vector<std::unique_ptr<Iterator>> children_;
  Iterator* current_;
};

}  // namespace

std::unique_ptr<Iterator> NewMergingIterator(
    const Comparator* comparator,
    std::vector<std::unique_ptr<Iterator>> children) {
  if (children.empty()) {
    return NewEmptyIterator();
  }
  if (children.size() == 1) {
    return std::move(children[0]);
  }
  return std::make_unique<MergingIterator>(comparator, std::move(children));
}

}  // namespace lsmlab
