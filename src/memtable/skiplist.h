#ifndef LSMLAB_MEMTABLE_SKIPLIST_H_
#define LSMLAB_MEMTABLE_SKIPLIST_H_

#include <atomic>
#include <cassert>
#include <cstdlib>

#include "util/arena.h"
#include "util/random.h"

namespace lsmlab {

/// Lock-free-for-readers skip list (single writer, many concurrent readers),
/// the default memtable index. Keys are immutable after insertion and nodes
/// are never deleted until the whole list (and its arena) is dropped.
///
/// Thread-safety contract: Insert() calls must be externally serialized;
/// readers need no synchronization and may run concurrently with one writer.
template <typename Key, class Comparator>
class SkipList {
 public:
  SkipList(Comparator cmp, Arena* arena);

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  /// Inserts key. Requires: nothing equal to key is currently in the list.
  void Insert(const Key& key);

  bool Contains(const Key& key) const;

  /// Iteration over the list contents; safe under a concurrent writer.
  class Iterator {
   public:
    explicit Iterator(const SkipList* list) : list_(list), node_(nullptr) {}

    bool Valid() const { return node_ != nullptr; }
    const Key& key() const {
      assert(Valid());
      return node_->key;
    }
    void Next() {
      assert(Valid());
      node_ = node_->Next(0);
    }
    void Prev() {
      assert(Valid());
      node_ = list_->FindLessThan(node_->key);
      if (node_ == list_->head_) {
        node_ = nullptr;
      }
    }
    /// Positions at the first key >= `target`. `target` is a Key or any
    /// probe the comparator orders a Key against (`compare_(key, target)`),
    /// so a caller holding another form of the key descends once without
    /// building a Key from it.
    template <typename Probe>
    void Seek(const Probe& target) {
      node_ = list_->FindGreaterOrEqual(target, nullptr);
    }
    void SeekToFirst() { node_ = list_->head_->Next(0); }
    void SeekToLast() {
      node_ = list_->FindLast();
      if (node_ == list_->head_) {
        node_ = nullptr;
      }
    }

   private:
    const SkipList* list_;
    const typename SkipList::Node* node_;
  };

 private:
  static constexpr int kMaxHeight = 12;

  struct Node {
    explicit Node(const Key& k) : key(k) {}

    const Key key;

    Node* Next(int n) const {
      assert(n >= 0);
      return next_[n].load(std::memory_order_acquire);
    }
    void SetNext(int n, Node* x) {
      assert(n >= 0);
      next_[n].store(x, std::memory_order_release);
    }
    Node* NoBarrierNext(int n) const {
      return next_[n].load(std::memory_order_relaxed);
    }
    void NoBarrierSetNext(int n, Node* x) {
      next_[n].store(x, std::memory_order_relaxed);
    }

    // Variable-length: sized at allocation for the node's height.
    std::atomic<Node*> next_[1];
  };

  Node* NewNode(const Key& key, int height);
  int RandomHeight();
  bool Equal(const Key& a, const Key& b) const {
    return compare_(a, b) == 0;
  }
  template <typename Probe>
  bool KeyIsAfterNode(const Probe& key, const Node* n) const {
    return (n != nullptr) && (compare_(n->key, key) < 0);
  }
  template <typename Probe>
  Node* FindGreaterOrEqual(const Probe& key, Node** prev) const;
  Node* FindLessThan(const Key& key) const;
  Node* FindLast() const;

  Comparator const compare_;
  Arena* const arena_;
  Node* const head_;
  std::atomic<int> max_height_;
  Random rnd_;
};

template <typename Key, class Comparator>
typename SkipList<Key, Comparator>::Node*
SkipList<Key, Comparator>::NewNode(const Key& key, int height) {
  char* node_memory = arena_->AllocateAligned(
      sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1));
  return new (node_memory) Node(key);
}

template <typename Key, class Comparator>
int SkipList<Key, Comparator>::RandomHeight() {
  static const unsigned int kBranching = 4;
  int height = 1;
  while (height < kMaxHeight && rnd_.OneIn(kBranching)) {
    ++height;
  }
  assert(height > 0 && height <= kMaxHeight);
  return height;
}

template <typename Key, class Comparator>
template <typename Probe>
typename SkipList<Key, Comparator>::Node*
SkipList<Key, Comparator>::FindGreaterOrEqual(const Probe& key,
                                              Node** prev) const {
  Node* x = head_;
  int level = max_height_.load(std::memory_order_relaxed) - 1;
  while (true) {
    Node* next = x->Next(level);
    if (KeyIsAfterNode(key, next)) {
      x = next;
    } else {
      if (prev != nullptr) {
        prev[level] = x;
      }
      if (level == 0) {
        return next;
      }
      --level;
    }
  }
}

template <typename Key, class Comparator>
typename SkipList<Key, Comparator>::Node*
SkipList<Key, Comparator>::FindLessThan(const Key& key) const {
  Node* x = head_;
  int level = max_height_.load(std::memory_order_relaxed) - 1;
  while (true) {
    Node* next = x->Next(level);
    if (next == nullptr || compare_(next->key, key) >= 0) {
      if (level == 0) {
        return x;
      }
      --level;
    } else {
      x = next;
    }
  }
}

template <typename Key, class Comparator>
typename SkipList<Key, Comparator>::Node*
SkipList<Key, Comparator>::FindLast() const {
  Node* x = head_;
  int level = max_height_.load(std::memory_order_relaxed) - 1;
  while (true) {
    Node* next = x->Next(level);
    if (next == nullptr) {
      if (level == 0) {
        return x;
      }
      --level;
    } else {
      x = next;
    }
  }
}

template <typename Key, class Comparator>
SkipList<Key, Comparator>::SkipList(Comparator cmp, Arena* arena)
    : compare_(cmp),
      arena_(arena),
      head_(NewNode(Key() /* any key will do */, kMaxHeight)),
      max_height_(1),
      rnd_(0xdeadbeef) {
  for (int i = 0; i < kMaxHeight; ++i) {
    head_->SetNext(i, nullptr);
  }
}

template <typename Key, class Comparator>
void SkipList<Key, Comparator>::Insert(const Key& key) {
  Node* prev[kMaxHeight];
  Node* x = FindGreaterOrEqual(key, prev);

  // Duplicate insertion is a caller bug (sequence numbers disambiguate).
  assert(x == nullptr || !Equal(key, x->key));

  int height = RandomHeight();
  if (height > max_height_.load(std::memory_order_relaxed)) {
    for (int i = max_height_.load(std::memory_order_relaxed); i < height;
         ++i) {
      prev[i] = head_;
    }
    // Concurrent readers observing the new height before the splice see
    // nullptr from head_, which is valid.
    max_height_.store(height, std::memory_order_relaxed);
  }

  x = NewNode(key, height);
  for (int i = 0; i < height; ++i) {
    x->NoBarrierSetNext(i, prev[i]->NoBarrierNext(i));
    prev[i]->SetNext(i, x);
  }
}

template <typename Key, class Comparator>
bool SkipList<Key, Comparator>::Contains(const Key& key) const {
  Node* x = FindGreaterOrEqual(key, nullptr);
  return x != nullptr && Equal(key, x->key);
}

}  // namespace lsmlab

#endif  // LSMLAB_MEMTABLE_SKIPLIST_H_
