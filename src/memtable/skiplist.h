#ifndef LSMLAB_MEMTABLE_SKIPLIST_H_
#define LSMLAB_MEMTABLE_SKIPLIST_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "util/arena.h"
#include "util/random.h"

namespace lsmlab {

/// Lock-free-for-readers skip list (single writer, many concurrent readers),
/// the default memtable index. Entries are byte strings the comparator
/// orders; each node holds its entry inline, as RocksDB's InlineSkipList
/// does: one arena allocation carries the node's links, highest level
/// first, and then the entry, so the level-0 link sits right before the
/// entry's first byte and a descent touches one cache line per node. Nodes
/// are never deleted until the whole list (and its arena) is dropped.
///
/// Usage: AllocateEntry(n) returns n bytes for the caller to fill, then
/// Insert(entry) links them in. `Comparator` orders two entries,
/// `compare_(a, b)`, and may also order an entry against another probe
/// type (see Iterator::Seek).
///
/// Thread-safety contract: AllocateEntry() and Insert() calls must be
/// externally serialized; readers need no synchronization and may run
/// concurrently with one writer.
template <class Comparator>
class SkipList {
 private:
  struct Node;

 public:
  SkipList(Comparator cmp, Arena* arena);

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  /// Allocates a node with a random height for an `entry_bytes`-byte entry
  /// and returns the entry's bytes, to fill before Insert.
  char* AllocateEntry(size_t entry_bytes) {
    return AllocateNode(arena_, entry_bytes, RandomHeight(&rnd_))->Entry();
  }
  /// The same, for a caller that draws node heights from its own `rnd`:
  /// the node may then be inserted into any list over `arena`.
  static char* AllocateEntry(Arena* arena, Random* rnd, size_t entry_bytes) {
    return AllocateNode(arena, entry_bytes, RandomHeight(rnd))->Entry();
  }

  /// Links in an entry returned by AllocateEntry and filled since.
  /// Requires: nothing equal to it is currently in the list.
  void Insert(const char* entry);

  bool Contains(const char* entry) const;

  /// Iteration over the list contents; safe under a concurrent writer.
  class Iterator {
   public:
    explicit Iterator(const SkipList* list) : list_(list), node_(nullptr) {}

    bool Valid() const { return node_ != nullptr; }
    const char* key() const {
      assert(Valid());
      return node_->Entry();
    }
    void Next() {
      assert(Valid());
      node_ = node_->Next(0);
    }
    void Prev() {
      assert(Valid());
      node_ = list_->FindLessThan(node_->Entry());
      if (node_ == list_->head_) {
        node_ = nullptr;
      }
    }
    /// Positions at the first entry >= `target`. `target` is an entry or
    /// any probe the comparator orders an entry against
    /// (`compare_(entry, target)`), so a caller holding another form of the
    /// key descends once without building an entry from it.
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
    const Node* node_;
  };

 private:
  static constexpr int kMaxHeight = 12;

  /// A node's address is its level-0 link. Level n's link is n slots
  /// before it, and the entry starts right after it.
  struct Node {
    const char* Entry() const { return reinterpret_cast<const char*>(this + 1); }
    char* Entry() { return reinterpret_cast<char*>(this + 1); }

    Node* Next(int n) const {
      assert(n >= 0);
      return Link(n)->load(std::memory_order_acquire);
    }
    void SetNext(int n, Node* x) {
      assert(n >= 0);
      Link(n)->store(x, std::memory_order_release);
    }
    Node* NoBarrierNext(int n) const {
      return Link(n)->load(std::memory_order_relaxed);
    }
    void NoBarrierSetNext(int n, Node* x) {
      Link(n)->store(x, std::memory_order_relaxed);
    }

    /// Until Insert links the node, its level-0 link holds its height.
    void StashHeight(int height) {
      next0_.store(reinterpret_cast<Node*>(static_cast<uintptr_t>(height)),
                   std::memory_order_relaxed);
    }
    int UnstashHeight() const {
      return static_cast<int>(reinterpret_cast<uintptr_t>(
          next0_.load(std::memory_order_relaxed)));
    }

   private:
    std::atomic<Node*>* Link(int n) const {
      return const_cast<std::atomic<Node*>*>(&next0_) - n;
    }

    std::atomic<Node*> next0_;
  };
  static_assert(sizeof(Node) == sizeof(std::atomic<Node*>));

  static Node* AllocateNode(Arena* arena, size_t entry_bytes, int height);
  static int RandomHeight(Random* rnd);
  template <typename Probe>
  bool KeyIsAfterNode(const Probe& key, const Node* n) const {
    return (n != nullptr) && (compare_(n->Entry(), key) < 0);
  }
  template <typename Probe>
  Node* FindGreaterOrEqual(const Probe& key, Node** prev) const;
  Node* FindLessThan(const char* entry) const;
  Node* FindLast() const;

  Comparator const compare_;
  Arena* const arena_;
  Node* const head_;
  std::atomic<int> max_height_;
  Random rnd_;
};

template <class Comparator>
typename SkipList<Comparator>::Node* SkipList<Comparator>::AllocateNode(
    Arena* arena, size_t entry_bytes, int height) {
  const size_t links_before = sizeof(std::atomic<Node*>) * (height - 1);
  char* raw =
      arena->AllocateAligned(links_before + sizeof(Node) + entry_bytes);
  auto* links = reinterpret_cast<std::atomic<Node*>*>(raw);
  for (int i = 0; i < height; ++i) {
    new (&links[i]) std::atomic<Node*>(nullptr);
  }
  Node* node = reinterpret_cast<Node*>(raw + links_before);
  node->StashHeight(height);
  return node;
}

template <class Comparator>
int SkipList<Comparator>::RandomHeight(Random* rnd) {
  static const unsigned int kBranching = 4;
  int height = 1;
  while (height < kMaxHeight && rnd->OneIn(kBranching)) {
    ++height;
  }
  assert(height > 0 && height <= kMaxHeight);
  return height;
}

template <class Comparator>
template <typename Probe>
typename SkipList<Comparator>::Node*
SkipList<Comparator>::FindGreaterOrEqual(const Probe& key, Node** prev) const {
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

template <class Comparator>
typename SkipList<Comparator>::Node* SkipList<Comparator>::FindLessThan(
    const char* entry) const {
  Node* x = head_;
  int level = max_height_.load(std::memory_order_relaxed) - 1;
  while (true) {
    Node* next = x->Next(level);
    if (next == nullptr || compare_(next->Entry(), entry) >= 0) {
      if (level == 0) {
        return x;
      }
      --level;
    } else {
      x = next;
    }
  }
}

template <class Comparator>
typename SkipList<Comparator>::Node* SkipList<Comparator>::FindLast() const {
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

template <class Comparator>
SkipList<Comparator>::SkipList(Comparator cmp, Arena* arena)
    : compare_(cmp),
      arena_(arena),
      head_(AllocateNode(arena, 0, kMaxHeight)),
      max_height_(1),
      rnd_(0xdeadbeef) {
  for (int i = 0; i < kMaxHeight; ++i) {
    head_->SetNext(i, nullptr);
  }
}

template <class Comparator>
void SkipList<Comparator>::Insert(const char* entry) {
  Node* x = reinterpret_cast<Node*>(const_cast<char*>(entry)) - 1;
  const int height = x->UnstashHeight();
  assert(height > 0 && height <= kMaxHeight);

  Node* prev[kMaxHeight];
  [[maybe_unused]] Node* next = FindGreaterOrEqual(entry, prev);
  // Duplicate insertion is a caller bug (sequence numbers disambiguate).
  assert(next == nullptr || compare_(entry, next->Entry()) != 0);

  if (height > max_height_.load(std::memory_order_relaxed)) {
    for (int i = max_height_.load(std::memory_order_relaxed); i < height;
         ++i) {
      prev[i] = head_;
    }
    // Concurrent readers observing the new height before the splice see
    // nullptr from head_, which is valid.
    max_height_.store(height, std::memory_order_relaxed);
  }

  for (int i = 0; i < height; ++i) {
    x->NoBarrierSetNext(i, prev[i]->NoBarrierNext(i));
    prev[i]->SetNext(i, x);
  }
}

template <class Comparator>
bool SkipList<Comparator>::Contains(const char* entry) const {
  Node* x = FindGreaterOrEqual(entry, nullptr);
  return x != nullptr && compare_(entry, x->Entry()) == 0;
}

}  // namespace lsmlab

#endif  // LSMLAB_MEMTABLE_SKIPLIST_H_
