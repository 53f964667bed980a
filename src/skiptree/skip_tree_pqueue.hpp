// Concurrent priority queue on the lock-free skip-tree.
//
// An ordered set with lock-free removal supports the classic
// skip-list-as-priority-queue construction (Sundell & Tsigas; Shavit &
// Lotan): pop-min scans from the smallest element and races a remove() --
// whoever wins the leaf CAS owns the element.  The skip-tree variant
// additionally enjoys the cache-packed leaf level: the min element and its
// successors share a node, so contended pop-min hits one cache line
// instead of one per attempt.
//
// Semantics: a multiset is NOT provided -- priorities are unique, matching
// the underlying set.  `push` returns false on duplicates; callers needing
// duplicate priorities compose a tiebreaker into the key (see the test for
// the standard (priority, sequence) trick).
#pragma once

#include <functional>

#include "skiptree/skip_tree.hpp"

namespace lfst::skiptree {

template <typename T, typename Compare = std::less<T>,
          typename Reclaim = reclaim::ebr_policy,
          typename Alloc = lfst::alloc::pool_policy>
class skip_tree_pqueue {
 public:
  using value_type = T;
  using tree_t = skip_tree<T, Compare, Reclaim, Alloc>;
  using domain_t = typename Reclaim::domain_type;

  skip_tree_pqueue() : skip_tree_pqueue(skip_tree_options{}) {}

  explicit skip_tree_pqueue(skip_tree_options opts,
                            domain_t& domain = Reclaim::default_domain())
      : tree_(opts, domain) {}

  /// Lock-free insert; false iff an equal element is already queued.
  bool push(const T& v) { return tree_.add(v); }

  /// Lock-free pop of the minimum element.  Returns false only when the
  /// queue is observed empty.  Linearizes at the remove()'s leaf CAS: of
  /// all concurrent poppers chasing the same minimum, exactly one wins and
  /// the rest move on to the next element.
  bool try_pop_min(T& out) {
    for (;;) {
      if (!tree_.first(out)) return false;
      if (tree_.remove(out)) return true;
      // Lost the race for this element; re-read the (new) minimum.
    }
  }

  /// Non-destructive minimum.
  bool peek_min(T& out) const { return tree_.first(out); }

  bool empty() const noexcept { return tree_.empty(); }
  std::size_t size() const noexcept { return tree_.size(); }

  const tree_t& underlying() const noexcept { return tree_; }

 private:
  tree_t tree_;
};

}  // namespace lfst::skiptree
