// Ordered concurrent map on the lock-free skip-tree.
//
// The paper defines the skip-tree as an ordered SET; the map is the natural
// extension downstream users reach for first.  Entries are (key, value)
// pairs stored in the set with a key-only comparator, so every structural
// guarantee of the skip-tree (lock-free insert/erase, wait-free lookup,
// ordered weakly-consistent iteration) carries over verbatim; value
// assignment uses the tree's `replace` primitive (one leaf-payload CAS).
//
// Requirements on K and V: copyable and default-constructible (the tree
// materializes probe entries and default placeholders internally).
#pragma once

#include <functional>
#include <utility>

#include "skiptree/skip_tree.hpp"

namespace lfst::skiptree {

template <typename K, typename V, typename Compare = std::less<K>,
          typename Reclaim = reclaim::ebr_policy,
          typename Alloc = lfst::alloc::pool_policy>
class skip_tree_map {
 public:
  using key_type = K;
  using mapped_type = V;

  /// The stored element: ordering inspects only the key.
  struct entry {
    K key{};
    V value{};
  };

  struct entry_compare {
    [[no_unique_address]] Compare cmp{};
    bool operator()(const entry& a, const entry& b) const {
      return cmp(a.key, b.key);
    }
  };

  using tree_t = skip_tree<entry, entry_compare, Reclaim, Alloc>;
  using domain_t = typename Reclaim::domain_type;

  skip_tree_map() : skip_tree_map(skip_tree_options{}) {}

  explicit skip_tree_map(skip_tree_options opts,
                         domain_t& domain = Reclaim::default_domain())
      : tree_(opts, domain) {}

  /// Insert (k, v) if `k` is absent.  Returns false (and leaves the mapping
  /// untouched) when the key already exists.
  bool insert(const K& k, const V& v) { return tree_.add(entry{k, v}); }

  /// Insert or overwrite.  Returns true if a new mapping was created,
  /// false if an existing value was replaced.  Lock-free: retries around
  /// the insert/assign race if the key blinks in and out concurrently.
  bool insert_or_assign(const K& k, const V& v) {
    const entry e{k, v};
    for (;;) {
      if (tree_.add(e)) return true;
      if (tree_.replace(e)) return false;
      // The key was removed between the failed add and the failed replace;
      // try inserting again.
    }
  }

  /// Overwrite the value of an existing key; false if absent.
  bool assign(const K& k, const V& v) { return tree_.replace(entry{k, v}); }

  /// Wait-free lookup.
  bool get(const K& k, V& out) const {
    entry e;
    if (!tree_.get(entry{k, V{}}, e)) return false;
    out = e.value;
    return true;
  }

  bool contains(const K& k) const { return tree_.contains(entry{k, V{}}); }

  bool erase(const K& k) { return tree_.remove(entry{k, V{}}); }

  std::size_t size() const noexcept { return tree_.size(); }
  bool empty() const noexcept { return tree_.empty(); }

  /// Ascending, weakly-consistent iteration over (key, value) pairs.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    tree_.for_each([&](const entry& e) { fn(e.key, e.value); });
  }

  /// Visit entries with keys in [lo, hi), ascending.
  template <typename Fn>
  bool for_range(const K& lo, const K& hi, Fn&& fn) const {
    return tree_.for_range(entry{lo, V{}}, entry{hi, V{}},
                           [&](const entry& e) { return fn(e.key, e.value); });
  }

  /// Smallest key >= k, with its value.
  bool lower_bound(const K& k, K& out_key, V& out_value) const {
    entry e;
    if (!tree_.lower_bound(entry{k, V{}}, e)) return false;
    out_key = e.key;
    out_value = e.value;
    return true;
  }

  /// The underlying set of entries (diagnostics / validation).
  const tree_t& underlying() const noexcept { return tree_; }

 private:
  tree_t tree_;
};

}  // namespace lfst::skiptree
