// The lock-free skip-tree of Spiegel & Reynolds (ICPP 2010).
//
// A skip-tree is a randomized multiway search tree: stacked linked lists
// (like a skip-list) whose nodes hold many elements each (like a B-tree).
// Membership is defined solely by the leaf level; routing levels are hints.
//
// This header is the public facade; the algorithm lives in layered modules
// under detail/ that map one-to-one onto the paper's figures:
//
//  * contains  (Fig. 4)  detail/traverse.hpp  -- wait-free descents.
//  * add       (Fig. 5)  detail/insert.hpp    -- insert, split, root growth.
//  * remove    (Fig. 6)  detail/compact.hpp   -- removal + the four online
//                                               compaction transforms (Fig. 8).
//  * from_sorted         detail/bulk_load.hpp -- optimal bottom-up build.
//  * iteration           detail/iterate.hpp   -- leaf-level streaming.
//  * shared state        detail/core.hpp      -- members, lifecycle,
//                                               primitives.
//
// Memory reclamation: every mutation replaces an immutable payload via CAS;
// the replaced payload is retired through the `Reclaim` policy (EBR by
// default), standing in for the paper's JVM garbage collector.  Memory
// allocation is a second policy, `Alloc` (alloc/pool.hpp): payload blocks
// and node headers come from it, and the reclamation deleters return freed
// payloads to it after the grace period -- the pooled default turns the
// mutation hot path's malloc/free pair into a thread-local free-list hit.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>

#include "alloc/pool.hpp"
#include "common/telemetry.hpp"
#include "reclaim/ebr.hpp"
#include "skiptree/contents.hpp"
#include "skiptree/detail/bulk_load.hpp"
#include "skiptree/detail/compact.hpp"
#include "skiptree/detail/core.hpp"
#include "skiptree/detail/insert.hpp"
#include "skiptree/detail/iterate.hpp"
#include "skiptree/detail/traverse.hpp"

namespace lfst::skiptree {

template <typename T, typename Compare = std::less<T>,
          typename Reclaim = reclaim::ebr_policy,
          typename Alloc = lfst::alloc::pool_policy>
class skip_tree {
 public:
  using key_type = T;
  using contents_t = contents<T>;
  using node_t = tree_node<T>;
  using head_t = head_node<T>;
  using domain_t = typename Reclaim::domain_type;
  using guard_t = typename Reclaim::guard_type;
  using reclaim_t = Reclaim;
  using alloc_t = Alloc;

  skip_tree() : skip_tree(skip_tree_options{}) {}

  explicit skip_tree(skip_tree_options opts,
                     domain_t& domain = Reclaim::default_domain(),
                     Compare cmp = Compare{})
      : core_(opts, domain, cmp) {}

  skip_tree(const skip_tree&) = delete;
  skip_tree& operator=(const skip_tree&) = delete;
  skip_tree(skip_tree&&) noexcept = default;
  ~skip_tree() = default;

  /// Bulk-load an OPTIMAL tree from sorted, duplicate-free keys (see
  /// detail/bulk_load.hpp).  Single-threaded construction, concurrent use
  /// afterwards.
  static skip_tree from_sorted(std::span<const T> sorted_keys,
                               skip_tree_options opts = skip_tree_options{},
                               domain_t& domain = Reclaim::default_domain()) {
    skip_tree tree(opts, domain);
    detail::bulk_load_ops<core_t>::build(tree.core_, sorted_keys);
    return tree;
  }

  // --- core operations (paper Figs. 4-6) -------------------------------------

  /// Wait-free membership test.
  bool contains(const T& v) const {
    LFST_SPAN(skiptree_contains);
    guard_t g(core_.domain);
    return detail::traverse_ops<core_t>::contains(core_, v, g);
  }

  /// Lock-free insertion.  Returns false iff `v` was already present.
  bool add(const T& v) { return add_with_height(v, core_.random_level()); }

  /// Insertion with an explicit element height -- the deterministic hook the
  /// structural tests use; `add` draws the height from the geometric
  /// distribution Pr(H = h) = q^h (1 - q).
  bool add_with_height(const T& v, int height) {
    LFST_SPAN(skiptree_add);
    guard_t g(core_.domain);
    return detail::insert_ops<core_t>::add(core_, v, height);
  }

  /// Lock-free removal with piggybacked node compaction.  Returns false iff
  /// `v` was absent.
  bool remove(const T& v) {
    LFST_SPAN(skiptree_remove);
    guard_t g(core_.domain);
    return detail::compact_ops<core_t>::remove(core_, v);
  }

  // --- observers -------------------------------------------------------------

  /// Relaxed element count (exact when quiescent).
  std::size_t size() const noexcept {
    const auto n = core_.size.load(std::memory_order_relaxed);
    return n < 0 ? 0 : static_cast<std::size_t>(n);
  }

  bool empty() const noexcept { return size() == 0; }

  /// Current height of the root level (levels are 0-based, so a fresh tree
  /// reports 0).
  int height() const noexcept {
    return core_.root.load(std::memory_order_acquire)->height;
  }

  /// Weakly-consistent ascending iteration over the leaf level.  Keys
  /// inserted or removed concurrently may or may not be observed; keys are
  /// visited at most once and in increasing order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each_while([&](const T& k) {
      fn(k);
      return true;
    });
  }

  /// As `for_each`, but stops early when `fn` returns false.
  template <typename Fn>
  bool for_each_while(Fn&& fn) const {
    guard_t g(core_.domain);
    return detail::iterate_ops<core_t>::for_each_while(core_,
                                                       std::forward<Fn>(fn));
  }

  /// Exact O(n) key count by leaf traversal (test/diagnostic hook).
  std::size_t count_keys() const {
    std::size_t n = 0;
    for_each([&](const T&) { ++n; });
    return n;
  }

  /// Scoped STL-style iteration.  The scope pins the reclamation epoch once
  /// for its lifetime; iterators inside it are forward iterators over the
  /// leaf level with the same weak-consistency contract as for_each.
  ///
  ///   skip_tree<int>::iteration_scope scope(tree);
  ///   for (int k : scope) use(k);
  ///
  /// Keep scopes short-lived: a pinned epoch delays reclamation globally.
  class iteration_scope {
   public:
    using iterator = detail::leaf_iterator<T, Compare>;

    explicit iteration_scope(const skip_tree& tree)
        : guard_(std::make_unique<guard_t>(tree.core_.domain)), tree_(tree) {}

    iterator begin() const {
      return iterator(tree_.core_.cmp, tree_.core_.leftmost_leaf_payload());
    }
    iterator end() const { return iterator(); }

   private:
    std::unique_ptr<guard_t> guard_;  // guards are neither copyable nor movable
    const skip_tree& tree_;
  };

  // --- ordered queries -------------------------------------------------------
  //
  // The multiway structure makes order queries natural: a wait-free descent
  // lands on the unique leaf pair A < v <= B (property D3), so the ceiling
  // of v is at hand; ranges then stream along the leaf level.

  /// Smallest member >= v (the set-theoretic ceiling).  Wait-free, same
  /// traversal as contains().  Returns false if every member is < v.
  bool lower_bound(const T& v, T& out) const {
    guard_t g(core_.domain);
    return detail::traverse_ops<core_t>::lower_bound(core_, v, out, g);
  }

  /// Wait-free: copy out the stored element order-equivalent to `probe`.
  bool get(const T& probe, T& out) const {
    guard_t g(core_.domain);
    return detail::traverse_ops<core_t>::get(core_, probe, out, g);
  }

  /// Lock-free: overwrite the stored element order-equivalent to `v` with
  /// `v` itself (same position, new payload -- the primitive behind the map
  /// layer's assign).  Returns false iff no equivalent element is present.
  bool replace(const T& v) {
    guard_t g(core_.domain);
    return detail::insert_ops<core_t>::replace(core_, v);
  }

  /// Smallest member of the set; false when empty.
  bool first(T& out) const {
    bool found = false;
    for_each_while([&](const T& k) {
      out = k;
      found = true;
      return false;
    });
    return found;
  }

  /// Visit every member in [lo, hi) in ascending order, weakly
  /// consistently.  Stops early if `fn` returns false; returns true iff the
  /// range was exhausted.
  template <typename Fn>
  bool for_range(const T& lo, const T& hi, Fn&& fn) const {
    guard_t g(core_.domain);
    return detail::iterate_ops<core_t>::for_range(core_, lo, hi,
                                                  std::forward<Fn>(fn));
  }

  const skip_tree_options& options() const noexcept { return core_.opts; }
  domain_t& domain() noexcept { return core_.domain; }

  /// Structural event counters (diagnostics; relaxed, updated off the fast
  /// path only).  Compatibility shim over the tree's `tree_counter` array
  /// (detail/core.hpp) -- the snapshot is generated from the telemetry header's
  /// `instance_counters`, one field per `tree_counter` in enum order.
  struct structural_stats {
    std::uint64_t cas_failures = 0;  ///< lost CAS races (contention probe)
    std::uint64_t splits = 0;
    std::uint64_t root_raises = 0;
    std::uint64_t empty_bypasses = 0;
    std::uint64_t ref_repairs = 0;
    std::uint64_t duplicate_drops = 0;
    std::uint64_t migrations = 0;
    std::uint64_t alloc_failures = 0;      ///< bad_alloc seen by a mutation
    std::uint64_t compactions_skipped = 0; ///< repairs abandoned under OOM
    // Reclamation footprint of the tree's domain (shared across structures
    // on the same domain; zero under reclamation policies whose domains do
    // not track limbo, e.g. leaky).
    std::uint64_t limbo_blocks = 0;     ///< blocks awaiting their grace period
    std::uint64_t limbo_bytes = 0;      ///< exact bytes awaiting reclamation
    std::uint64_t limbo_bytes_hwm = 0;  ///< peak of limbo_bytes over the run
  };

  /// CAS-contention heatmap (skiptree/heatmap.hpp): every lost payload CAS
  /// since construction, attributed to (level, node-address-hash bucket).
  /// Always on; its total() equals stats().cas_failures exactly when read
  /// quiescently.
  heatmap_snapshot contention_heatmap() const noexcept {
    return core_.heat.snapshot();
  }

  structural_stats stats() const noexcept {
    const auto c = core_.counters.snapshot();
    static_assert(c.size() == 9,
                  "structural_stats must mirror tree_counter exactly");
    structural_stats out{
        c[static_cast<std::size_t>(tree_counter::cas_failures)],
        c[static_cast<std::size_t>(tree_counter::splits)],
        c[static_cast<std::size_t>(tree_counter::root_raises)],
        c[static_cast<std::size_t>(tree_counter::empty_bypasses)],
        c[static_cast<std::size_t>(tree_counter::ref_repairs)],
        c[static_cast<std::size_t>(tree_counter::duplicate_drops)],
        c[static_cast<std::size_t>(tree_counter::migrations)],
        c[static_cast<std::size_t>(tree_counter::alloc_failures)],
        c[static_cast<std::size_t>(tree_counter::compactions_skipped)]};
    if constexpr (requires { core_.domain.stats(); }) {
      const auto d = core_.domain.stats();
      out.limbo_blocks = d.limbo_blocks;
      out.limbo_bytes = d.limbo_bytes;
      out.limbo_bytes_hwm = d.limbo_bytes_hwm;
    }
    return out;
  }

 private:
  template <typename, typename, typename, typename>
  friend class skip_tree_inspector;
  template <typename, typename, typename, typename>
  friend class skip_tree_health;

  using core_t = detail::tree_core<T, Compare, Reclaim, Alloc>;

  core_t core_;
};

}  // namespace lfst::skiptree
