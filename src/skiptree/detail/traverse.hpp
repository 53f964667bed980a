// Wait-free descents (paper Fig. 4).
//
// Every read-only query shares one traversal shape: descend from the root,
// binary-searching each payload snapshot and either following a child
// reference or recovering rightward over a link, until a leaf snapshot whose
// interval covers the probe key is in hand.  `descend_to_leaf` factors that
// shape once; `contains`, `lower_bound` and `get` differ only in what they
// conclude from the final (payload, index) pair.
//
// Wait-freedom: a single pass, no CAS, no helping.  Each step either moves
// one level down or one node right; rightward moves are bounded because the
// probe key is finite and every level ends in +inf (D1).
#pragma once

#include <atomic>
#include <cstdint>

#include "skiptree/detail/core.hpp"

namespace lfst::skiptree::detail {

template <typename Core>
struct traverse_ops {
  using T = typename Core::key_type;
  using contents_t = typename Core::contents_t;
  using node_t = typename Core::node_t;
  using head_t = typename Core::head_t;

  /// Root-to-leaf descent; returns the first leaf payload visited along
  /// `v`'s search path and leaves `v`'s encoded index in `i`.  The leaf may
  /// still sit left of `v`'s node (callers keep walking links while
  /// `is_past_end` holds).
  ///
  /// `g` is the operation's reclamation guard; each level step is a
  /// cooperative-eviction safe point.  When check() reports an eviction the
  /// pin was republished and every pointer in hand is stale, so the descent
  /// restarts from the root.  Guards that never evict (leaky, an unflagged
  /// EBR slot) make this a single predictable-false branch per step.
  template <typename Guard>
  static const contents_t* descend_to_leaf(const Core& core, const T& v,
                                           int& i, Guard& g) {
  restart:
    const head_t* head = core.root.load(std::memory_order_acquire);
    const node_t* nd = head->node;
    const contents_t* cts = Core::load_payload(nd);
    i = core.search_keys(*cts, v);
    LFST_TALLY(lfst_depth);
    while (!cts->leaf) {
      LFST_FP_POINT("skiptree.traverse.step");
      if (g.check()) goto restart;  // evicted: all pointers above are stale
      nd = Core::is_past_end(i, *cts) ? cts->link
                                      : cts->children()[Core::descend_index(i)];
      cts = Core::load_payload(nd);
      Core::prefetch_payload(cts);
      i = core.search_keys(*cts, v);
      LFST_TALLY_INC(lfst_depth);
      LFST_STEP();
    }
    LFST_VALUE(skiptree_traversal_depth, lfst_depth);
    return cts;
  }

  /// Wait-free membership test: one root-to-leaf pass; each node is read at
  /// most once per visit and no conditional atomics are performed.  (An
  /// eviction restart re-runs the pass; wait-freedom is conditional on the
  /// watchdog not flagging this reader, which only happens when the reader
  /// is already stalled beyond the configured age.)
  template <typename Guard>
  static bool contains(const Core& core, const T& v, Guard& g) {
    int i;
    const contents_t* cts = descend_to_leaf(core, v, i, g);
    for (;;) {
      if (!Core::is_past_end(i, *cts)) {
        // Linearization point: the acquire load of this leaf payload.
        return i >= 0;
      }
      if (g.check()) {
        cts = descend_to_leaf(core, v, i, g);
        continue;
      }
      cts = Core::load_payload(cts->link);
      i = core.search_keys(*cts, v);
    }
  }

  /// Smallest member >= v (the set-theoretic ceiling).  Returns false if
  /// every member is < v.
  template <typename Guard>
  static bool lower_bound(const Core& core, const T& v, T& out, Guard& g) {
    int i;
    const contents_t* cts = descend_to_leaf(core, v, i, g);
    for (;;) {
      if (!Core::is_past_end(i, *cts)) {
        const std::uint32_t pos = Core::descend_index(i);
        if (pos < cts->nkeys) {
          out = cts->keys()[pos];
          return true;
        }
        return false;  // v's ceiling is the +inf terminator: no member >= v
      }
      if (g.check()) {
        cts = descend_to_leaf(core, v, i, g);
        continue;
      }
      cts = Core::load_payload(cts->link);
      i = core.search_keys(*cts, v);
    }
  }

  /// Copy out the stored element order-equivalent to `probe`.  With a
  /// comparator that inspects only part of the element (as the map layer
  /// does), this retrieves the full stored entry.
  template <typename Guard>
  static bool get(const Core& core, const T& probe, T& out, Guard& g) {
    int i;
    const contents_t* cts = descend_to_leaf(core, probe, i, g);
    for (;;) {
      if (!Core::is_past_end(i, *cts)) {
        if (i < 0) return false;
        out = cts->keys()[static_cast<std::uint32_t>(i)];
        return true;
      }
      if (g.check()) {
        cts = descend_to_leaf(core, probe, i, g);
        continue;
      }
      cts = Core::load_payload(cts->link);
      i = core.search_keys(*cts, probe);
    }
  }
};

}  // namespace lfst::skiptree::detail
