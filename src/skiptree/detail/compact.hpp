// Lock-free removal with online node compaction (paper Fig. 6 / Fig. 8).
//
// remove() performs one cleanup traversal that compacts nodes on the way
// down, then CASes the key out of its leaf.  The relaxations of Sec. III
// allow mutations to leave empty nodes and suboptimal child references
// behind; the reachability properties (D1)-(D5) are preserved at every
// step, and the four compaction transformations restore optimal paths
// lazily:
//
//    8a  empty-node elimination        (clean_link / clean_node)
//    8b  suboptimal-reference repair   (clean_node)
//    8c  duplicate-child elimination   (clean_node)
//    8d  element migration             (clean_node -> migrate_element)
//
// All repairs are best-effort single CAS attempts: a failure means another
// thread changed the node, whose own compaction pass will see the fresh
// state.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "common/backoff.hpp"
#include "skiptree/detail/core.hpp"

namespace lfst::skiptree::detail {

template <typename Core>
struct compact_ops {
  using T = typename Core::key_type;
  using Alloc = typename Core::alloc_t;
  using contents_t = typename Core::contents_t;
  using node_t = typename Core::node_t;
  using head_t = typename Core::head_t;
  using search = typename Core::search;

  /// The remove() driver.  Returns false iff `v` was absent.  OOM contract:
  /// compaction failures along the way are skipped (compaction is optional
  /// optimality repair); only the leaf-erase allocation itself can make the
  /// call fail, and then the set is unchanged (strong guarantee).
  static bool remove(Core& core, const T& v) {
    search s = traverse_and_cleanup(core, v);
    backoff bo;
    LFST_TALLY(lfst_retries);
    for (;;) {
      if (s.index < 0) {
        LFST_VALUE(skiptree_cas_retries_per_op, lfst_retries);
        return false;  // linearized at the leaf payload read
      }
      contents_t* repl;
      try {
        repl = contents_t::template copy_leaf_erase<Alloc>(
            *s.cts, static_cast<std::uint32_t>(s.index));
      } catch (const std::bad_alloc&) {
        core.bump(tree_counter::alloc_failures);
        throw;
      }
      if (core.cas_payload(s.node, s.cts, repl)) {
        // Linearization point of a successful remove.
        core.retire(s.cts);
        core.size.fetch_sub(1, std::memory_order_relaxed);
        LFST_VALUE(skiptree_cas_retries_per_op, lfst_retries);
        return true;
      }
      Core::destroy(repl);
      core.bump_cas_failure(s.node, /*level=*/0);
      LFST_TALLY_INC(lfst_retries);
      bo();
      s = core.move_forward(s.node, v);
    }
  }

  /// Root-to-leaf traversal that performs node compaction along the way and
  /// returns the leaf-level position of `v`.
  static search traverse_and_cleanup(Core& core, const T& v) {
    const head_t* head = core.root.load(std::memory_order_acquire);
    node_t* nd = head->node;
    contents_t* cts = Core::load_payload(nd);
    int i = core.search_keys(*cts, v);
    bool have_max = false;
    T pred_max{};  // max element of the node a link was crossed from
    while (!cts->leaf) {
      if (Core::is_past_end(i, *cts)) {
        if (cts->nkeys > 0) {
          pred_max = cts->max_key();
          have_max = true;
        }
        nd = clean_link(core, nd, cts);
      } else {
        const std::uint32_t idx = Core::descend_index(i);
        if (core.opts.compaction) {
          clean_node(core, nd, cts, idx, have_max ? &pred_max : nullptr);
        }
        nd = cts->children()[idx];
        have_max = false;
      }
      cts = Core::load_payload(nd);
      Core::prefetch_payload(cts);
      i = core.search_keys(*cts, v);
    }
    for (;;) {
      if (!Core::is_past_end(i, *cts)) return search{nd, cts, i};
      nd = clean_link(core, nd, cts);
      cts = Core::load_payload(nd);
      i = core.search_keys(*cts, v);
    }
  }

  /// Empty-node elimination across a link (Fig. 8a): swing `nd`'s link past
  /// empty successors, then return the first non-empty successor.  Readers
  /// (contains) never call this; they step through empty nodes wait-free.
  static node_t* clean_link(Core& core, node_t* nd, contents_t* cts) {
    for (;;) {
      node_t* next = cts->link;
      assert(next != nullptr);
      contents_t* ncts = Core::load_payload(next);
      if (!ncts->empty()) return next;
      contents_t* repl;
      try {
        repl = contents_t::template copy_with_link<Alloc>(*cts, ncts->link);
      } catch (const std::bad_alloc&) {
        // Can't afford the repair: step over empty nodes the wait-free way
        // (exactly what readers do) and leave the bypass to a later pass.
        core.bump(tree_counter::compactions_skipped);
        for (;;) {
          if (!ncts->empty()) return next;
          next = ncts->link;
          assert(next != nullptr);
          ncts = Core::load_payload(next);
        }
      }
      LFST_FP_POINT("skiptree.compact.8a");
      if (core.cas_payload(nd, cts, repl)) {
        core.retire(cts);
        core.bump(tree_counter::empty_bypasses);
        cts = repl;
      } else {
        // cts reloaded; nd changed under us.  Moving right remains safe
        // (D5), so just continue from the fresh payload.
        Core::destroy(repl);
      }
    }
  }

  /// Node compaction at a routing node during descent (Fig. 8).  `idx` is
  /// the child slot the traversal is about to follow; `pred_max` is the
  /// greatest element of the node a link was just crossed from, if any
  /// (needed to judge the first slot's optimality).
  static void clean_node(Core& core, node_t* nd, contents_t* cts,
                         std::uint32_t idx, const T* pred_max) {
    node_t* child = cts->children()[idx];
    contents_t* ccts = Core::load_payload(child);

    // (8a) child is empty: bypass it.  (8b) the child's maximum falls left
    // of the slot's lower bound A: the reference is suboptimal; its
    // successor covers the interval.
    bool bypass = false;
    if (ccts->empty()) {
      bypass = true;
    } else if (!ccts->inf && ccts->nkeys > 0) {
      const T* lower_bound_elem =
          idx > 0 ? &cts->keys()[idx - 1] : pred_max;
      if (lower_bound_elem != nullptr &&
          core.cmp(ccts->max_key(), *lower_bound_elem)) {
        bypass = true;
      }
    }
    if (bypass) {
      assert(ccts->link != nullptr);
      contents_t* repl;
      try {
        repl =
            contents_t::template copy_with_child<Alloc>(*cts, idx, ccts->link);
      } catch (const std::bad_alloc&) {
        core.bump(tree_counter::compactions_skipped);
        return;  // repair is optional; the descent recovers over links
      }
      LFST_FP_POINT("skiptree.compact.8b");
      if (core.cas_payload(nd, cts, repl)) {
        core.retire(cts);
        if (ccts->empty()) {
          core.bump(tree_counter::empty_bypasses, idx);
        } else {
          core.bump(tree_counter::ref_repairs, idx);
        }
      } else {
        Core::destroy(repl);
      }
      return;
    }

    // (8c) duplicate-child elimination: adjacent equal references merge by
    // dropping the element between them.  Forbidden on the first pair of a
    // node (j == 0): a duplicate at the front is the signature of an
    // in-flight element migration, and eliminating it races with
    // suboptimal-reference repair through a stale pred_max (Sec. III-D).
    const std::uint32_t len = cts->logical_len();
    for (std::uint32_t j = 1; j + 1 < len && j < cts->nkeys; ++j) {
      if (cts->children()[j] == cts->children()[j + 1]) {
        contents_t* repl;
        try {
          repl = contents_t::template copy_drop_key_child<Alloc>(*cts, j);
        } catch (const std::bad_alloc&) {
          core.bump(tree_counter::compactions_skipped);
          return;
        }
        LFST_FP_POINT("skiptree.compact.8c");
        if (core.cas_payload(nd, cts, repl)) {
          core.retire(cts);
          core.bump(tree_counter::duplicate_drops, j);
        } else {
          Core::destroy(repl);
        }
        return;
      }
    }

    // (8d) element migration: a routing child with a single element (or a
    // two-element child whose references coincide, which 8c cannot touch)
    // moves its rightmost element to its successor and empties out.
    if (!ccts->leaf && ccts->link != nullptr && !ccts->inf) {
      if (ccts->logical_len() == 1) {
        migrate_element(core, child, ccts, 0);
      } else if (ccts->logical_len() == 2 && ccts->nkeys == 2 &&
                 ccts->children()[0] == ccts->children()[1]) {
        migrate_element(core, child, ccts, 1);
      }
    }
  }

  /// Move (key[j], child[j]) of routing node `src` to the front of its
  /// successor, then erase it from `src` (Fig. 8d).  The element exists in
  /// both nodes between the two CASes; routing levels tolerate duplicates
  /// (Theorem 1), so every intermediate state is consistent.  Both CASes
  /// are best-effort: if the copy lands but the erase loses its race, the
  /// stranded duplicate is compacted by a later pass.
  static void migrate_element(Core& core, node_t* src, contents_t* scts,
                              std::uint32_t j) {
    node_t* succ = scts->link;
    contents_t* succ_cts = Core::load_payload(succ);
    if (succ_cts->leaf || succ_cts->empty()) return;  // never grow an empty node
    const T key = scts->keys()[j];
    // Level order guarantees key <= min(successor); re-check against the
    // snapshot so a racing restructure cannot break sortedness.
    if (succ_cts->nkeys > 0 && core.cmp(succ_cts->keys()[0], key)) return;
    contents_t* grown;
    try {
      grown = contents_t::template copy_prepend<Alloc>(
          *succ_cts, key, scts->children()[j]);
    } catch (const std::bad_alloc&) {
      core.bump(tree_counter::compactions_skipped);
      return;  // migration not started; nothing to undo
    }
    LFST_FP_POINT("skiptree.compact.8d");
    if (!core.cas_payload(succ, succ_cts, grown)) {
      Core::destroy(grown);
      return;
    }
    core.retire(succ_cts);
    contents_t* shrunk;
    try {
      shrunk = contents_t::template copy_erase_key_own_child<Alloc>(*scts, j);
    } catch (const std::bad_alloc&) {
      // The copy landed but the erase can't be built: the element now exists
      // in both nodes, which routing levels tolerate (Theorem 1); a later
      // pass finishes the job.
      core.bump(tree_counter::compactions_skipped);
      return;
    }
    if (core.cas_payload(src, scts, shrunk)) {
      core.retire(scts);
      core.bump(tree_counter::migrations, j);
    } else {
      Core::destroy(shrunk);
    }
  }
};

}  // namespace lfst::skiptree::detail
