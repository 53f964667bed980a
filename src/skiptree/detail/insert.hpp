// Lock-free insertion (paper Fig. 5) and in-place replacement.
//
// add() inserts at the leaf, then alternately splits the level and inserts
// a copy of the element one level up, up to the element's random geometric
// height.  Link pointers let a node split without coordinating with its
// parent: the left partition keeps the node identity and links to the fresh
// right partition, so concurrent traversals recover over the link until the
// parent learns about the new node.
//
// replace() is the primitive behind the map layer's assign: same position,
// new payload, linearized at the leaf CAS.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <span>

#include "common/backoff.hpp"
#include "skiptree/detail/core.hpp"

namespace lfst::skiptree::detail {

template <typename Core>
struct insert_ops {
  using T = typename Core::key_type;
  using Alloc = typename Core::alloc_t;
  using Reclaim = typename Core::reclaim_t;
  using contents_t = typename Core::contents_t;
  using node_t = typename Core::node_t;
  using head_t = typename Core::head_t;
  using search = typename Core::search;

  /// The add() driver: insert at the leaf, then raise.  Returns false iff
  /// `v` was already present (the unsuccessful case is linearized at the
  /// leaf payload read that finds v; the successful case at the leaf CAS).
  ///
  /// OOM contract (strong guarantee): an allocation failure before the leaf
  /// CAS propagates with the tree untouched; a failure after it (the raise
  /// phase) is swallowed -- the element is already a member, so add()
  /// reports success and merely leaves the element shorter than its drawn
  /// height, which relaxed optimality (D5) tolerates.
  static bool add(Core& core, const T& v, int height) {
    assert(height >= 0 && height <= core.opts.max_height);
    std::array<search, kMaxHeightLimit + 1> srchs;
    height = traverse_and_track(core, v, height, srchs.data());
    try {
      if (!insert_list(core, v, srchs.data(), nullptr, 0)) return false;
    } catch (const std::bad_alloc&) {
      core.bump(tree_counter::alloc_failures);
      throw;  // pre-linearization: the set is unchanged
    }
    core.size.fetch_add(1, std::memory_order_relaxed);
    try {
      for (int lvl = 0; lvl < height; ++lvl) {
        node_t* right = split_list(core, v, srchs[lvl], lvl);
        if (right == nullptr) break;  // v vanished at lvl (concurrent remove)
        if (!insert_list(core, v, srchs.data(), right, lvl + 1)) break;
      }
    } catch (const std::bad_alloc&) {
      // Post-linearization: v is in the set and cannot be un-added.  Stop
      // raising; the tree stays valid (splits/copies either published fully
      // or not at all) and only optimality degrades.
      core.bump(tree_counter::alloc_failures);
    }
    return true;
  }

  /// Root-to-leaf traversal that records, for every level at or below `h`,
  /// the node where `v` belongs (the insertion hints consumed by
  /// insert_list / split_list).  Returns the effective height: if growing
  /// the root ran out of memory the requested height is clamped to what the
  /// tree actually offers, so add() never reads an untracked hint.
  static int traverse_and_track(Core& core, const T& v, int h,
                                search* srchs) {
    const head_t* head = core.root.load(std::memory_order_acquire);
    if (head->height < h) {
      try {
        head = increase_root_height(core, h);
      } catch (const std::bad_alloc&) {
        core.bump(tree_counter::alloc_failures);
        head = core.root.load(std::memory_order_acquire);
      }
    }
    if (h > head->height) h = head->height;
    int level = head->height;
    node_t* nd = head->node;
    LFST_TALLY(lfst_depth);
    for (;;) {
      contents_t* cts = Core::load_payload(nd);
      Core::prefetch_payload(cts);
      const int i = core.search_keys(*cts, v);
      if (Core::is_past_end(i, *cts)) {
        nd = cts->link;
        LFST_TALLY_INC(lfst_depth);
        LFST_STEP();
      } else {
        if (level <= h) {
          srchs[level] = search{nd, cts, i};
        }
        if (level == 0) {
          LFST_VALUE(skiptree_traversal_depth, lfst_depth);
          return h;
        }
        nd = cts->children()[Core::descend_index(i)];
        --level;
        LFST_TALLY_INC(lfst_depth);
        LFST_STEP();
      }
    }
  }

  /// Grow the tree upward until the root level is at least `h`: each new
  /// top level starts as a single node holding only +inf whose sole child is
  /// the previous root node.
  static const head_t* increase_root_height(Core& core, int h) {
    head_t* head = core.root.load(std::memory_order_acquire);
    while (head->height < h) {
      node_t* child = head->node;
      contents_t* c = contents_t::template make_routing<Alloc>(
          std::span<const T>{}, std::span<node_t* const>{&child, 1},
          /*inf=*/true, /*link=*/nullptr);
      node_t* top = core.alloc_node(c);
      head_t* grown = new head_t{top, head->height + 1};
      LFST_FP_POINT("skiptree.root.raise");
      if (core.root.compare_exchange_strong(head, grown,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
        Reclaim::retire(core.domain, head);
        core.bump(tree_counter::root_raises,
                  static_cast<std::uint64_t>(grown->height));
        head = grown;
      } else {
        // Lost the race: `top` stays in the arena (freed with the tree),
        // its payload and the head descriptor were never published.
        delete grown;
      }
    }
    return head;
  }

  /// Insert `v` at `level`, using srchs[level] as the position hint (updated
  /// in place on success so split_list starts from the freshest snapshot).
  /// Returns false when `v` is already present at the level -- which at the
  /// leaf level means the add fails, and at routing levels means another
  /// copy exists and raising stops (paper Sec. III-C).
  static bool insert_list(Core& core, const T& v, search* srchs,
                          node_t* right_child, int level) {
    assert(level == 0 || right_child != nullptr);
    search& s = srchs[level];
    node_t* nd = s.node;
    contents_t* cts = s.cts;
    int i = s.index;
    backoff bo;
    LFST_TALLY(lfst_retries);
    for (;;) {
      if (i >= 0) {
        LFST_VALUE(skiptree_cas_retries_per_op, lfst_retries);
        return false;  // already present at this level
      }
      if (Core::is_past_end(i, *cts)) {
        // v exceeds every element (or the node is empty: inserting into an
        // empty node is forbidden); move along the level.
        nd = cts->link;
        assert(nd != nullptr);
        cts = Core::load_payload(nd);
        i = core.search_keys(*cts, v);
        continue;
      }
      const std::uint32_t pos = Core::descend_index(i);
      contents_t* repl =
          level == 0
              ? contents_t::template copy_leaf_insert<Alloc>(*cts, pos, v)
              : contents_t::template copy_routing_insert<Alloc>(*cts, pos, v,
                                                                right_child);
      LFST_FP_POINT("skiptree.insert.publish");
      if (core.cas_payload(nd, cts, repl)) {
        core.retire(cts);
        s = search{nd, repl, static_cast<int>(pos)};
        LFST_VALUE(skiptree_cas_retries_per_op, lfst_retries);
        return true;
      }
      Core::destroy(repl);
      core.bump_cas_failure(nd, level);
      LFST_TALLY_INC(lfst_retries);
      // cts now holds nd's current payload (CAS reloads on failure).
      bo();
      i = core.search_keys(*cts, v);
    }
  }

  /// Split the node containing `v` at srchs[level]'s level into a left
  /// partition (elements <= v, keeps the node identity) and a fresh right
  /// partition (elements > v).  Returns the right node, to be linked as the
  /// child accompanying `v` one level up; null if `v` disappeared (the split
  /// is then abandoned, paper Sec. III-C).
  static node_t* split_list(Core& core, const T& v, search& s, int level) {
    node_t* nd = s.node;
    contents_t* cts = s.cts;
    node_t* rnode = nullptr;
    backoff bo;
    for (;;) {
      const int i = core.search_keys(*cts, v);
      if (i < 0) {
        if (Core::is_past_end(i, *cts)) {
          nd = cts->link;  // v moved right via a concurrent split
          assert(nd != nullptr);
          cts = Core::load_payload(nd);
          continue;
        }
        return nullptr;  // v was removed concurrently
      }
      const std::uint32_t pos = static_cast<std::uint32_t>(i);
      if (pos + 1 == cts->nkeys && !cts->inf && cts->link == nullptr) {
        // Degenerate: v is the global maximum of the level with nothing to
        // its right.  Cannot happen while (D1) holds (the level ends in
        // +inf), but guard against it rather than split off a dead end.
        return nullptr;
      }
      contents_t* right = contents_t::template copy_split_right<Alloc>(*cts,
                                                                       pos);
      if (rnode == nullptr) {
        rnode = core.alloc_node(right);
      } else {
        // Reuse the node allocated by a failed attempt; replace its payload.
        contents_t* prev = rnode->payload.load(std::memory_order_relaxed);
        rnode->payload.store(right, std::memory_order_relaxed);
        Core::destroy(prev);
      }
      contents_t* left =
          contents_t::template copy_split_left<Alloc>(*cts, pos, rnode);
      LFST_FP_POINT("skiptree.split.publish");
      if (core.cas_payload(nd, cts, left)) {
        core.retire(cts);
        core.bump(tree_counter::splits, pos);
        s = search{nd, left, static_cast<int>(pos)};
        return rnode;
      }
      Core::destroy(left);
      core.bump_cas_failure(nd, level);
      bo();
      // cts reloaded by the failed CAS; retry (possibly moving forward).
    }
  }

  /// Overwrite the stored element order-equivalent to `v` with `v` itself.
  /// Returns false iff no equivalent element is present; linearizes at the
  /// leaf CAS (success) or leaf payload read (failure).  OOM before the CAS
  /// propagates with the stored element intact (strong guarantee).
  static bool replace(Core& core, const T& v) {
    search s = core.move_forward_from_root(v);
    backoff bo;
    for (;;) {
      if (s.index < 0) return false;
      contents_t* repl;
      try {
        repl = contents_t::template copy_leaf_assign<Alloc>(
            *s.cts, static_cast<std::uint32_t>(s.index), v);
      } catch (const std::bad_alloc&) {
        core.bump(tree_counter::alloc_failures);
        throw;
      }
      if (core.cas_payload(s.node, s.cts, repl)) {
        core.retire(s.cts);
        return true;
      }
      Core::destroy(repl);
      bo();
      s = core.move_forward(s.node, v);
    }
  }
};

}  // namespace lfst::skiptree::detail
