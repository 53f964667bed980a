// The in-node search kernel.
//
// Every node of the skip-tree (and of the b-link-tree baseline) is searched
// by one binary search over its sorted key array (the paper's Figs. 4-6),
// returning the Java-style encoded index the paper's pseudo-code is written
// against:
//
//     >= 0  -> v found at that index (leftmost match under duplicates)
//      < 0  -> -(insertion point) - 1, the lower_bound position encoded
//
// The encoding is total: callers recover the descent slot with
// `descend_index` and detect the follow-the-link case with `is_past_end`
// (detail/core.hpp).  tests/skiptree/test_kernel.cpp fuzzes the kernel
// against std::lower_bound.
#pragma once

#include <cstdint>

namespace lfst::skiptree {

/// Branch-free halving (Khuong/Morin): the range update compiles to a
/// conditional move, so the only unpredictable branch is the loop trip
/// count, a fixed ceil(log2(n)).  Works for any T/Compare.  Invariant: the
/// lower_bound position stays within [base, base + len].
struct branchfree_search_kernel {
  static constexpr const char* name() noexcept { return "branchfree"; }

  template <typename T, typename Compare>
  static int search(const T* keys, std::uint32_t nkeys, const T& v,
                    const Compare& cmp) {
    std::uint32_t base = 0;
    std::uint32_t len = nkeys;
    while (len > 1) {
      const std::uint32_t half = len / 2;
      base = cmp(keys[base + half - 1], v) ? base + half : base;
      len -= half;
    }
    const std::uint32_t pos =
        base + (len != 0 && cmp(keys[base], v) ? 1u : 0u);
    if (pos < nkeys && !cmp(v, keys[pos])) return static_cast<int>(pos);
    return -static_cast<int>(pos) - 1;
  }
};

/// Name of the in-node search kernel, stamped into benchmark results.
inline const char* selected_kernel_name() noexcept {
  return branchfree_search_kernel::name();
}

}  // namespace lfst::skiptree
