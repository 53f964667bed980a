// Allocation policies for the lock-free structures.
//
// Every mutation of the skip-tree (and of the other structures in this
// repository) replaces an immutable node payload via CAS, so -- unlike the
// paper's JVM artifact, where the garbage-collected heap hands out bump
// allocations -- a malloc/free pair sits on the hot path of every add and
// remove, funneled through the reclamation grace period.  This header
// extracts that allocation decision into a policy, mirroring how `Reclaim`
// is already a template parameter of each structure:
//
//   * `new_delete_policy` -- the baseline: aligned global operator new /
//     operator delete, exactly what the structures did before the policy
//     existed.  Zero bookkeeping, so ablation numbers against it isolate
//     the pool's contribution.
//
//   * `pool_policy` -- a cache-aligned, size-classed slab pool with
//     per-thread free-list caches.  Freed blocks are returned here by the
//     reclamation deleters *after* the grace period, so a recycled address
//     can never be observed by a pinned reader (the same argument that
//     makes CAS ABA-free under EBR covers pool reuse).  Blocks migrate
//     freely between threads: a payload retired on thread A is often
//     reclaimed -- and therefore pooled -- by thread B; both the per-thread
//     caches and the shared per-class free lists accept foreign blocks.
//
// Contract shared by both policies:
//
//   static void* allocate(std::size_t bytes, std::size_t align);
//   static void  deallocate(void* p, std::size_t bytes, std::size_t align);
//   static alloc_counters counters();   // statistics hook (may be zeros)
//
// `deallocate` must receive the same (bytes, align) the block was allocated
// with; every caller in this repository can recompute them from the block
// header (payloads) or from the static type (nodes), so blocks carry no
// size prefix and pooled allocations waste no space on bookkeeping.
//
// Pool internals.  Sizes are rounded up to the size classes 16, 32, 48,
// 64, 96, 128, ... 4096 (powers of two plus the 3*2^k midpoints, so worst
// case internal fragmentation is 1/3 rather than the 2x of pure
// power-of-two classes -- skip-list towers and partially-filled tree
// payloads land between powers of two); larger or over-aligned requests
// fall through to the aligned global heap.  Each class carves blocks from
// 64 KiB slabs whose base is 4 KiB-aligned, so every block is aligned to
// its class size's largest power-of-two divisor (a request's alignment is
// honored by skipping to the first class whose natural alignment covers
// it).  The allocation fast path is a pop from a plain
// thread-local vector; refills and spills move blocks in batches across a
// per-class spinlock.  Slabs are process-immortal (parked in a leaky
// singleton): the structures already guarantee no block outlives its
// domain's grace period, and immortal slabs make the policy safe to use
// from static-destruction-time reclamation (the EBR global domain's
// destructor frees through this policy after thread-local caches are gone).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "common/align.hpp"
#include "common/failpoint.hpp"
#include "common/telemetry.hpp"

namespace lfst::alloc {

/// Statistics for one allocation policy (process-wide totals).  Counters
/// are kept thread-locally on the hot path and folded into the global
/// totals when a thread's cache retires, so they are exact after joining
/// worker threads and approximate while workers are running.
struct alloc_counters {
  std::uint64_t allocations = 0;   ///< allocate() calls
  std::uint64_t pool_hits = 0;     ///< served by reusing a freed block
  std::uint64_t slab_carves = 0;   ///< served by carving fresh slab space
  std::uint64_t fallbacks = 0;     ///< oversized/overaligned: global heap
  std::uint64_t deallocations = 0; ///< deallocate() calls

  /// Fraction of allocations served by block reuse (the pool's win).
  double hit_rate() const noexcept {
    return allocations == 0
               ? 0.0
               : static_cast<double>(pool_hits) /
                     static_cast<double>(allocations);
  }
};

/// Baseline policy: the aligned global heap, no pooling, no counters.
struct new_delete_policy {
  static void* allocate(std::size_t bytes, std::size_t align) {
    LFST_FP_ALLOC("alloc.new_delete");
    return ::operator new(bytes, std::align_val_t{align});
  }
  static void deallocate(void* p, std::size_t bytes,
                         std::size_t align) noexcept {
    static_cast<void>(bytes);
    ::operator delete(p, std::align_val_t{align});
  }
  static alloc_counters counters() noexcept { return {}; }
};

namespace detail {

/// The process-wide pool shared by every `pool_policy` user.
class pool {
 public:
  static constexpr std::size_t kMinBlock = 16;
  static constexpr std::size_t kMaxBlock = 4096;
  /// Powers of two and their 3*2^k midpoints: worst-case internal
  /// fragmentation 1/3 instead of 2x.
  static constexpr std::size_t kClassSizes[] = {
      16,  32,  48,  64,   96,   128,  192,  256,
      384, 512, 768, 1024, 1536, 2048, 3072, 4096};
  static constexpr int kClasses =
      static_cast<int>(sizeof(kClassSizes) / sizeof(kClassSizes[0]));
  static constexpr std::size_t kSlabBytes = 64 * 1024;
  static constexpr std::size_t kCacheCap = 128;  // blocks cached per class
  static constexpr std::size_t kBatch = 32;      // refill/spill batch size

  static void* allocate(std::size_t bytes, std::size_t align) {
    LFST_FP_ALLOC("alloc.pool.allocate");
    tls_counters* tc = my_counters();
    if (tc != nullptr) ++tc->c.allocations;
    const std::size_t block = block_size(bytes, align);
    if (block == 0) {  // oversized or overaligned: global heap
      if (tc != nullptr) ++tc->c.fallbacks;
      LFST_COUNT(pool_fallbacks);
      return ::operator new(bytes, std::align_val_t{align});
    }
    const int ci = class_index(block);
    tls_cache* c = my_cache();
    if (c != nullptr && !c->free_lists[ci].empty()) {
      void* p = c->free_lists[ci].back();
      c->free_lists[ci].pop_back();
      ++tc->c.pool_hits;
      LFST_COUNT(pool_hits);
      return p;
    }
    return refill_and_pop(ci, block, c, tc);
  }

  static void deallocate(void* p, std::size_t bytes,
                         std::size_t align) noexcept {
    tls_counters* tc = my_counters();
    if (tc != nullptr) ++tc->c.deallocations;
    const std::size_t block = block_size(bytes, align);
    if (block == 0) {
      ::operator delete(p, std::align_val_t{align});
      return;
    }
    const int ci = class_index(block);
    tls_cache* c = my_cache();
    // deallocate() is noexcept but the free-list vectors can themselves hit
    // OOM growing; a block that cannot be recorded anywhere is dropped (a
    // bounded leak under true heap exhaustion beats std::terminate).
    if (c == nullptr) {
      // Thread-local cache already retired (static-destruction-time
      // reclamation); hand the block straight to the shared list.
      LFST_COUNT(pool_foreign_frees);
      size_class& sc = global().classes[ci];
      lock(sc);
      try {
        sc.free_list.push_back(p);
      } catch (const std::bad_alloc&) {
      }
      unlock(sc);
      return;
    }
    try {
      c->free_lists[ci].push_back(p);
    } catch (const std::bad_alloc&) {
      return;
    }
    if (c->free_lists[ci].size() > kCacheCap) spill(*c, ci);
    // Memory-pressure trim: when the reclamation watchdog bumps the
    // pressure generation, the next free on each thread returns its whole
    // cache to the shared lists.  One relaxed load on the fast path.
    const std::uint64_t gen =
        pressure_generation().load(std::memory_order_relaxed);
    if (gen != c->seen_pressure_generation) {
      c->seen_pressure_generation = gen;
      trim_all(*c);
    }
  }

  /// Ask every thread to return its cached blocks to the shared free lists
  /// at its next deallocation (called by the reclamation watchdog when the
  /// limbo cap is under pressure).  Cheap, advisory, safe from any thread.
  static void request_trim() noexcept {
    pressure_generation().fetch_add(1, std::memory_order_relaxed);
  }

  static alloc_counters counters() noexcept {
    global_state& g = global();
    alloc_counters out;
    out.allocations = g.allocations.load(std::memory_order_relaxed);
    out.pool_hits = g.pool_hits.load(std::memory_order_relaxed);
    out.slab_carves = g.slab_carves.load(std::memory_order_relaxed);
    out.fallbacks = g.fallbacks.load(std::memory_order_relaxed);
    out.deallocations = g.deallocations.load(std::memory_order_relaxed);
    if (tls_counters* tc = my_counters()) {
      out.allocations += tc->c.allocations;
      out.pool_hits += tc->c.pool_hits;
      out.slab_carves += tc->c.slab_carves;
      out.fallbacks += tc->c.fallbacks;
      out.deallocations += tc->c.deallocations;
    }
    return out;
  }

  /// Round (bytes, align) to the serving block size; 0 means "not pooled".
  /// Pure function of its inputs, so allocate/deallocate always agree.
  /// The chosen class must both fit `bytes` and have a natural alignment
  /// (its largest power-of-two divisor; blocks sit at class-size multiples
  /// inside 4 KiB-aligned slabs) covering `align`.
  static constexpr std::size_t block_size(std::size_t bytes,
                                          std::size_t align) noexcept {
    if (bytes > kMaxBlock || align > kMaxBlock) return 0;
    for (std::size_t cls : kClassSizes) {
      if (cls >= bytes && (cls & (~cls + 1)) >= align) return cls;
    }
    return 0;
  }

 private:
  struct alignas(kFalseSharingRange) size_class {
    std::atomic<bool> locked{false};
    // Everything below is guarded by `locked`.
    std::vector<void*> free_list;
    std::byte* bump = nullptr;
    std::byte* bump_end = nullptr;
    std::vector<void*> slabs;  // immortal; kept reachable for leak checkers
  };

  struct global_state {
    size_class classes[kClasses];
    std::atomic<std::uint64_t> allocations{0};
    std::atomic<std::uint64_t> pool_hits{0};
    std::atomic<std::uint64_t> slab_carves{0};
    std::atomic<std::uint64_t> fallbacks{0};
    std::atomic<std::uint64_t> deallocations{0};
  };

  /// Leaky singleton: never destroyed, so reclamation that runs during
  /// static destruction (EBR's global domain) can still free through it.
  static global_state& global() {
    static global_state* s = new global_state;
    return *s;
  }

  static constexpr int class_index(std::size_t block) noexcept {
    int i = 0;
    while (kClassSizes[i] != block) ++i;
    return i;
  }

  static void lock(size_class& sc) noexcept {
    while (sc.locked.exchange(true, std::memory_order_acquire)) {
      while (sc.locked.load(std::memory_order_relaxed)) {
      }
    }
  }
  static void unlock(size_class& sc) noexcept {
    sc.locked.store(false, std::memory_order_release);
  }

  // --- per-thread state ------------------------------------------------------
  //
  // The cache proper has a destructor (it spills its blocks back to the
  // shared lists), so it must not be touched after thread exit; the `dead`
  // flag is trivially destructible and stays readable for the whole thread
  // lifetime, letting late callers (reclamation running under another
  // component's TLS destructor) fall back to the shared lists.

  struct counter_cell {
    alloc_counters c;
  };

  struct tls_counters : counter_cell {
    ~tls_counters() {
      global_state& g = global();
      g.allocations.fetch_add(c.allocations, std::memory_order_relaxed);
      g.pool_hits.fetch_add(c.pool_hits, std::memory_order_relaxed);
      g.slab_carves.fetch_add(c.slab_carves, std::memory_order_relaxed);
      g.fallbacks.fetch_add(c.fallbacks, std::memory_order_relaxed);
      g.deallocations.fetch_add(c.deallocations, std::memory_order_relaxed);
      c = alloc_counters{};
      dead_flag() = true;
    }
    static bool& dead_flag() {
      thread_local bool dead = false;
      return dead;
    }
  };

  static tls_counters* my_counters() noexcept {
    if (tls_counters::dead_flag()) return nullptr;
    thread_local tls_counters tc;
    return &tc;
  }

  struct tls_cache {
    std::vector<void*> free_lists[kClasses];
    std::uint64_t seen_pressure_generation = 0;

    ~tls_cache() {
      for (int ci = 0; ci < kClasses; ++ci) {
        if (free_lists[ci].empty()) continue;
        size_class& sc = global().classes[ci];
        lock(sc);
        sc.free_list.insert(sc.free_list.end(), free_lists[ci].begin(),
                            free_lists[ci].end());
        unlock(sc);
        free_lists[ci].clear();
      }
      dead_flag() = true;
    }
    static bool& dead_flag() {
      thread_local bool dead = false;
      return dead;
    }
  };

  static tls_cache* my_cache() noexcept {
    if (tls_cache::dead_flag()) return nullptr;
    thread_local tls_cache c;
    return &c;
  }

  static std::atomic<std::uint64_t>& pressure_generation() noexcept {
    static std::atomic<std::uint64_t> gen{0};
    return gen;
  }

  /// Return the entire thread cache to the shared lists (pressure trim).
  static void trim_all(tls_cache& c) noexcept {
    LFST_COUNT(pool_pressure_trims);
    for (int ci = 0; ci < kClasses; ++ci) {
      std::vector<void*>& list = c.free_lists[ci];
      if (list.empty()) continue;
      size_class& sc = global().classes[ci];
      lock(sc);
      try {
        sc.free_list.insert(sc.free_list.end(), list.begin(), list.end());
      } catch (const std::bad_alloc&) {
        unlock(sc);
        continue;  // keep this class cached; trim what we can
      }
      unlock(sc);
      list.clear();
    }
  }

  /// Slow path: the thread cache overflowed; move a batch of blocks back to
  /// the shared list so other threads (and other size users) can have them.
  static void spill(tls_cache& c, int ci) noexcept {
    LFST_COUNT(pool_spills);
    std::vector<void*>& list = c.free_lists[ci];
    const std::size_t keep = list.size() - kBatch;
    size_class& sc = global().classes[ci];
    lock(sc);
    try {
      sc.free_list.insert(sc.free_list.end(), list.begin() + keep, list.end());
    } catch (const std::bad_alloc&) {
      // Shared list could not grow: keep the batch in the thread cache (it
      // merely overshoots kCacheCap until the next successful spill).
      unlock(sc);
      return;
    }
    unlock(sc);
    list.resize(keep);
  }

  /// Slow path: refill the thread cache (or serve directly when the cache
  /// is gone) from the shared free list, carving a fresh slab if needed.
  ///
  /// OOM-safe: a slab carve (or a free-list vector growth) that throws must
  /// not escape with the class spinlock held, and must not fail the request
  /// when blocks were already gathered.  The locked section is therefore
  /// wrapped: on bad_alloc the lock is released, a partially-filled batch is
  /// served as-is, and only a completely empty-handed refill rethrows.
  static void* refill_and_pop(int ci, std::size_t block, tls_cache* c,
                              tls_counters* tc) {
    LFST_FP_ALLOC("alloc.pool.refill");
    LFST_SPAN(pool_refill);
    size_class& sc = global().classes[ci];
    const std::size_t want = c != nullptr ? kBatch : 1;
    void* out = nullptr;
    std::size_t got = 0;
    bool reused = false;
    lock(sc);
    try {
      while (got < want && !sc.free_list.empty()) {
        void* p = sc.free_list.back();
        sc.free_list.pop_back();
        if (out == nullptr) {
          out = p;
        } else {
          c->free_lists[ci].push_back(p);
        }
        ++got;
        reused = true;
      }
      while (got < want) {
        if (sc.bump == nullptr ||
            static_cast<std::size_t>(sc.bump_end - sc.bump) < block) {
          auto* slab = static_cast<std::byte*>(
              ::operator new(kSlabBytes, std::align_val_t{kMaxBlock}));
          try {
            sc.slabs.push_back(slab);
          } catch (...) {
            ::operator delete(slab, std::align_val_t{kMaxBlock});
            throw;
          }
          sc.bump = slab;
          sc.bump_end = slab + kSlabBytes;
        }
        void* p = sc.bump;
        sc.bump += block;
        if (out == nullptr) {
          out = p;
        } else {
          c->free_lists[ci].push_back(p);
        }
        ++got;
      }
    } catch (const std::bad_alloc&) {
      unlock(sc);
      if (out == nullptr) throw;  // nothing gathered: the request fails
      if (tc != nullptr) {
        if (reused) {
          ++tc->c.pool_hits;
        } else {
          ++tc->c.slab_carves;
        }
      }
      if (reused) {
        LFST_COUNT(pool_hits);
      } else {
        LFST_COUNT(pool_slab_carves);
      }
      return out;  // partial batch: the request itself still succeeds
    }
    unlock(sc);
    if (tc != nullptr) {
      if (reused) {
        ++tc->c.pool_hits;  // the block handed out came off the free list
      } else {
        ++tc->c.slab_carves;
      }
    }
    if (reused) {
      LFST_COUNT(pool_hits);
    } else {
      LFST_COUNT(pool_slab_carves);
    }
    return out;
  }
};

}  // namespace detail

/// Pooled policy: cache-aligned size-classed slabs with per-thread caches.
struct pool_policy {
  static void* allocate(std::size_t bytes, std::size_t align) {
    return detail::pool::allocate(bytes, align);
  }
  static void deallocate(void* p, std::size_t bytes,
                         std::size_t align) noexcept {
    detail::pool::deallocate(p, bytes, align);
  }
  static alloc_counters counters() noexcept {
    return detail::pool::counters();
  }
  static void request_trim() noexcept { detail::pool::request_trim(); }
};

}  // namespace lfst::alloc
