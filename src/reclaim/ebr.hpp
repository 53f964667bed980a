// Epoch-based reclamation (EBR) with stall tolerance.
//
// The paper's skip-tree runs on a JVM and leans on the garbage collector for
// two guarantees (Sec. III-A): retired objects are not freed while a reader
// may still hold them, and addresses are not recycled in a way that causes
// ABA on compare-and-swap.  This module supplies both guarantees natively.
//
// Scheme (Fraser-style, three limbo generations):
//  * A global epoch counter advances 0, 1, 2, ... .
//  * Every operation on a protected structure runs under an RAII `guard`
//    that publishes ("pins") the thread's view of the global epoch.
//  * `retire(p)` adds `p` to the pinning thread's limbo list tagged with the
//    pinned epoch `e`.  `p` must already be unreachable from the structure.
//  * The global epoch may advance from `g` to `g+1` only when every pinned
//    thread has published `g`.  Hence once the global epoch reaches `e + 2`,
//    no thread that could have observed `p` is still running, and the limbo
//    list for epoch `e` is reclaimed.  Three limbo buckets per thread
//    (indexed by epoch mod 3) suffice because a bucket is reused only when
//    its previous generation is at least three epochs old.
//
// ABA freedom follows: an address is handed back to the allocator only after
// the grace period, so a pinned compare-and-swap can never observe a
// recycled address.
//
// Stall tolerance (DESIGN.md Sec. 9).  Classic EBR's failure mode is a single
// preempted, stalled, or dead reader pinning the epoch forever, growing
// garbage without bound (the hazard DEBRA+ neutralizes, arXiv 1712.05406).
// This domain adds four cooperating mechanisms:
//  * Byte-exact limbo accounting with a configurable cap
//    (`reclaim_limits::max_limbo_bytes`): once per-slot limbo would exceed
//    the cap, retire() parks blocks on a domain overflow list instead, so the
//    in-limbo footprint high-watermark never exceeds the cap.
//  * Watchdog-side stall detection (`stall_tick`): a slot that publishes the
//    same lagging epoch across ticks for longer than a tsc-measured age is
//    flagged for eviction; a flagged slot that ignores the request past a
//    grace period is quarantined.
//  * Cooperative reader eviction: `guard::check()` -- one relaxed load on
//    the slot's own cache line -- lets a flagged-but-alive reader republish
//    a fresh epoch at a traversal safe point and restart its operation.
//  * Quarantine: `try_advance()` skips quarantined slots, so a truly dead
//    reader stops blocking the epoch.  Its limbo is handed to the overflow
//    list, and while any slot is quarantined ("degraded mode") expired
//    overflow blocks are routed through the hazard-pointer domain
//    (`reclaim/hazard.hpp`) as an escape hatch rather than freed blind.
//    A quarantined reader is *declared failed*: if it resumes, check()
//    forces a restart-from-root, but pointers it dereferences before its
//    next safe point may already be freed.  Quarantine thresholds must
//    therefore sit well above any legitimate pause.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "common/align.hpp"
#include "common/failpoint.hpp"
#include "common/telemetry.hpp"
#include "reclaim/hazard.hpp"
#include "reclaim/retired.hpp"

namespace lfst::reclaim {

/// Maximum number of threads that may simultaneously hold slots in one
/// domain.  Slots are recycled on thread exit, so this bounds concurrency,
/// not total thread count over a process lifetime.
inline constexpr std::size_t kMaxThreads = 256;

class ebr_domain;

/// Knobs for the bounded-limbo guarantee.
struct reclaim_limits {
  /// Domain-wide cap on bytes held in per-slot limbo lists; 0 = unbounded
  /// (classic EBR).  Blocks retired past the cap go to the overflow list,
  /// so the limbo-bytes high-watermark never exceeds this value.
  std::size_t max_limbo_bytes = 0;
};

/// Inputs to one watchdog detection pass (all ages in tsc ticks; the caller
/// -- normally `reclaim_watchdog` -- owns the tsc-to-wall-clock calibration).
struct stall_params {
  std::uint64_t now_tsc = 0;
  std::uint64_t stall_age_ticks = 0;      ///< same-epoch age before flagging
  std::uint64_t eviction_grace_ticks = 0; ///< flagged age before quarantine
  std::uint64_t min_epoch_lag = 1;        ///< only flag slots this far behind
  bool quarantine = true;                 ///< allow declaring readers failed
  bool escape_to_hazard = true;           ///< degraded-mode hazard routing
};

/// What one detection pass saw and did.
struct stall_report {
  std::size_t pinned = 0;           ///< slots pinned at scan time
  std::size_t stalled = 0;          ///< pinned slots past the stall age
  std::size_t flagged = 0;          ///< eviction requests issued this pass
  std::size_t quarantined_now = 0;  ///< slots quarantined this pass
  std::size_t quarantined = 0;      ///< total quarantined after the pass
  std::size_t handoff_blocks = 0;   ///< limbo blocks moved to overflow
  std::size_t overflow_freed = 0;   ///< overflow blocks freed directly
  std::size_t overflow_escaped = 0; ///< overflow blocks routed to hazard
  std::size_t limbo_bytes = 0;      ///< in-limbo bytes after the pass
  std::size_t overflow_bytes = 0;   ///< overflow bytes after the pass
  bool advanced = false;            ///< try_advance() succeeded
};

/// Result of a flush pass.  `skipped_slots` non-zero means the domain was
/// not quiescent and some limbo stayed put -- `flush()` asserts on that in
/// debug builds, `try_flush()` leaves the judgment to the caller.
struct flush_result {
  std::size_t flushed_blocks = 0;
  std::size_t flushed_bytes = 0;
  std::size_t skipped_slots = 0;
  std::size_t overflow_freed = 0;

  bool clean() const noexcept { return skipped_slots == 0; }
};

/// Point-in-time footprint of a domain (exposed through structural_stats).
struct domain_stats {
  std::size_t limbo_blocks = 0;
  std::size_t limbo_bytes = 0;
  std::size_t limbo_bytes_hwm = 0;
  std::size_t overflow_blocks = 0;
  std::size_t overflow_bytes = 0;
  std::size_t overflow_bytes_hwm = 0;
  std::size_t quarantined = 0;
  std::uint64_t epoch = 0;
};

namespace detail {
/// Per-thread epoch record.  `epoch` and `flags` are written by the owner
/// and read by advancers/the watchdog; the observation fields belong to the
/// (single) stall driver; limbo state is owner-only except under
/// `limbo_lock`, which arbitrates the watchdog's quarantine handoff against
/// the owner's stash/collect.  Aligned to the false-sharing range because
/// each slot is written by exactly one thread on the hot path.
struct alignas(kFalseSharingRange) ebr_slot {
  static constexpr std::uint64_t kQuiescent = ~std::uint64_t{0};
  static constexpr std::uint32_t kEvictRequested = 1u << 0;
  static constexpr std::uint32_t kQuarantined = 1u << 1;

  std::atomic<std::uint64_t> epoch{kQuiescent};
  std::atomic<std::uint32_t> flags{0};
  std::atomic<bool> in_use{false};
  std::atomic<bool> limbo_lock{false};

  // Stall-driver-only observation state (see ebr_domain::stall_tick).
  std::uint64_t observed_epoch = kQuiescent;
  std::uint64_t observed_tsc = 0;
  std::uint64_t flagged_tsc = 0;

  // Owner-only state (limbo additionally guarded by limbo_lock).
  unsigned depth = 0;             // guard nesting level
  std::uint64_t pinned = 0;       // epoch published while depth > 0
  std::uint64_t retire_ticks = 0; // retires since last advance attempt
  retired_list limbo[3];
  std::uint64_t limbo_epoch[3] = {0, 0, 0};  // generation tag per bucket

  void lock_limbo() noexcept {
    while (limbo_lock.exchange(true, std::memory_order_acquire)) {
    }
  }
  bool try_lock_limbo() noexcept {
    return !limbo_lock.exchange(true, std::memory_order_acquire);
  }
  void unlock_limbo() noexcept {
    limbo_lock.store(false, std::memory_order_release);
  }
};
}  // namespace detail

/// An epoch-reclamation domain.  Structures sharing a domain share grace
/// periods; the default `ebr_domain::global()` is what the data structures
/// use unless a test passes its own.
class ebr_domain {
 public:
  ebr_domain() : id_(next_domain_id()) {
    std::lock_guard<std::mutex> g(live_registry().mu);
    live_registry().ids.insert(id_);
  }
  ebr_domain(const ebr_domain&) = delete;
  ebr_domain& operator=(const ebr_domain&) = delete;

  /// Destructor reclaims everything still in limbo (and parked on the
  /// overflow list).  Callers must guarantee quiescence (no guards held, no
  /// further retires).  Exiting threads that still hold slot references
  /// consult the live-domain registry so they never touch a destroyed
  /// domain.
  ~ebr_domain() {
    {
      std::lock_guard<std::mutex> g(live_registry().mu);
      live_registry().ids.erase(id_);
    }
    const std::size_t n = high_water_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      detail::ebr_slot& s = slots_[i];
      for (retired_list& l : s.limbo) l.reclaim_all();
    }
    // Never escape during destruction: the hazard domain may be a static
    // that dies first, and quiescence means nobody can hold these blocks.
    for (const overflow_entry& e : overflow_) e.block.reclaim();
  }

  /// The process-wide default domain.
  static ebr_domain& global() {
    static ebr_domain d;
    return d;
  }

  class guard;

  // --- configuration ---------------------------------------------------------

  void set_limits(reclaim_limits l) noexcept {
    max_limbo_bytes_.store(l.max_limbo_bytes, std::memory_order_relaxed);
  }
  reclaim_limits limits() const noexcept {
    return reclaim_limits{max_limbo_bytes_.load(std::memory_order_relaxed)};
  }

  /// Where degraded-mode overflow drains route blocks (default: the global
  /// hazard domain).  Null disables the escape hatch entirely.
  void set_escape_domain(hp_domain* d) noexcept {
    escape_.store(d, std::memory_order_release);
  }

  // --- retire ----------------------------------------------------------------

  /// Retire `p`; its deleter runs after a full grace period.  Must be called
  /// with a guard held on this domain by the calling thread.
  template <typename T>
  void retire(T* p) {
    retire(retired_block{p, &delete_of<T>, sizeof(T)});
  }

  void retire(retired_block b) {
    LFST_FP_POINT("ebr.retire");
    detail::ebr_slot& s = my_slot();
    assert(s.depth > 0 && "retire() requires an active ebr_domain::guard");
    // Tag the garbage with the CURRENT global epoch, not the pinned one.
    // The unlink that made `b` unreachable happened no later than this
    // load; any reader that can still hold the block is therefore pinned
    // at an epoch <= g, and the free rule (global >= tag + 2) cannot fire
    // until every such reader has unpinned.  Tagging with the pinned epoch
    // would be off by one: the global may already be pinned+1 at unlink
    // time, and a reader pinned there could outlive the grace period.
    const std::uint64_t g = global_epoch_.load(std::memory_order_seq_cst);
    if (!reserve_limbo_bytes(b.bytes)) {
      // Bounded-limbo guarantee: the block waits out its grace period on
      // the overflow list instead, keeping the limbo high-watermark under
      // the cap even while a stalled reader blocks collection.
      defer_to_overflow(b, g);
      LFST_COUNT(ebr_cap_deferrals);
    } else {
      s.lock_limbo();
      stash(s, g, b);
      LFST_VALUE(ebr_limbo_depth, s.limbo[0].size() + s.limbo[1].size() +
                                      s.limbo[2].size());
      s.unlock_limbo();
      limbo_blocks_.fetch_add(1, std::memory_order_relaxed);
    }
    LFST_COUNT(ebr_retires);
    if (++s.retire_ticks >= kAdvanceEvery) {
      s.retire_ticks = 0;
      try_advance();
      collect(s);
      drain_overflow(/*allow_escape=*/true);
    }
  }

  // --- flush -----------------------------------------------------------------

  /// Drive epochs forward and reclaim as much as possible.  Quiescent-only
  /// (no guard held anywhere in the domain): asserts in debug builds if any
  /// slot is still pinned, and reports what it skipped either way.  Callers
  /// that deliberately flush a partially pinned domain (tests exercising
  /// the grace period) should use try_flush().
  flush_result flush() {
    const flush_result r = try_flush();
    assert(r.skipped_slots == 0 &&
           "flush() on a non-quiescent domain skips pinned slots; "
           "use try_flush() if that is intended");
    return r;
  }

  /// Like flush(), but silently tolerates pinned slots (their limbo stays
  /// put and is counted in `skipped_slots`).
  flush_result try_flush() {
    flush_result r;
    for (int round = 0; round < 4; ++round) try_advance();
    const std::size_t n = high_water_.load(std::memory_order_acquire);
    const std::uint64_t g = global_epoch_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      detail::ebr_slot& s = slots_[i];
      // Safe to touch foreign slots only when they cannot race: skip slots
      // that are pinned right now, and take the limbo lock against a
      // concurrent watchdog handoff.
      if (s.epoch.load(std::memory_order_acquire) !=
          detail::ebr_slot::kQuiescent) {
        ++r.skipped_slots;
        continue;
      }
      if (!s.try_lock_limbo()) {
        ++r.skipped_slots;
        continue;
      }
      for (int b = 0; b < 3; ++b) {
        if (!s.limbo[b].empty() && s.limbo_epoch[b] + 2 <= g) {
          r.flushed_blocks += s.limbo[b].size();
          r.flushed_bytes += s.limbo[b].bytes();
          account_limbo_sub(s.limbo[b].size(), s.limbo[b].bytes());
          s.limbo[b].reclaim_all();
        }
      }
      s.unlock_limbo();
    }
    const overflow_drain d = drain_overflow(/*allow_escape=*/true);
    r.overflow_freed = d.freed + d.escaped;
    return r;
  }

  // --- introspection ---------------------------------------------------------

  std::uint64_t epoch() const noexcept {
    return global_epoch_.load(std::memory_order_acquire);
  }

  /// Number of blocks waiting in this thread's limbo lists (test hook).
  std::size_t my_limbo_size() {
    detail::ebr_slot& s = my_slot();
    s.lock_limbo();
    const std::size_t n =
        s.limbo[0].size() + s.limbo[1].size() + s.limbo[2].size();
    s.unlock_limbo();
    return n;
  }

  /// Bytes waiting in this thread's limbo lists (test hook).
  std::size_t my_limbo_bytes() {
    detail::ebr_slot& s = my_slot();
    s.lock_limbo();
    const std::size_t b =
        s.limbo[0].bytes() + s.limbo[1].bytes() + s.limbo[2].bytes();
    s.unlock_limbo();
    return b;
  }

  /// Domain-wide footprint snapshot (relaxed reads; exact once quiesced).
  domain_stats stats() const noexcept {
    domain_stats d;
    d.limbo_blocks = limbo_blocks_.load(std::memory_order_relaxed);
    d.limbo_bytes = limbo_bytes_.load(std::memory_order_relaxed);
    d.limbo_bytes_hwm = limbo_bytes_hwm_.load(std::memory_order_relaxed);
    d.overflow_blocks = overflow_blocks_.load(std::memory_order_relaxed);
    d.overflow_bytes = overflow_bytes_.load(std::memory_order_relaxed);
    d.overflow_bytes_hwm =
        overflow_bytes_hwm_.load(std::memory_order_relaxed);
    d.quarantined = quarantined_.load(std::memory_order_relaxed);
    d.epoch = global_epoch_.load(std::memory_order_acquire);
    return d;
  }

  std::size_t quarantined() const noexcept {
    return quarantined_.load(std::memory_order_relaxed);
  }

  // --- stall detection (watchdog entry point) --------------------------------

  /// One detection/advance/handoff pass.  Must be driven by at most one
  /// thread at a time (normally a `reclaim_watchdog`); the per-slot
  /// observation fields are unsynchronized stall-driver state.
  stall_report stall_tick(const stall_params& p) {
    LFST_FP_POINT("ebr.stall_tick");
    stall_report r;
    const std::uint64_t g = global_epoch_.load(std::memory_order_seq_cst);
    const std::size_t n = high_water_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      detail::ebr_slot& s = slots_[i];
      const std::uint64_t e = s.epoch.load(std::memory_order_seq_cst);
      const std::uint32_t f = s.flags.load(std::memory_order_acquire);
      if (e == detail::ebr_slot::kQuiescent) {
        // Flags left on a slot that went quiescent before clearing them
        // (thread exited between unpin and its TLS teardown, or we flagged
        // a slot that unpinned concurrently): clean up watchdog-side.  The
        // CAS cannot race a live owner -- owners clear flags only while
        // pinned or in pin(), and either order leaves exactly one side
        // performing the quarantine decrement.
        if (f != 0) {
          std::uint32_t expected = f;
          if (s.flags.compare_exchange_strong(expected, 0,
                                              std::memory_order_acq_rel) &&
              (f & detail::ebr_slot::kQuarantined) != 0) {
            quarantined_.fetch_sub(1, std::memory_order_relaxed);
          }
        }
        s.observed_epoch = detail::ebr_slot::kQuiescent;
        continue;
      }
      ++r.pinned;
      if (e != s.observed_epoch) {
        // The reader made progress since the last pass: restart its clock.
        s.observed_epoch = e;
        s.observed_tsc = p.now_tsc;
        s.flagged_tsc = 0;
        continue;
      }
      if (e + p.min_epoch_lag > g) continue;  // pinned but not lagging
      const std::uint64_t age = p.now_tsc - s.observed_tsc;
      if (age < p.stall_age_ticks) continue;
      ++r.stalled;
      if ((f & detail::ebr_slot::kEvictRequested) == 0) {
        s.flags.fetch_or(detail::ebr_slot::kEvictRequested,
                         std::memory_order_acq_rel);
        s.flagged_tsc = p.now_tsc;
        ++r.flagged;
        LFST_VALUE(ebr_stall_age_ticks, age);
        LFST_MARK(ebr_stall, i);
      } else if (p.quarantine &&
                 (f & detail::ebr_slot::kQuarantined) == 0 &&
                 s.flagged_tsc != 0 &&
                 p.now_tsc - s.flagged_tsc >= p.eviction_grace_ticks) {
        // Quarantine via CAS from the exact flagged state: if the owner
        // self-evicted (exchange(0)) in between, the CAS fails and the slot
        // stays live.  A quarantined slot no longer blocks try_advance().
        std::uint32_t expected = detail::ebr_slot::kEvictRequested;
        if (s.flags.compare_exchange_strong(
                expected,
                detail::ebr_slot::kEvictRequested |
                    detail::ebr_slot::kQuarantined,
                std::memory_order_acq_rel)) {
          quarantined_.fetch_add(1, std::memory_order_relaxed);
          ++r.quarantined_now;
          LFST_MARK(ebr_quarantine, i);
          // The dead slot's limbo would otherwise rot until the domain
          // dies or the slot is re-acquired; park it on the overflow list
          // where normal drains can free it once its grace period passes.
          r.handoff_blocks += handoff_limbo(s);
        }
      }
    }
    r.quarantined = quarantined_.load(std::memory_order_relaxed);
    r.advanced = try_advance();
    const overflow_drain d = drain_overflow(p.escape_to_hazard);
    r.overflow_freed = d.freed;
    r.overflow_escaped = d.escaped;
    r.limbo_bytes = limbo_bytes_.load(std::memory_order_relaxed);
    r.overflow_bytes = overflow_bytes_.load(std::memory_order_relaxed);
    return r;
  }

 private:
  static constexpr std::uint64_t kAdvanceEvery = 64;

  // --- slot management -----------------------------------------------------

  detail::ebr_slot& my_slot() {
    // One thread may interleave operations on several domains (e.g. the
    // process-global domain plus a test-local one), so the thread-local
    // registry keeps a slot per domain rather than a single cached slot --
    // releasing another domain's slot mid-guard would unpin it.  Entries are
    // matched by (pointer, unique id) so a recycled domain address cannot
    // alias a stale entry.
    thread_local tls_registry reg;
    for (std::size_t i = 0; i < reg.count; ++i) {
      if (reg.entries[i].domain == this && reg.entries[i].domain_id == id_)
        return *reg.entries[i].slot;
    }
    std::size_t at = reg.count;
    if (at == tls_registry::kCapacity) {
      // Full: entries for since-destroyed domains are dead weight -- their
      // slots died with the domain.  Reuse the first such entry; only if
      // every tracked domain is still alive is the thread genuinely over
      // the limit, and that must be a hard error in every build mode (an
      // NDEBUG-stripped assert here would be an out-of-bounds write).
      std::lock_guard<std::mutex> g(live_registry().mu);
      for (std::size_t i = 0; i < reg.count; ++i) {
        if (live_registry().ids.count(reg.entries[i].domain_id) == 0) {
          at = i;
          break;
        }
      }
      if (at == tls_registry::kCapacity) {
        throw std::length_error(
            "ebr_domain: thread holds slots in more than 8 live domains");
      }
    }
    detail::ebr_slot& s = acquire_slot();
    reg.entries[at] = {this, id_, &s};
    if (at == reg.count) ++reg.count;
    return s;
  }

  // --- live-domain registry --------------------------------------------------

  static std::uint64_t next_domain_id() {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }

  struct domain_registry {
    std::mutex mu;
    std::unordered_set<std::uint64_t> ids;
  };

  static domain_registry& live_registry() {
    static domain_registry r;
    return r;
  }

  detail::ebr_slot& acquire_slot() {
    for (std::size_t i = 0; i < kMaxThreads; ++i) {
      bool expected = false;
      if (!slots_[i].in_use.load(std::memory_order_relaxed) &&
          slots_[i].in_use.compare_exchange_strong(
              expected, true, std::memory_order_acq_rel)) {
        // Grow the scan window to cover this slot.
        std::size_t hw = high_water_.load(std::memory_order_relaxed);
        while (hw < i + 1 && !high_water_.compare_exchange_weak(
                                 hw, i + 1, std::memory_order_acq_rel)) {
        }
        return slots_[i];
      }
    }
    throw std::length_error(
        "ebr_domain: more than kMaxThreads concurrent threads");
  }

  /// Thread-exit hook: unpin and return every held slot.  Limbo blocks stay
  /// in their slots; the next owner (or the domain destructor) reclaims them
  /// once the grace period allows.
  struct tls_registry {
    static constexpr std::size_t kCapacity = 8;
    struct entry {
      ebr_domain* domain = nullptr;
      std::uint64_t domain_id = 0;
      detail::ebr_slot* slot = nullptr;
    };
    entry entries[kCapacity];
    std::size_t count = 0;

    ~tls_registry() {
      // Release slots only for domains that are still alive; holding the
      // registry mutex across the slot writes keeps the release ordered
      // before any subsequent domain destruction.
      std::lock_guard<std::mutex> g(live_registry().mu);
      for (std::size_t i = 0; i < count; ++i) {
        if (live_registry().ids.count(entries[i].domain_id) == 0) continue;
        detail::ebr_slot* s = entries[i].slot;
        s->depth = 0;
        s->epoch.store(detail::ebr_slot::kQuiescent,
                       std::memory_order_release);
        // Clear eviction state so the next owner inherits a clean slot; the
        // domain is alive here (checked above), so its quarantine count is
        // safe to touch.
        const std::uint32_t f =
            s->flags.exchange(0, std::memory_order_acq_rel);
        if ((f & detail::ebr_slot::kQuarantined) != 0) {
          entries[i].domain->quarantined_.fetch_sub(
              1, std::memory_order_relaxed);
        }
        s->in_use.store(false, std::memory_order_release);
      }
    }
  };

  // --- epoch machinery -------------------------------------------------------

  void pin(detail::ebr_slot& s) {
    if (s.depth++ > 0) return;  // re-entrant guard
    // A previous owner (or a stale eviction request against us while
    // quiescent) may have left flags behind; clear them before publishing
    // so a fresh pin is never treated as stalled or quarantined.
    if (s.flags.load(std::memory_order_relaxed) != 0) {
      clear_flags(s);
    }
    std::uint64_t g = global_epoch_.load(std::memory_order_relaxed);
    for (;;) {
      LFST_FP_POINT("ebr.pin");
      s.epoch.store(g, std::memory_order_relaxed);
      // The fence orders the epoch publication before any structure read,
      // and pairs with the advancer's seq_cst accesses: an advancer that
      // misses our publication must itself have advanced before we started
      // reading, which keeps our pinned epoch within one of the global.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      const std::uint64_t g2 = global_epoch_.load(std::memory_order_seq_cst);
      if (g2 == g) break;
      g = g2;
    }
    s.pinned = g;
    collect(s);
  }

  void unpin(detail::ebr_slot& s) {
    assert(s.depth > 0);
    if (--s.depth == 0) {
      s.epoch.store(detail::ebr_slot::kQuiescent, std::memory_order_release);
      // Drop any eviction state now that we are quiescent, keeping the
      // domain's degraded-mode signal (quarantined_) accurate.
      if (s.flags.load(std::memory_order_relaxed) != 0) {
        clear_flags(s);
      }
    }
  }

  /// Owner-side flag clear; exactly one of owner/watchdog wins the
  /// exchange/CAS, so the quarantine count is decremented exactly once.
  void clear_flags(detail::ebr_slot& s) noexcept {
    const std::uint32_t f = s.flags.exchange(0, std::memory_order_acq_rel);
    if ((f & detail::ebr_slot::kQuarantined) != 0) {
      quarantined_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Cooperative-eviction safe point (called via guard::check()).  Fast
  /// path is one relaxed load of the slot's own cache line.  On a pending
  /// request with no nested guards, republish a fresh epoch and tell the
  /// caller to restart: every pointer it read under the old pin is invalid.
  bool maybe_self_evict(detail::ebr_slot& s) {
    if (s.flags.load(std::memory_order_relaxed) == 0) return false;
    if (s.depth != 1) return false;  // outermost guard owns the restart
    clear_flags(s);
    std::uint64_t g = global_epoch_.load(std::memory_order_relaxed);
    for (;;) {
      s.epoch.store(g, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      const std::uint64_t g2 = global_epoch_.load(std::memory_order_seq_cst);
      if (g2 == g) break;
      g = g2;
    }
    s.pinned = g;
    LFST_COUNT(ebr_self_evictions);
    return true;
  }

  /// Advance the global epoch if every pinned, non-quarantined thread has
  /// observed it.  Quarantined slots are declared failed and skipped -- this
  /// is what unpins the epoch from a dead reader.
  bool try_advance() {
    LFST_SPAN(ebr_try_advance);
    LFST_FP_POINT("ebr.advance");
    const std::uint64_t g = global_epoch_.load(std::memory_order_seq_cst);
    const std::size_t n = high_water_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t e =
          slots_[i].epoch.load(std::memory_order_seq_cst);
      if (e != detail::ebr_slot::kQuiescent && e != g) {
        if ((slots_[i].flags.load(std::memory_order_acquire) &
             detail::ebr_slot::kQuarantined) != 0) {
          continue;
        }
        LFST_COUNT(ebr_advance_stalls);
        return false;
      }
    }
    std::uint64_t expected = g;
    if (global_epoch_.compare_exchange_strong(expected, g + 1,
                                              std::memory_order_seq_cst)) {
      LFST_MARK(ebr_advance, g + 1);
    }
    return true;  // advanced, or somebody else did
  }

  /// Put `b` in the bucket for epoch `e`, first reclaiming any stale
  /// generation occupying that bucket (it is at least three epochs old, so
  /// its grace period has long expired).  Caller holds s.limbo_lock.
  void stash(detail::ebr_slot& s, std::uint64_t e, retired_block b) {
    const int bucket = static_cast<int>(e % 3);
    if (s.limbo_epoch[bucket] != e) {
      if (!s.limbo[bucket].empty()) {
        account_limbo_sub(s.limbo[bucket].size(), s.limbo[bucket].bytes());
        s.limbo[bucket].reclaim_all();
      }
      s.limbo_epoch[bucket] = e;
    }
    s.limbo[bucket].push(b);
  }

  /// Reclaim this thread's buckets whose grace period has elapsed.
  void collect(detail::ebr_slot& s) {
    const std::uint64_t g = global_epoch_.load(std::memory_order_acquire);
    s.lock_limbo();
    for (int b = 0; b < 3; ++b) {
      if (!s.limbo[b].empty() && s.limbo_epoch[b] + 2 <= g) {
        account_limbo_sub(s.limbo[b].size(), s.limbo[b].bytes());
        s.limbo[b].reclaim_all();
      }
    }
    s.unlock_limbo();
  }

  // --- limbo accounting ------------------------------------------------------

  static void raise_hwm(std::atomic<std::size_t>& hwm,
                        std::size_t v) noexcept {
    std::size_t cur = hwm.load(std::memory_order_relaxed);
    while (cur < v && !hwm.compare_exchange_weak(cur, v,
                                                 std::memory_order_relaxed)) {
    }
  }

  /// Reserve `bytes` of limbo budget, or refuse when a non-zero cap would
  /// be exceeded.  The reservation is a CAS *before* the stash, so the cap
  /// is never overshot even transiently by racing retirers -- the invariant
  /// `limbo_bytes_hwm <= max_limbo_bytes` is exact, not approximate.
  bool reserve_limbo_bytes(std::size_t bytes) noexcept {
    if (bytes == 0) return true;  // unknown size: cannot be capped
    const std::size_t cap = max_limbo_bytes_.load(std::memory_order_relaxed);
    std::size_t cur = limbo_bytes_.load(std::memory_order_relaxed);
    for (;;) {
      if (cap != 0 && cur + bytes > cap) return false;
      if (limbo_bytes_.compare_exchange_weak(cur, cur + bytes,
                                             std::memory_order_relaxed)) {
        const std::size_t nb = cur + bytes;
        raise_hwm(limbo_bytes_hwm_, nb);
        LFST_VALUE(ebr_limbo_bytes, nb);
        return true;
      }
    }
  }

  void account_limbo_sub(std::size_t blocks, std::size_t bytes) noexcept {
    limbo_blocks_.fetch_sub(blocks, std::memory_order_relaxed);
    if (bytes != 0) limbo_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  // --- overflow list ---------------------------------------------------------

  struct overflow_entry {
    retired_block block;
    std::uint64_t epoch = 0;  // retire-time tag; free rule global >= tag + 2
  };

  struct overflow_drain {
    std::size_t freed = 0;
    std::size_t escaped = 0;
  };

  void defer_to_overflow(retired_block b, std::uint64_t e) {
    {
      std::lock_guard<std::mutex> lk(overflow_mu_);
      overflow_.push_back(overflow_entry{b, e});
    }
    overflow_blocks_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t nb =
        overflow_bytes_.fetch_add(b.bytes, std::memory_order_relaxed) +
        b.bytes;
    raise_hwm(overflow_bytes_hwm_, nb);
    LFST_VALUE(ebr_overflow_bytes, nb);
  }

  /// Move a quarantined slot's limbo onto the overflow list, keeping each
  /// block's generation tag so the free rule stays exact.  Returns blocks
  /// moved (0 when the owner holds the limbo lock -- retried next tick).
  std::size_t handoff_limbo(detail::ebr_slot& s) {
    if (!s.try_lock_limbo()) return 0;
    std::size_t moved = 0;
    std::size_t moved_bytes = 0;
    {
      std::lock_guard<std::mutex> lk(overflow_mu_);
      for (int b = 0; b < 3; ++b) {
        if (s.limbo[b].empty()) continue;
        const std::uint64_t tag = s.limbo_epoch[b];
        moved_bytes += s.limbo[b].bytes();
        for (retired_block& blk : s.limbo[b].blocks()) {
          overflow_.push_back(overflow_entry{blk, tag});
          ++moved;
        }
        s.limbo[b].take();
      }
    }
    s.unlock_limbo();
    if (moved != 0) {
      account_limbo_sub(moved, moved_bytes);
      overflow_blocks_.fetch_add(moved, std::memory_order_relaxed);
      const std::size_t nb = overflow_bytes_.fetch_add(
                                 moved_bytes, std::memory_order_relaxed) +
                             moved_bytes;
      raise_hwm(overflow_bytes_hwm_, nb);
      LFST_VALUE(ebr_overflow_bytes, nb);
      LFST_COUNT(ebr_limbo_handoffs);
    }
    return moved;
  }

  /// Free overflow entries whose grace period has elapsed.  While any slot
  /// is quarantined the epoch advanced *past* a declared-failed reader, so
  /// expired blocks are "at risk" with respect to that reader: route them
  /// through the hazard-pointer domain (if enabled) so readers that migrate
  /// to hazard protection stay safe, instead of freeing blind.
  overflow_drain drain_overflow(bool allow_escape) {
    overflow_drain r;
    if (overflow_blocks_.load(std::memory_order_relaxed) == 0) return r;
    const std::uint64_t g = global_epoch_.load(std::memory_order_acquire);
    std::vector<overflow_entry> expired;
    {
      std::lock_guard<std::mutex> lk(overflow_mu_);
      std::size_t kept = 0;
      for (overflow_entry& e : overflow_) {
        if (e.epoch + 2 <= g) {
          expired.push_back(e);
        } else {
          overflow_[kept++] = e;
        }
      }
      overflow_.resize(kept);
    }
    if (expired.empty()) return r;
    std::size_t bytes = 0;
    hp_domain* escape = escape_.load(std::memory_order_acquire);
    const bool degraded =
        quarantined_.load(std::memory_order_relaxed) > 0 && allow_escape &&
        escape != nullptr;
    for (const overflow_entry& e : expired) {
      bytes += e.block.bytes;
      if (degraded) {
        escape->retire(e.block);
        ++r.escaped;
        LFST_COUNT(ebr_escape_frees);
      } else {
        e.block.reclaim();
        ++r.freed;
      }
    }
    if (degraded) escape->scan_now();
    overflow_blocks_.fetch_sub(expired.size(), std::memory_order_relaxed);
    overflow_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    return r;
  }

  const std::uint64_t id_;
  std::atomic<std::uint64_t> global_epoch_{1};
  std::atomic<std::size_t> high_water_{0};

  // Bounded-limbo state.
  std::atomic<std::size_t> max_limbo_bytes_{0};
  std::atomic<std::size_t> limbo_blocks_{0};
  std::atomic<std::size_t> limbo_bytes_{0};
  std::atomic<std::size_t> limbo_bytes_hwm_{0};
  std::atomic<std::size_t> quarantined_{0};
  std::atomic<hp_domain*> escape_{&hp_domain::global()};
  std::mutex overflow_mu_;
  std::vector<overflow_entry> overflow_;
  std::atomic<std::size_t> overflow_blocks_{0};
  std::atomic<std::size_t> overflow_bytes_{0};
  std::atomic<std::size_t> overflow_bytes_hwm_{0};

  detail::ebr_slot slots_[kMaxThreads];

  friend class guard;

 public:
  /// RAII epoch pin.  All reads of a protected structure, and all retire()
  /// calls, must happen inside a guard's lifetime.
  class guard {
   public:
    explicit guard(ebr_domain& d) : domain_(d), slot_(d.my_slot()) {
      domain_.pin(slot_);
    }
    ~guard() { domain_.unpin(slot_); }
    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;

    /// Cooperative-eviction safe point.  Returns true when the watchdog
    /// asked this reader to move: the pin has been republished at the
    /// current epoch and EVERY pointer read before the call is invalid --
    /// the caller must restart its traversal from a root.  One relaxed
    /// load on the slot's own cache line when no request is pending.
    bool check() noexcept { return domain_.maybe_self_evict(slot_); }

   private:
    ebr_domain& domain_;
    detail::ebr_slot& slot_;
  };
};

/// Reclamation policy adapter used by the data structures: EBR flavour.
struct ebr_policy {
  using domain_type = ebr_domain;
  using guard_type = ebr_domain::guard;

  static domain_type& default_domain() { return ebr_domain::global(); }

  template <typename T>
  static void retire(domain_type& d, T* p) {
    d.retire(p);
  }
  static void retire(domain_type& d, retired_block b) { d.retire(b); }
  static void quiescent_flush(domain_type& d) { d.flush(); }
};

}  // namespace lfst::reclaim
