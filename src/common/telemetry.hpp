// The instrumentation plane: one event vocabulary, one registry, one ring.
//
// The paper evaluates the skip-tree by end-to-end throughput alone, but its
// lock-free progress argument lives in internal events -- CAS retries,
// empty-node bypasses, the four Fig. 8 compaction transforms, EBR epoch
// lag.  Every such event across the four structures (skip-tree, skip-list,
// Michael-Harris list, B-link tree), the allocator pool, the reclamation
// domain and the storage engine is declared ONCE, in LFST_TELEMETRY_EVENTS
// below, as a name plus a kind:
//
//   count  a counter (sharded relaxed fetch_add, exact after writers join);
//   value  a quantile sketch (qsketch.hpp): count, sum, exact max and
//          quantiles with <= 1/32 relative error, exact below 16;
//   mark   a counter plus an instant record in the calling thread's ring;
//   span   a ring record [t0, t1] carrying the CAS retries and traversal
//          steps charged to it, plus a duration sketch.
//
// One site macro per kind (LFST_COUNT, LFST_VALUE, LFST_MARK, LFST_SPAN;
// LFST_RETRY / LFST_STEP charge the innermost live span).  Which sites
// compile in is fixed per event by the table's gate column, under two
// switches:
//
//   * LFST_METRICS (CMake option, default OFF) compiles in every site.
//     These are debug views: adding them to the repository benchmark costs
//     8.8% (counters and marks) to 18.5% (with per-op spans) of throughput,
//     so they cannot be a runtime switch on the hot path.
//   * LFST_TELEMETRY (default ON) compiles in only the events gated
//     `telemetry` or `sampled`: the storage timings, every occurrence, and
//     the skip-tree add/remove/contains spans, which without LFST_METRICS
//     shrink to a 1-in-64 sampled timer feeding the span's duration sketch.
//
// A site that is compiled out generates no code: its arguments sit in a
// discarded `if constexpr` branch, so they are type-checked in every build
// but never evaluated.  The registry machinery itself is always compiled,
// so the unit suite exercises it in every configuration.
//
// Around the events the registry keeps one tsc -> microsecond calibration,
// a set of gauge SOURCES (WAL lag, watchdog and health gauges) polled by an
// optional background sampler, and a seqlock-protected ring of samples.
// registry::capture() gathers all of it; telemetry_export.hpp writes a
// snapshot as JSON-lines, Prometheus text and Perfetto JSON under the same
// event names.
//
// Memory-order contract: every hot-path store is relaxed and synchronizes
// with nothing.  Reads aggregate per-shard relaxed loads, so they are exact
// after the writing threads have joined and approximate (never torn per
// slot) while they run.
//
// The per-structure INSTANCE counters (e.g. skip_tree::stats()) are not
// this registry: tests assert exact per-tree counts, which a process-wide
// slot cannot give them.  `instance_counters<Enum>` below implements them.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/align.hpp"
#include "common/qsketch.hpp"

namespace lfst::telemetry {

// --- the event table ---------------------------------------------------------

enum class kind : std::uint8_t { count, value, mark, span };

/// Which builds compile an event's sites in.  LFST_METRICS compiles in every
/// event; without it, `telemetry` events record every occurrence and
/// `sampled` spans one operation in kSampleStride, both under LFST_TELEMETRY.
enum class gate : std::uint8_t { metrics, telemetry, sampled };

// X(id, name, kind, gate).  Spans and values come first: their enumerator is
// also their sketch index.  Span durations are tsc ticks (exported in
// microseconds); values are exported as recorded.
#define LFST_TELEMETRY_EVENTS(X)                                              \
  X(skiptree_contains, "skiptree.contains", span, sampled)                    \
  X(skiptree_add, "skiptree.add", span, sampled)                              \
  X(skiptree_remove, "skiptree.remove", span, sampled)                        \
  X(skiplist_contains, "skiplist.contains", span, metrics)                    \
  X(skiplist_add, "skiplist.add", span, metrics)                              \
  X(skiplist_remove, "skiplist.remove", span, metrics)                        \
  X(harris_contains, "harris.contains", span, metrics)                        \
  X(harris_add, "harris.add", span, metrics)                                  \
  X(harris_remove, "harris.remove", span, metrics)                            \
  X(blink_contains, "blink.contains", span, metrics)                          \
  X(blink_add, "blink.add", span, metrics)                                    \
  X(blink_remove, "blink.remove", span, metrics)                              \
  X(pool_refill, "pool.refill", span, metrics)                                \
  X(ebr_try_advance, "ebr.try_advance", span, metrics)                        \
  X(health_probe, "skiptree.health_probe", span, metrics)                     \
  X(watchdog_tick, "reclaim.watchdog_tick", span, metrics)                    \
  X(wal_flush, "storage.wal.flush", span, metrics)                            \
  X(wal_fsync, "storage.wal.fsync", span, telemetry)                          \
  X(wal_commit, "storage.wal.commit", span, telemetry)                        \
  X(checkpoint, "storage.checkpoint", span, telemetry)                        \
  X(replay, "storage.replay", span, metrics)                                  \
  X(skiptree_cas_retries_per_op, "skiptree.cas_retries_per_op", value,        \
    metrics)                                                                  \
  X(skiptree_traversal_depth, "skiptree.traversal_depth", value, metrics)     \
  X(health_backlog, "skiptree.health_backlog", value, metrics)                \
  X(health_occupancy_pct, "skiptree.health_occupancy_pct", value, metrics)    \
  X(ebr_limbo_depth, "ebr.limbo_depth", value, metrics)                       \
  X(ebr_limbo_bytes, "ebr.limbo_bytes", value, metrics)                       \
  X(ebr_overflow_bytes, "ebr.overflow_bytes", value, metrics)                 \
  X(ebr_stall_age_ticks, "ebr.stall_age_ticks", value, metrics)               \
  X(wal_batch, "storage.wal.batch", value, telemetry)                         \
  X(wal_append_bytes, "storage.wal.append_bytes", value, metrics)             \
  X(skiptree_split, "skiptree.split", mark, metrics)                          \
  X(skiptree_root_raise, "skiptree.root_raise", mark, metrics)                \
  X(skiptree_compact_8a, "skiptree.compact_8a", mark, metrics)                \
  X(skiptree_compact_8b, "skiptree.compact_8b", mark, metrics)                \
  X(skiptree_compact_8c, "skiptree.compact_8c", mark, metrics)                \
  X(skiptree_compact_8d, "skiptree.compact_8d", mark, metrics)                \
  X(ebr_advance, "ebr.advance", mark, metrics)                                \
  X(ebr_stall, "ebr.stall", mark, metrics)                                    \
  X(ebr_quarantine, "ebr.quarantine", mark, metrics)                          \
  X(skiptree_cas_failures, "skiptree.cas_failures", count, metrics)           \
  X(skiptree_alloc_failures, "skiptree.alloc_failures", count, metrics)       \
  X(skiptree_compactions_skipped, "skiptree.compactions_skipped", count,      \
    metrics)                                                                  \
  X(harris_add_retries, "harris.add_retries", count, metrics)                 \
  X(harris_remove_retries, "harris.remove_retries", count, metrics)           \
  X(harris_physical_removals, "harris.physical_removals", count, metrics)     \
  X(skiplist_add_retries, "skiplist.add_retries", count, metrics)             \
  X(skiplist_remove_retries, "skiplist.remove_retries", count, metrics)       \
  X(skiplist_physical_unlinks, "skiplist.physical_unlinks", count, metrics)   \
  X(blink_splits, "blink.splits", count, metrics)                             \
  X(blink_root_splits, "blink.root_splits", count, metrics)                   \
  X(blink_deferred_splits, "blink.deferred_splits", count, metrics)           \
  X(blink_half_split_repairs, "blink.half_split_repairs", count, metrics)     \
  X(blink_half_splits_left, "blink.half_splits_left", count, metrics)         \
  X(pool_hits, "pool.hits", count, metrics)                                   \
  X(pool_slab_carves, "pool.slab_carves", count, metrics)                     \
  X(pool_fallbacks, "pool.fallbacks", count, metrics)                         \
  X(pool_spills, "pool.spills", count, metrics)                               \
  X(pool_foreign_frees, "pool.foreign_frees", count, metrics)                 \
  X(pool_pressure_trims, "pool.pressure_trims", count, metrics)               \
  X(ebr_retires, "ebr.retires", count, metrics)                               \
  X(ebr_advance_stalls, "ebr.advance_stalls", count, metrics)                 \
  X(ebr_self_evictions, "ebr.self_evictions", count, metrics)                 \
  X(ebr_limbo_handoffs, "ebr.limbo_handoffs", count, metrics)                 \
  X(ebr_cap_deferrals, "ebr.cap_deferrals", count, metrics)                   \
  X(ebr_escape_frees, "ebr.escape_frees", count, metrics)                     \
  X(wal_rotations, "storage.wal.rotations", count, metrics)                   \
  X(replay_records, "storage.replay.records", count, metrics)

#define LFST_TELEMETRY_ID_(id_, name_, kind_, gate_) id_,
enum class ev : std::uint16_t { LFST_TELEMETRY_EVENTS(LFST_TELEMETRY_ID_) };
#undef LFST_TELEMETRY_ID_

struct event_info {
  std::string_view name;
  telemetry::kind kind;
  telemetry::gate gate;
};

#define LFST_TELEMETRY_INFO_(id_, name_, kind_, gate_) \
  event_info{name_, kind::kind_, gate::gate_},
inline constexpr event_info kEvents[] = {
    LFST_TELEMETRY_EVENTS(LFST_TELEMETRY_INFO_)};
#undef LFST_TELEMETRY_INFO_

inline constexpr std::size_t kEventCount = std::size(kEvents);

constexpr const event_info& info(ev e) noexcept {
  return kEvents[static_cast<std::size_t>(e)];
}
constexpr std::string_view name_of(ev e) noexcept { return info(e).name; }
constexpr kind kind_of(ev e) noexcept { return info(e).kind; }

/// Spans and values carry a sketch; counts and marks a counter.
constexpr bool has_sketch(ev e) noexcept {
  return kind_of(e) == kind::span || kind_of(e) == kind::value;
}

/// Number of sketch-carrying events: they lead the table, so an event's
/// enumerator is its sketch index.
inline constexpr std::size_t kSketchCount = [] {
  std::size_t n = 0;
  while (n < kEventCount && has_sketch(static_cast<ev>(n))) ++n;
  return n;
}();

static_assert(
    [] {
      for (std::size_t i = kSketchCount; i < kEventCount; ++i) {
        if (has_sketch(static_cast<ev>(i))) return false;
      }
      return true;
    }(),
    "spans and values must precede marks and counts in the event table");
static_assert(
    [] {
      for (const event_info& e : kEvents) {
        if (e.gate == gate::sampled && e.kind != kind::span) return false;
        if (e.gate != gate::metrics &&
            (e.kind == kind::count || e.kind == kind::mark)) {
          return false;
        }
      }
      return true;
    }(),
    "only spans sample; counts and marks are LFST_METRICS views");

#if defined(LFST_METRICS)
inline constexpr bool kMetricsBuild = true;
#else
inline constexpr bool kMetricsBuild = false;
#endif
#if defined(LFST_TELEMETRY)
inline constexpr bool kTelemetryBuild = true;
#else
inline constexpr bool kTelemetryBuild = false;
#endif

/// True when `e`'s sites are compiled into this build.
constexpr bool live(ev e) noexcept {
  return kMetricsBuild || (kTelemetryBuild && info(e).gate != gate::metrics);
}

/// One operation in kSampleStride is timed by a `sampled` span's site in a
/// build without LFST_METRICS.
inline constexpr unsigned kSampleStride = 64;

// --- time source -------------------------------------------------------------

/// Cheap monotonic-enough timestamp: the time-stamp counter on x86 (one
/// instruction, no serialization -- cross-core ordering is best-effort by
/// design), steady_clock nanoseconds elsewhere.
inline std::uint64_t tsc_now() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

// --- per-thread ring ---------------------------------------------------------

/// One drained ring record.  A mark has t0 == t1 and its payload in `arg`;
/// a span packs (retries << 32 | steps) into `arg`.
struct ring_record {
  ev id{};
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::uint64_t arg = 0;
  std::uint64_t thread = 0;  ///< ring index of the recording thread

  std::uint32_t retries() const noexcept {
    return static_cast<std::uint32_t>(arg >> 32);
  }
  std::uint32_t steps() const noexcept {
    return static_cast<std::uint32_t>(arg & 0xffffffffu);
  }
  static std::uint64_t pack(std::uint32_t retries,
                            std::uint32_t steps) noexcept {
    return (static_cast<std::uint64_t>(retries) << 32) | steps;
  }
};

/// Fixed-capacity ring written by one thread at a time (rings are recycled
/// across threads, never shared concurrently).  Wraparound overwrites the
/// oldest record.  Fields are relaxed atomics, so a concurrent drain reads
/// torn records at worst; exact dumps require quiescence.
class ring {
 public:
  static constexpr std::size_t kCapacity = 8192;

  void push(ev id, std::uint64_t t0, std::uint64_t t1,
            std::uint64_t arg) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    slot& s = slots_[h % kCapacity];
    s.id.store(static_cast<std::uint16_t>(id), std::memory_order_relaxed);
    s.t0.store(t0, std::memory_order_relaxed);
    s.t1.store(t1, std::memory_order_relaxed);
    s.arg.store(arg, std::memory_order_relaxed);
    head_.store(h + 1, std::memory_order_release);
  }

  /// Append the surviving records (oldest first) to `out`.
  void drain_into(std::vector<ring_record>& out, std::uint64_t thread) const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t n = h < kCapacity ? h : kCapacity;
    for (std::uint64_t i = h - n; i < h; ++i) {
      const slot& s = slots_[i % kCapacity];
      out.push_back(ring_record{
          static_cast<ev>(s.id.load(std::memory_order_relaxed)),
          s.t0.load(std::memory_order_relaxed),
          s.t1.load(std::memory_order_relaxed),
          s.arg.load(std::memory_order_relaxed), thread});
    }
  }

  /// Monotone number of records ever pushed (wraparound does not reset it).
  std::uint64_t pushed() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { head_.store(0, std::memory_order_relaxed); }

 private:
  struct slot {
    std::atomic<std::uint16_t> id{0};
    std::atomic<std::uint64_t> t0{0};
    std::atomic<std::uint64_t> t1{0};
    std::atomic<std::uint64_t> arg{0};
  };
  std::atomic<std::uint64_t> head_{0};
  std::array<slot, kCapacity> slots_{};
};

// --- snapshots ---------------------------------------------------------------

/// Per-sketch columns of the sample time series, in column order.
inline constexpr std::array<std::string_view, 6> kSketchStats = {
    "p50", "p90", "p99", "p999", "max", "count"};
inline constexpr std::size_t kSketchColumns =
    kSketchCount * kSketchStats.size();

/// One sample of the gauge/sketch time series: the first kSketchColumns
/// columns derive from sketches, the rest from gauge sources.
struct sample_view {
  static constexpr std::size_t kMaxSeries = 256;
  static_assert(kSketchColumns < kMaxSeries);
  std::uint64_t sample_no = 0;
  double wall_ms = 0;
  std::array<double, kMaxSeries> values{};
};

/// Everything the exporters consume, gathered at one instant.  Exact when
/// the recording threads have quiesced.
struct snapshot {
  double ticks_per_us = 1.0;
  std::array<std::uint64_t, kEventCount> counters{};  ///< counts and marks
  std::vector<qsketch_snapshot> sketches;  ///< spans and values, by index
  std::vector<ring_record> records;        ///< ordered by t0
  std::vector<std::string> series;         ///< sample column names
  std::vector<sample_view> samples;        ///< oldest first

  /// Occurrences of `e`: its counter, or its sketch's sample count.
  std::uint64_t total(ev e) const noexcept {
    return has_sketch(e) ? sketch(e).count
                         : counters[static_cast<std::size_t>(e)];
  }
  const qsketch_snapshot& sketch(ev e) const noexcept {
    return sketches[static_cast<std::size_t>(e)];
  }
};

// --- registry ----------------------------------------------------------------

/// The process-wide plane: a leaky singleton (like the failpoint registry
/// and the allocator pool) so it outlives every thread that may record
/// into it at exit.
class registry {
 public:
  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kMaxSeries = sample_view::kMaxSeries;
  static constexpr std::size_t kSampleCapacity = 256;

  static registry& instance() {
    static registry* r = new registry;
    return *r;
  }

  // --- recording (relaxed) ---------------------------------------------------

  void count(ev e, std::uint64_t n = 1) noexcept {
    shards_[thread_index() % kShards]
        .counters[static_cast<std::size_t>(e)]
        .fetch_add(n, std::memory_order_relaxed);
  }

  void mark(ev e, std::uint64_t payload) noexcept {
    count(e);
    const std::uint64_t t = tsc_now();
    my_ring().push(e, t, t, payload);
  }

  void record(ev e, std::uint64_t v) noexcept {
    sketches_[static_cast<std::size_t>(e)].record(v);
  }

  void close_span(ev e, std::uint64_t t0, std::uint64_t t1,
                  std::uint32_t retries, std::uint32_t steps) noexcept {
    my_ring().push(e, t0, t1, ring_record::pack(retries, steps));
    record(e, t1 >= t0 ? t1 - t0 : 0);
  }

  // --- reading (quiesce for exactness) ---------------------------------------

  std::uint64_t counter(ev e) const noexcept {
    std::uint64_t total = 0;
    for (const shard& s : shards_) {
      total += s.counters[static_cast<std::size_t>(e)].load(
          std::memory_order_relaxed);
    }
    return total;
  }

  qsketch_snapshot sketch(ev e) const noexcept {
    return sketches_[static_cast<std::size_t>(e)].snapshot();
  }

  /// Every thread's ring merged into one dump ordered by t0.
  std::vector<ring_record> drain() const {
    std::vector<ring_record> out;
    std::lock_guard<std::mutex> g(rings_mu_);
    for (std::size_t i = 0; i < rings_.size(); ++i) {
      rings_[i]->r.drain_into(out, i);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const ring_record& a, const ring_record& b) {
                       return a.t0 < b.t0;
                     });
    return out;
  }

  /// tsc ticks per microsecond, measured since the registry was built
  /// (spins out to a 500 us baseline if asked sooner; never on a hot path).
  double ticks_per_us() const noexcept {
    for (;;) {
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - wall0_)
                            .count();
      if (us >= 500.0) {
        return static_cast<double>(tsc_now() - tsc0_) / us;
      }
      std::this_thread::yield();
    }
  }

  /// Counters, sketches, ring records and samples at one instant.
  snapshot capture() const {
    snapshot s;
    s.ticks_per_us = ticks_per_us();
    for (std::size_t i = kSketchCount; i < kEventCount; ++i) {
      s.counters[i] = counter(static_cast<ev>(i));
    }
    s.sketches.reserve(kSketchCount);
    for (const qsketch& q : sketches_) s.sketches.push_back(q.snapshot());
    s.records = drain();
    {
      std::lock_guard<std::mutex> lk(sources_mu_);
      s.series = names_;
    }
    s.samples = read_samples();
    return s;
  }

  // --- gauge sources and the sample ring -------------------------------------

  /// `fill` writes one double per series name, in order, each sample.  It
  /// runs on the sampling thread and must not block on locks the hot path
  /// holds for long.  Returns a token for unregister_source.
  using fill_fn = std::function<void(double*)>;

  std::size_t register_source(const std::string& prefix,
                              const std::vector<std::string>& series,
                              fill_fn fill) {
    std::lock_guard<std::mutex> lk(sources_mu_);
    source src;
    src.token = next_token_++;
    for (const auto& s : series) {
      src.columns.push_back(column_for_locked(prefix + "." + s));
    }
    src.fill = std::move(fill);
    sources_.push_back(std::move(src));
    return sources_.back().token;
  }

  void unregister_source(std::size_t token) {
    std::lock_guard<std::mutex> lk(sources_mu_);
    std::erase_if(sources_,
                  [token](const source& s) { return s.token == token; });
  }

  /// Take one sample now (also what the background sampler calls): every
  /// registered source, plus p50/p90/p99/p999/max/count of every non-empty
  /// sketch (an empty sketch's columns stay NaN and are not exported).
  void sample_now() {
    std::lock_guard<std::mutex> lk(sample_mu_);
    std::array<double, kMaxSeries> staging;
    staging.fill(std::numeric_limits<double>::quiet_NaN());
    const double tpu = ticks_per_us();
    for (std::size_t i = 0; i < kSketchCount; ++i) {
      const qsketch_snapshot q = sketches_[i].snapshot();
      if (q.count == 0) continue;
      const double div = kEvents[i].kind == kind::span ? tpu : 1.0;
      double* col = &staging[i * kSketchStats.size()];
      col[0] = q.quantile(0.50) / div;
      col[1] = q.quantile(0.90) / div;
      col[2] = q.quantile(0.99) / div;
      col[3] = q.quantile(0.999) / div;
      col[4] = static_cast<double>(q.max) / div;
      col[5] = static_cast<double>(q.count);
    }
    {
      std::lock_guard<std::mutex> slk(sources_mu_);
      std::array<double, kMaxSeries> tmp;
      for (const source& src : sources_) {
        // A source that declines to fill (no data yet) publishes NaN.
        std::fill_n(tmp.begin(), src.columns.size(),
                    std::numeric_limits<double>::quiet_NaN());
        src.fill(tmp.data());
        for (std::size_t i = 0; i < src.columns.size(); ++i) {
          staging[src.columns[i]] = tmp[i];
        }
      }
    }

    // Publish under the slot's seqlock: odd = in progress, even = stable.
    const std::uint64_t n = samples_.fetch_add(1, std::memory_order_relaxed);
    sample_slot& sl = ring_[n % kSampleCapacity];
    sl.seq.store(2 * n + 1, std::memory_order_release);
    sl.sample_no.store(n, std::memory_order_relaxed);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - wall0_)
                               .count();
    sl.wall_ms_bits.store(std::bit_cast<std::uint64_t>(wall_ms),
                          std::memory_order_relaxed);
    for (std::size_t i = 0; i < kMaxSeries; ++i) {
      sl.values[i].store(std::bit_cast<std::uint64_t>(staging[i]),
                         std::memory_order_relaxed);
    }
    sl.seq.store(2 * n + 2, std::memory_order_release);
  }

  std::uint64_t samples_taken() const noexcept {
    return samples_.load(std::memory_order_relaxed);
  }

  /// Copy the ring's stable samples, oldest first.  A slot overwritten
  /// mid-read is retried, then skipped (the sampler lapped the reader).
  std::vector<sample_view> read_samples() const {
    std::vector<sample_view> out;
    const std::uint64_t n = samples_.load(std::memory_order_acquire);
    const std::uint64_t lo = n > kSampleCapacity ? n - kSampleCapacity : 0;
    for (std::uint64_t i = lo; i < n; ++i) {
      const sample_slot& sl = ring_[i % kSampleCapacity];
      sample_view v;
      bool ok = false;
      for (int attempt = 0; attempt < 4 && !ok; ++attempt) {
        const std::uint64_t s0 = sl.seq.load(std::memory_order_acquire);
        if (s0 == 0 || (s0 & 1u)) continue;  // unwritten or in progress
        v.sample_no = sl.sample_no.load(std::memory_order_relaxed);
        v.wall_ms = std::bit_cast<double>(
            sl.wall_ms_bits.load(std::memory_order_relaxed));
        for (std::size_t c = 0; c < kMaxSeries; ++c) {
          v.values[c] = std::bit_cast<double>(
              sl.values[c].load(std::memory_order_relaxed));
        }
        std::atomic_thread_fence(std::memory_order_acquire);
        ok = sl.seq.load(std::memory_order_relaxed) == s0;
      }
      if (ok && v.sample_no == i) out.push_back(v);
    }
    return out;
  }

  /// Column index -> series name (append-only).
  std::vector<std::string> series_names() const {
    std::lock_guard<std::mutex> lk(sources_mu_);
    return names_;
  }

  /// Start the background sampler (idempotent).
  void start(std::chrono::milliseconds interval) {
    std::lock_guard<std::mutex> lk(thread_mu_);
    if (thread_.joinable()) return;
    stop_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this, interval] {
      std::unique_lock<std::mutex> lk2(wake_mu_);
      while (!stop_.load(std::memory_order_relaxed)) {
        lk2.unlock();
        sample_now();
        lk2.lock();
        wake_cv_.wait_for(lk2, interval, [this] {
          return stop_.load(std::memory_order_relaxed);
        });
      }
    });
  }

  void stop() {
    std::lock_guard<std::mutex> lk(thread_mu_);
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> wlk(wake_mu_);
      stop_.store(true, std::memory_order_relaxed);
    }
    wake_cv_.notify_all();
    thread_.join();
  }

  /// Zero every counter, sketch and ring and forget the samples.  The
  /// series schema is kept (append-only by design).  Quiesce writers first.
  void reset() {
    for (shard& s : shards_) {
      for (auto& c : s.counters) c.store(0, std::memory_order_relaxed);
    }
    for (qsketch& q : sketches_) q.reset();
    {
      std::lock_guard<std::mutex> g(rings_mu_);
      for (const auto& r : rings_) r->r.reset();
    }
    std::lock_guard<std::mutex> lk(sample_mu_);
    samples_.store(0, std::memory_order_relaxed);
    for (auto& sl : ring_) sl.seq.store(0, std::memory_order_relaxed);
  }

  /// Stable small integer per thread, assigned on first use.
  static std::uint64_t thread_index() noexcept {
    static std::atomic<std::uint64_t> next{0};
    thread_local const std::uint64_t idx =
        next.fetch_add(1, std::memory_order_relaxed);
    return idx;
  }

 private:
  registry() : wall0_(std::chrono::steady_clock::now()), tsc0_(tsc_now()) {
    // The sketch columns lead the schema, kSketchStats per sketch in table
    // order; span statistics are in microseconds.
    for (std::size_t i = 0; i < kSketchCount; ++i) {
      const bool span = kEvents[i].kind == kind::span;
      for (const std::string_view stat : kSketchStats) {
        std::string name(kEvents[i].name);
        name.append(".").append(stat);
        if (span && stat != "count") name += "_us";
        names_.push_back(std::move(name));
      }
    }
  }

  struct alignas(kFalseSharingRange) shard {
    std::array<std::atomic<std::uint64_t>, kEventCount> counters{};
  };

  // Rings are leased per thread on first use and returned, contents
  // intact, when the thread exits.  The next fresh lease recycles a dead
  // thread's ring and appends after its tail: those records were really
  // pushed, so wiping them would only lose a short-lived thread's output.
  struct owned_ring {
    telemetry::ring r;
    std::atomic<bool> leased{false};
  };
  struct ring_lease {
    owned_ring* ring = nullptr;
    ~ring_lease() {
      if (ring != nullptr) ring->leased.store(false, std::memory_order_release);
    }
  };

  ring& my_ring() {
    thread_local ring_lease lease;
    if (lease.ring == nullptr) lease.ring = &acquire_ring();
    return lease.ring->r;
  }

  owned_ring& acquire_ring() {
    std::lock_guard<std::mutex> g(rings_mu_);
    for (const auto& r : rings_) {
      bool expected = false;
      if (r->leased.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
        return *r;
      }
    }
    rings_.push_back(std::make_unique<owned_ring>());
    rings_.back()->leased.store(true, std::memory_order_relaxed);
    return *rings_.back();
  }

  /// Column for `name`, allocating if new.  Requires sources_mu_.  Past
  /// kMaxSeries the last column is shared rather than overflowing --
  /// sampling degrades, never corrupts.
  std::size_t column_for_locked(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    if (names_.size() >= kMaxSeries) return kMaxSeries - 1;
    names_.push_back(name);
    return names_.size() - 1;
  }

  struct source {
    std::size_t token = 0;
    std::vector<std::size_t> columns;
    fill_fn fill;
  };

  struct sample_slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> sample_no{0};
    std::atomic<std::uint64_t> wall_ms_bits{0};
    std::array<std::atomic<std::uint64_t>, kMaxSeries> values{};
  };

  shard shards_[kShards];
  std::array<qsketch, kSketchCount> sketches_{};

  mutable std::mutex rings_mu_;
  std::vector<std::unique_ptr<owned_ring>> rings_;

  mutable std::mutex sources_mu_;
  std::vector<std::string> names_;  // column index -> series name
  std::vector<source> sources_;
  std::size_t next_token_ = 1;

  std::mutex sample_mu_;  // serializes sample writers
  std::array<sample_slot, kSampleCapacity> ring_{};
  std::atomic<std::uint64_t> samples_{0};

  std::mutex thread_mu_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;

  const std::chrono::steady_clock::time_point wall0_;
  const std::uint64_t tsc0_;
};

/// Registers a gauge source for the lifetime of the holder.  Subsystems
/// keep one as their LAST member so it unregisters before anything `fill`
/// reads is torn down.
class scoped_source {
 public:
  scoped_source() = default;
  scoped_source(const std::string& prefix,
                const std::vector<std::string>& series, registry::fill_fn fill)
      : token_(registry::instance().register_source(prefix, series,
                                                    std::move(fill))) {}
  scoped_source(const scoped_source&) = delete;
  scoped_source& operator=(const scoped_source&) = delete;
  scoped_source(scoped_source&& o) noexcept
      : token_(std::exchange(o.token_, 0)) {}
  scoped_source& operator=(scoped_source&& o) noexcept {
    if (this != &o) {
      release();
      token_ = std::exchange(o.token_, 0);
    }
    return *this;
  }
  ~scoped_source() { release(); }

 private:
  void release() noexcept {
    if (token_ != 0) registry::instance().unregister_source(token_);
    token_ = 0;
  }
  std::size_t token_ = 0;
};

// --- span sites --------------------------------------------------------------

/// Full span (LFST_METRICS builds): stamps t0 now and t1 at destruction,
/// then pushes one ring record and one duration sample.  While alive it is
/// the thread's current span, so note_retry()/note_step() charge the
/// innermost operation from arbitrarily deep call sites; spans nest and the
/// previous one is restored on destruction.  A span that never ends (thread
/// killed mid-operation) is simply absent.
class scoped_span {
 public:
  explicit scoped_span(ev id) noexcept
      : id_(id), prev_(current()), t0_(tsc_now()) {
    current() = this;
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;
  ~scoped_span() {
    current() = prev_;
    registry::instance().close_span(id_, t0_, tsc_now(), retries_, steps_);
  }

  void add_retry() noexcept { ++retries_; }
  void add_step() noexcept { ++steps_; }

  /// The calling thread's innermost live span, or null.
  static scoped_span*& current() noexcept {
    thread_local scoped_span* cur = nullptr;
    return cur;
  }

 private:
  ev id_;
  scoped_span* prev_;
  std::uint64_t t0_;
  std::uint32_t retries_ = 0;
  std::uint32_t steps_ = 0;
};

/// Charge one retry / one traversal step to the innermost live span, if
/// any (sites also fire outside every span, e.g. in preload loops).
inline void note_retry() noexcept {
  if (scoped_span* s = scoped_span::current()) s->add_retry();
}
inline void note_step() noexcept {
  if (scoped_span* s = scoped_span::current()) s->add_step();
}

/// A `sampled` span without LFST_METRICS: times one operation in
/// kSampleStride into the span's duration sketch.  The inlined footprint is
/// a thread-local decrement plus a predicted-not-taken branch (and a flag
/// test in the destructor); the tsc reads and the sketch record live in
/// noinline+cold bodies so the unsampled path adds no I-cache or register
/// pressure to the host function.  One countdown is shared by all spans.
class sampled_timer {
 public:
  explicit sampled_timer(ev id) noexcept {
    thread_local unsigned countdown = 1;  // sample the first op per thread
    if (--countdown == 0) [[unlikely]] {
      arm(id, countdown);
    }
  }
  sampled_timer(const sampled_timer&) = delete;
  sampled_timer& operator=(const sampled_timer&) = delete;
  ~sampled_timer() {
    if (t0_ != 0) [[unlikely]] {
      fire();
    }
  }

 private:
  [[gnu::noinline, gnu::cold]] void arm(ev id, unsigned& countdown) noexcept {
    countdown = kSampleStride;
    id_ = id;
    t0_ = tsc_now();
  }
  [[gnu::noinline, gnu::cold]] void fire() noexcept {
    registry::instance().record(id_, tsc_now() - t0_);
  }

  ev id_{};
  std::uint64_t t0_ = 0;
};

/// A `telemetry` span without LFST_METRICS: times every occurrence into the
/// span's duration sketch (the storage paths, far off any per-op path).
template <ev E>
class timer {
 public:
  explicit timer(ev) noexcept : t0_(tsc_now()) {}
  timer(const timer&) = delete;
  timer& operator=(const timer&) = delete;
  ~timer() { registry::instance().record(E, tsc_now() - t0_); }

 private:
  std::uint64_t t0_;
};

/// A compiled-out span: no state, no code.
struct no_span {
  explicit constexpr no_span(ev) noexcept {}
};

template <ev E>
using span_site = std::conditional_t<
    kMetricsBuild, scoped_span,
    std::conditional_t<!live(E), no_span,
                       std::conditional_t<info(E).gate == gate::sampled,
                                          sampled_timer, timer<E>>>>;

// --- always-on per-instance counters -----------------------------------------

/// Enum-indexed relaxed counter array: the implementation behind each
/// structure's own always-on counters (e.g. the skip-tree's stats()).
/// `Enum` must end with an enumerator named kCount.
template <typename Enum>
class instance_counters {
 public:
  static constexpr std::size_t kN = static_cast<std::size_t>(Enum::kCount);

  void inc(Enum e) noexcept { add(e, 1); }
  void add(Enum e, std::uint64_t n) noexcept {
    v_[static_cast<std::size_t>(e)].fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t get(Enum e) const noexcept {
    return v_[static_cast<std::size_t>(e)].load(std::memory_order_relaxed);
  }

  std::array<std::uint64_t, kN> snapshot() const noexcept {
    std::array<std::uint64_t, kN> out{};
    for (std::size_t i = 0; i < kN; ++i) {
      out[i] = v_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kN> v_{};
};

}  // namespace lfst::telemetry

// --- site macros -------------------------------------------------------------
//
// `id_` is an enumerator of lfst::telemetry::ev; the kind is checked against
// the table in every build.  A site whose event is not live in this build
// sits in a discarded `if constexpr` branch: type-checked, never run.

#define LFST_TEL_EV_(id_) ::lfst::telemetry::ev::id_
#define LFST_TEL_SITE_(id_, kind_, call_)                                  \
  do {                                                                     \
    static_assert(::lfst::telemetry::kind_of(LFST_TEL_EV_(id_)) ==         \
                      ::lfst::telemetry::kind::kind_,                      \
                  "event " #id_ " is not a " #kind_);                      \
    if constexpr (::lfst::telemetry::live(LFST_TEL_EV_(id_))) {            \
      ::lfst::telemetry::registry::instance().call_;                       \
    }                                                                      \
  } while (false)
#define LFST_TEL_CAT2_(a_, b_) a_##b_
#define LFST_TEL_CAT_(a_, b_) LFST_TEL_CAT2_(a_, b_)

/// Bump a counter.
#define LFST_COUNT(id_) LFST_TEL_SITE_(id_, count, count(LFST_TEL_EV_(id_)))
/// Record one sample into a value's sketch.
#define LFST_VALUE(id_, v_) \
  LFST_TEL_SITE_(id_, value, record(LFST_TEL_EV_(id_), (v_)))
/// Bump a mark's counter and push an instant record carrying `payload_`.
#define LFST_MARK(id_, payload_) \
  LFST_TEL_SITE_(id_, mark, mark(LFST_TEL_EV_(id_), (payload_)))
/// Open a span covering the rest of the enclosing scope.
#define LFST_SPAN(id_)                                                     \
  static_assert(::lfst::telemetry::kind_of(LFST_TEL_EV_(id_)) ==           \
                    ::lfst::telemetry::kind::span,                         \
                "event " #id_ " is not a span");                           \
  [[maybe_unused]] ::lfst::telemetry::span_site<LFST_TEL_EV_(id_)>         \
  LFST_TEL_CAT_(lfst_span_, __LINE__) { LFST_TEL_EV_(id_) }

#if defined(LFST_METRICS)

/// Charge one CAS retry / one traversal step to the innermost live span.
#define LFST_RETRY() (::lfst::telemetry::note_retry())
#define LFST_STEP() (::lfst::telemetry::note_step())
/// A per-operation tally for a value site: declare, bump inside the loop,
/// then pass to LFST_VALUE.  Without LFST_METRICS it is a constant 0 that
/// only a discarded branch reads.
#define LFST_TALLY(var_) std::uint64_t var_ = 0
#define LFST_TALLY_INC(var_) (++(var_))

#else  // !LFST_METRICS

#define LFST_RETRY() ((void)0)
#define LFST_STEP() ((void)0)
#define LFST_TALLY(var_) [[maybe_unused]] constexpr std::uint64_t var_ = 0
#define LFST_TALLY_INC(var_) ((void)0)

#endif  // LFST_METRICS
