// Reclamation watchdog: the background driver of EBR stall tolerance.
//
// Mirrors the structural-health ticker (skiptree/health.hpp): a small
// dedicated thread wakes every `interval`, runs one `ebr_domain::stall_tick`
// pass -- stall detection, eviction flagging, quarantine + limbo handoff,
// epoch advance, overflow drain -- and accumulates the resulting report
// series.  Ages are configured in wall-clock microseconds and converted to
// tsc ticks with the telemetry registry's one calibration
// (common/telemetry.hpp).
//
// The watchdog is the only legal driver of stall_tick while it runs (the
// per-slot observation fields are single-driver state); tests that call
// tick_now() must not also start() the thread, or must accept serialization
// through the report mutex only for the series, not for the tick itself.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "alloc/pool.hpp"
#include "common/telemetry.hpp"
#include "reclaim/ebr.hpp"

namespace lfst::reclaim {

/// Tuning for a reclaim_watchdog.  The defaults are deliberately lazy --
/// a reader must lag the epoch for tens of milliseconds before anything
/// happens, far above any legitimate operation on these structures.
struct watchdog_options {
  /// Wake-up period of the watchdog thread.
  std::chrono::microseconds interval{std::chrono::milliseconds(2)};
  /// How long a slot may publish the same lagging epoch before it is
  /// flagged for cooperative eviction.
  std::chrono::microseconds stall_age{std::chrono::milliseconds(20)};
  /// How long a flagged slot gets to self-evict before quarantine.
  std::chrono::microseconds eviction_grace{std::chrono::milliseconds(20)};
  /// Only consider slots at least this many epochs behind the global.
  std::uint64_t min_epoch_lag = 1;
  /// Declare readers failed after the grace period (the big hammer; turn
  /// off to observe detection without consequences).
  bool quarantine = true;
  /// Route degraded-mode overflow drains through the hazard domain.
  bool escape_to_hazard = true;
  /// Bump the pool allocator's pressure generation while the domain is
  /// over its limbo cap, trimming per-thread caches.
  bool trim_pool_on_pressure = true;
};

/// One watchdog pass with its wall-clock anchor.
struct watchdog_sample {
  std::chrono::steady_clock::time_point when;
  stall_report report;
};

/// Background stall-tolerance driver for one ebr_domain.
class reclaim_watchdog {
 public:
  explicit reclaim_watchdog(ebr_domain& domain,
                            watchdog_options opts = watchdog_options{})
      : domain_(domain), opts_(opts) {
    // Publish the latest pass's stall/limbo gauges into the telemetry
    // registry.  `fill` reads the last report under mu_ (tick_now holds it
    // only to push a sample; no hot-path interaction).
    tel_source_ = telemetry::scoped_source(
        "reclaim",
        {"pinned", "stalled", "quarantined", "limbo_bytes",
         "overflow_bytes"},
        [this](double* v) {
          stall_report r;
          {
            std::lock_guard<std::mutex> lk(mu_);
            if (!series_.empty()) r = series_.back().report;
          }
          v[0] = static_cast<double>(r.pinned);
          v[1] = static_cast<double>(r.stalled);
          v[2] = static_cast<double>(r.quarantined);
          v[3] = static_cast<double>(r.limbo_bytes);
          v[4] = static_cast<double>(r.overflow_bytes);
        });
  }

  ~reclaim_watchdog() { stop(); }

  reclaim_watchdog(const reclaim_watchdog&) = delete;
  reclaim_watchdog& operator=(const reclaim_watchdog&) = delete;

  void start() {
    if (running_.exchange(true, std::memory_order_acq_rel)) return;
    thread_ = std::thread([this] { run(); });
  }

  void stop() {
    if (!running_.exchange(false, std::memory_order_acq_rel)) return;
    if (thread_.joinable()) thread_.join();
  }

  /// Run one pass synchronously on the calling thread (usable with or
  /// without the background thread; see the single-driver caveat above).
  stall_report tick_now() {
    LFST_SPAN(watchdog_tick);
    const std::uint64_t now_tsc = telemetry::tsc_now();
    const double tpu = telemetry::registry::instance().ticks_per_us();
    stall_params p;
    p.now_tsc = now_tsc;
    p.stall_age_ticks = to_ticks(opts_.stall_age, tpu);
    p.eviction_grace_ticks = to_ticks(opts_.eviction_grace, tpu);
    p.min_epoch_lag = opts_.min_epoch_lag;
    p.quarantine = opts_.quarantine;
    p.escape_to_hazard = opts_.escape_to_hazard;
    const stall_report r = domain_.stall_tick(p);
    if (opts_.trim_pool_on_pressure) {
      const std::size_t cap = domain_.limits().max_limbo_bytes;
      if (cap != 0 && r.limbo_bytes + r.overflow_bytes > cap) {
        ::lfst::alloc::pool_policy::request_trim();
      }
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      series_.push_back(
          watchdog_sample{std::chrono::steady_clock::now(), r});
    }
    return r;
  }

  /// Snapshot of the report series collected so far.
  std::vector<watchdog_sample> samples() const {
    std::lock_guard<std::mutex> lk(mu_);
    return series_;
  }

  const watchdog_options& options() const noexcept { return opts_; }

 private:
  void run() {
    // Sleep in short slices so stop() latency stays bounded even with a
    // long tick interval.
    const auto slice = std::chrono::milliseconds(1);
    auto next = std::chrono::steady_clock::now() + opts_.interval;
    while (running_.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() >= next) {
        tick_now();
        next += opts_.interval;
      } else {
        std::this_thread::sleep_for(slice);
      }
    }
  }

  static std::uint64_t to_ticks(std::chrono::microseconds us, double tpu) {
    const double t = static_cast<double>(us.count()) * tpu;
    if (t >= 1.8e19) return ~std::uint64_t{0};
    return static_cast<std::uint64_t>(t);
  }

  ebr_domain& domain_;
  watchdog_options opts_;
  std::atomic<bool> running_{false};
  std::thread thread_;
  mutable std::mutex mu_;
  std::vector<watchdog_sample> series_;

  // Last member: destroyed first, so the sampler stops calling into us
  // before series_/mu_ go away.
  telemetry::scoped_source tel_source_;
};

}  // namespace lfst::reclaim
