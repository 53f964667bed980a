// Structural-health sampling of a LIVE skip-tree.
//
// validate.hpp answers "is this quiescent tree correct?"; this header
// answers a different question on a tree under full concurrent load: "how
// far from optimal has the structure drifted, and is compaction keeping
// up?"  The paper's relaxed-optimality design (Sec. III-C) deliberately
// lets mutations leave garbage behind -- empty nodes awaiting bypass,
// references pointing left of their interval (Fig. 7b) -- and relies on
// the four online transforms (Fig. 8) to drive it back down.  The probe
// below measures that equilibrium as a time series:
//
//   * empty-node fraction        -- bypass backlog (transform T1/T2 input)
//   * suboptimal reference count -- repair backlog (transform T3 input)
//   * per-level occupancy        -- mean keys/node against the geometric
//                                   ideal width 1/q = 2^q_log2
//   * compaction backlog         -- empty + suboptimal, the total debt
//
// Concurrency contract: probe() pins a reclamation guard and reads payload
// snapshots with acquire loads, so every pointer it follows stays valid;
// but the tree keeps mutating underneath, so the numbers are a statistical
// sample of a moving target, not an exact census.  The walk is bounded
// (`max_nodes_per_level`) to keep probe cost O(height * bound) regardless
// of tree size -- background-safe by construction.
//
// Under LFST_METRICS each probe is also a `skiptree.health_probe` span and
// records its backlog and occupancy as telemetry values.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/telemetry.hpp"
#include "skiptree/skip_tree.hpp"

namespace lfst::skiptree {

struct health_options {
  /// Nodes examined per level before the walk gives up on that level; the
  /// probe is a bounded sample, not a full census.
  std::size_t max_nodes_per_level = 64;
};

/// One probe's worth of structural-health observations.
struct health_sample {
  std::uint64_t seq = 0;        ///< probe ordinal (per sampler instance)
  std::uint64_t elapsed_us = 0; ///< since the sampler was constructed
  int height = 0;               ///< root height at probe time
  std::size_t sampled_nodes = 0;
  std::size_t empty_nodes = 0;
  std::size_t suboptimal_refs = 0;  ///< Fig. 7b references seen in sample
  std::size_t keys_sampled = 0;     ///< finite keys across sampled nodes
  bool truncated = false;  ///< true when any level hit the sample bound
  std::vector<std::size_t> nodes_per_level;  ///< sampled widths, index=level
  double ideal_node_width = 0.0;  ///< 1/q = 2^q_log2 (Sec. III-C)

  /// Fraction of sampled nodes holding zero elements (bypass backlog).
  double empty_fraction() const {
    return sampled_nodes == 0
               ? 0.0
               : static_cast<double>(empty_nodes) /
                     static_cast<double>(sampled_nodes);
  }

  /// Mean keys-per-node as a percentage of the geometric ideal width.  An
  /// optimal tree sits near 100; churn without compaction drags it down.
  double occupancy_pct() const {
    if (sampled_nodes == 0 || ideal_node_width <= 0.0) return 0.0;
    const double mean = static_cast<double>(keys_sampled) /
                        static_cast<double>(sampled_nodes);
    return 100.0 * mean / ideal_node_width;
  }

  /// Total compaction debt visible in the sample: nodes waiting for a
  /// bypass plus references waiting for a repair.
  std::size_t compaction_backlog() const {
    return empty_nodes + suboptimal_refs;
  }
};

/// Bounded, reclamation-guarded structural probe over a live skip-tree.
///
/// One instance per observed tree; probe() may be called from any thread,
/// including a dedicated background thread (see health_ticker below).
template <typename T, typename Compare = std::less<T>,
          typename Reclaim = reclaim::ebr_policy,
          typename Alloc = lfst::alloc::pool_policy>
class skip_tree_health {
 public:
  using tree_t = skip_tree<T, Compare, Reclaim, Alloc>;
  using contents_t = typename tree_t::contents_t;
  using node_t = typename tree_t::node_t;
  using guard_t = typename tree_t::guard_t;

  explicit skip_tree_health(const tree_t& tree,
                            health_options opts = health_options{})
      : tree_(tree),
        opts_(opts),
        birth_(std::chrono::steady_clock::now()) {}

  /// Walk a bounded sample of every level and return the census.  Safe
  /// under concurrent mutation (see the concurrency contract above).
  health_sample probe() {
    LFST_SPAN(health_probe);
    guard_t g(tree_.core_.domain);
    Compare cmp = tree_.core_.cmp;

    health_sample s;
    s.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    s.elapsed_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - birth_)
            .count());
    s.ideal_node_width =
        static_cast<double>(std::uint64_t{1} << tree_.core_.opts.q_log2);

    const auto* root = tree_.core_.root.load(std::memory_order_acquire);
    s.height = root->height;
    s.nodes_per_level.assign(static_cast<std::size_t>(root->height) + 1, 0);

    const node_t* head = root->node;
    for (int level = root->height; level >= 0 && head != nullptr; --level) {
      const node_t* next_head = nullptr;
      std::size_t visited = 0;
      for (const node_t* n = head; n != nullptr;) {
        const contents_t* c = payload(n);
        if (c == nullptr) break;  // racing teardown; abandon the level
        if (++visited > opts_.max_nodes_per_level) {
          s.truncated = true;
          break;
        }
        ++s.sampled_nodes;
        ++s.nodes_per_level[static_cast<std::size_t>(level)];
        if (c->empty()) ++s.empty_nodes;
        s.keys_sampled += c->nkeys;
        if (!c->leaf) {
          if (next_head == nullptr && c->logical_len() > 0) {
            next_head = c->children()[0];
          }
          census_children(cmp, *c, s);
        }
        n = c->link;
      }
      head = next_head;
    }

    LFST_VALUE(health_backlog,
               static_cast<std::uint64_t>(s.compaction_backlog()));
    LFST_VALUE(health_occupancy_pct,
               static_cast<std::uint64_t>(s.occupancy_pct()));
    return s;
  }

 private:
  static const contents_t* payload(const node_t* n) {
    return n->payload.load(std::memory_order_acquire);
  }

  /// Count Fig. 7b suboptimal references within one routing payload: a
  /// child slot whose target is empty, or whose every key falls left of
  /// the slot's lower bound, contributes nothing to searches through the
  /// slot and is repair-transform input.  Lower bounds are taken within
  /// the node only (the cross-node bound needs the whole level, which a
  /// bounded sample does not have) -- an undercount, never an overcount.
  static void census_children(const Compare& cmp, const contents_t& c,
                              health_sample& s) {
    const std::uint32_t len = c.logical_len();
    for (std::uint32_t j = 1; j < len; ++j) {
      const T& lower_bound = c.keys()[j - 1];
      const node_t* child = c.children()[j];
      if (child == nullptr) continue;  // racing split publication
      const contents_t* cc = payload(child);
      if (cc == nullptr) continue;
      if (cc->empty() ||
          (!cc->inf && cc->nkeys > 0 && cmp(cc->max_key(), lower_bound))) {
        ++s.suboptimal_refs;
      }
    }
  }

  const tree_t& tree_;
  health_options opts_;
  std::chrono::steady_clock::time_point birth_;
  std::atomic<std::uint64_t> seq_{0};
};

/// Background ticker: probes a tree every `interval` on its own thread and
/// accumulates the resulting time series.  start()/stop() bracket the
/// observation window; stop() joins the thread, after which samples() is a
/// stable, data-race-free series.  The probe thread participates in epoch
/// reclamation like any other reader, so it delays no one for longer than
/// one bounded walk.
template <typename T, typename Compare = std::less<T>,
          typename Reclaim = reclaim::ebr_policy,
          typename Alloc = lfst::alloc::pool_policy>
class health_ticker {
 public:
  using sampler_t = skip_tree_health<T, Compare, Reclaim, Alloc>;
  using tree_t = typename sampler_t::tree_t;

  health_ticker(const tree_t& tree, std::chrono::microseconds interval,
                health_options opts = health_options{})
      : sampler_(tree, opts), interval_(interval) {
    tel_source_ = telemetry::scoped_source(
        "health",
        {"occupancy_pct", "empty_fraction", "suboptimal_refs", "backlog",
         "height"},
        [this](double* v) {
          std::lock_guard<std::mutex> lk(mu_);
          if (series_.empty()) return;  // columns stay NaN until a probe
          const health_sample& s = series_.back();
          v[0] = s.occupancy_pct();
          v[1] = s.empty_fraction();
          v[2] = static_cast<double>(s.suboptimal_refs);
          v[3] = static_cast<double>(s.compaction_backlog());
          v[4] = static_cast<double>(s.height);
        });
  }

  ~health_ticker() { stop(); }

  health_ticker(const health_ticker&) = delete;
  health_ticker& operator=(const health_ticker&) = delete;

  void start() {
    if (running_.exchange(true, std::memory_order_acq_rel)) return;
    thread_ = std::thread([this] { run(); });
  }

  void stop() {
    if (!running_.exchange(false, std::memory_order_acq_rel)) return;
    if (thread_.joinable()) thread_.join();
  }

  /// Take one sample synchronously on the calling thread (usable with or
  /// without the background thread running).
  health_sample probe_now() {
    health_sample s = sampler_.probe();
    std::lock_guard<std::mutex> lk(mu_);
    series_.push_back(s);
    return s;
  }

  /// Snapshot of the series collected so far.
  std::vector<health_sample> samples() const {
    std::lock_guard<std::mutex> lk(mu_);
    return series_;
  }

 private:
  void run() {
    // Sleep in short slices so stop() latency stays bounded even with a
    // long sampling interval.
    const auto slice = std::chrono::milliseconds(1);
    auto next = std::chrono::steady_clock::now() + interval_;
    while (running_.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() >= next) {
        probe_now();
        next += interval_;
      } else {
        std::this_thread::sleep_for(slice);
      }
    }
  }

  sampler_t sampler_;
  std::chrono::microseconds interval_;
  std::atomic<bool> running_{false};
  std::thread thread_;
  mutable std::mutex mu_;
  std::vector<health_sample> series_;
  // Last member: unregisters from the telemetry registry before mu_/series_
  // (which the gauge callback reads) are torn down.
  telemetry::scoped_source tel_source_;
};

}  // namespace lfst::skiptree
