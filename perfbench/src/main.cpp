// The repository benchmark: one closed-loop benchmark for the skip-tree and
// the durable tree.  See ../README.md for the workloads, the metrics, the
// layer each metric belongs to, and how to run it.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--workdir DIR] [--trace-out FILE] [--revision REV]
//   perfbench --self-test
//
// Each run sets up the structure (timed, several times), measures a fixed
// wall-clock window in which every client calls the public API in a closed
// loop, checks every result against the oracle (oracle.hpp), validates the
// structure afterwards, and prints one metric per line followed by a JSON
// summary on the last line.  The exit code is non-zero if any check failed.
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <regex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/pool.hpp"
#include "common/rng.hpp"
#include "reclaim/ebr.hpp"
#include "skiptree/health.hpp"
#include "skiptree/serialize.hpp"
#include "skiptree/skip_tree.hpp"
#include "skiptree/validate.hpp"
#include "storage/durable_tree.hpp"

#include "harness.hpp"
#include "oracle.hpp"

namespace perfbench {
namespace {

using key_type = std::uint64_t;
using tree_t = lfst::skiptree::skip_tree<key_type>;
using durable_t = lfst::storage::durable_tree<key_type>;

// Every op whose per-client index is a multiple of kLatencyStride is timed;
// the clock stays off the other 15 of 16 calls.  Traced windows also record
// a span for every kSpanStride-th op (a subset of the timed ones), which
// keeps the span log to a few MB per run.
constexpr std::uint64_t kLatencyStride = 16;
constexpr std::uint64_t kSpanStride = 256;
constexpr key_type kScanWidth = 128;
// Set-up is repeated and its median reported, so set-up time is as steady
// as the window metrics: at least kSetupRepeats times, and more while the
// repetitions so far took under kSetupBudgetS (cheap set-ups are noisy).
constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kSetupRepeatsMax = 99;
constexpr double kSetupBudgetS = 1.0;
// Latency samples live in a buffer sized and touched before the RSS
// baseline, so they do not count in rss_growth_bytes_per_key.  The bound is
// several times the fastest per-client rate seen; samples past it are
// dropped and reported.
constexpr double kMaxOpsPerClientPerS = 8e6;
// Workloads without scans in their mix time quiescent for_range calls on
// every client for this long after the window, so every workload reports
// scan latency.  Pooling all clients' samples evens out the noise one CPU
// of a shared host sees.
constexpr double kProbeSeconds = 4.0;
// The durable fixture: a checkpoint of half the key range plus this many
// WAL records after it, the tail recovery must replay.
constexpr std::uint64_t kFixtureTail = 100000;
// Low enough that the auto-checkpointer completes several cycles per run,
// and that the WAL tail the post-run reopen replays stays short.
constexpr std::uint64_t kCheckpointBytes = 2ull << 20;
constexpr auto kLagSamplePeriod = std::chrono::milliseconds(1);
constexpr auto kFlushPeriod = std::chrono::milliseconds(250);

enum op_type : std::size_t { op_contains, op_add, op_remove, op_scan, kOps };
constexpr const char* kOpNames[kOps] = {"contains", "add", "remove", "scan"};

struct workload {
  const char* name;
  bool durable;
  unsigned clients;
  key_type key_range;
  std::array<unsigned, kOps> pct;  // contains, add, remove, scan; sums to 100
  // Each add draws a key its client's mirror says is absent, and each remove
  // one it says is present, so every mutation takes effect.  On the durable
  // tree that means every add and remove appends to the WAL.  Its appends
  // have a slow mode (10-20 us) whose share of all adds sat near 1% when
  // half the mutations were no-ops, so add_p99_ns jumped between ~7 us and
  // ~13 us from run to run; with every mutation effective the share is
  // 2.6-3.2% and the p99 stays inside that mode.
  bool effective_mutations;
};

// add% == remove% in every mix and the structure starts at half the key
// range, so the set size does not drift with speed.
constexpr workload kWorkloads[] = {
    {"read_mostly", false, 4, key_type{1} << 22, {90, 4, 4, 2}, false},
    {"write_contended", false, 4, 500, {34, 33, 33, 0}, false},
    {"durable_mixed", true, 3, key_type{1} << 20, {50, 25, 25, 0}, true},
};

struct metric_decl {
  const char* name;
  const char* unit;
};

// Printed in the JSON summary of an untraced run, on every workload.
constexpr metric_decl kEndToEnd[] = {
    {"throughput_ops_s", "ops/s"},  {"contains_p50_ns", "ns"},
    {"contains_p99_ns", "ns"},      {"add_p50_ns", "ns"},
    {"add_p99_ns", "ns"},           {"remove_p50_ns", "ns"},
    {"remove_p99_ns", "ns"},        {"scan_p50_ns", "ns"},
    {"scan_p99_ns", "ns"},          {"setup_s", "s"},
    {"mem_bytes_per_key", "B/key"},
};

// Printed as metric lines of an untraced run, but not in the JSON summary:
// too noisy to bound (see mem_bytes_per_key in measure()).
constexpr metric_decl kEndToEndUnbounded[] = {
    {"rss_growth_bytes_per_key", "B/key"},
};

// Printed in the JSON summary of a traced run, on every workload.
constexpr metric_decl kPerLayer[] = {
    {"skiptree.traverse.contains_ns", "ns"},
    {"skiptree.height", "levels"},
    {"skiptree.insert.add_ns", "ns"},
    {"skiptree.insert.splits_per_kadd", "count/kadd"},
    {"skiptree.cas.failures_per_kmut", "count/kmut"},
    {"skiptree.cas.useful_ratio", "ratio"},
    {"skiptree.cas.hot_level_share", "ratio"},
    {"skiptree.compact.remove_ns", "ns"},
    {"skiptree.compact.repairs_per_kremove", "count/kremove"},
    {"skiptree.compact.occupancy_pct", "%"},
    {"skiptree.compact.backlog", "count"},
    {"skiptree.iterate.ns_per_key", "ns/key"},
    {"skiptree.iterate.keys_per_scan", "key/scan"},
    {"alloc.allocs_per_kmut", "count/kmut"},
    {"alloc.hit_rate", "ratio"},
    {"alloc.slab_carves", "count"},
    {"alloc.fallbacks", "count"},
    {"reclaim.limbo_bytes_hwm", "B"},
    {"reclaim.epochs_per_kop", "count/kop"},
    {"reclaim.quarantined", "count"},
    {"bench.trace_overhead_pct", "%"},
};

// Printed as metric lines of a traced run on the workload that enters
// storage only, so they are not in the JSON summary, which must hold the
// same metrics on every workload.
constexpr metric_decl kStorageLayer[] = {
    {"storage.wal.bytes_per_mut", "B/mut"},
    {"storage.wal.appends_per_mut", "count/mut"},
    {"storage.wal.records_per_fsync", "count/fsync"},
    {"storage.wal.lag_records_max", "count"},
    {"storage.wal.flush_us", "us"},
    {"storage.checkpoint.count", "count"},
    {"storage.checkpoint.us", "us"},
    {"storage.recovery.checkpoint_load_us", "us"},
    {"storage.recovery.replay_us", "us"},
    {"storage.recovery.replay_ns_per_record", "ns/record"},
    {"storage.recovery.records_replayed", "count"},
    {"skiptree.bulk_load.us", "us"},
};

// --- per-client state -----------------------------------------------------------

struct alignas(64) client_state {
  client_state(const workload& w, unsigned self, std::uint64_t seed,
               double seconds)
      : rng(lfst::thread_seed(seed, self)),
        own(w.key_range, w.clients, self),
        samples(static_cast<std::size_t>(seconds * kMaxOpsPerClientPerS /
                                         kLatencyStride) + 1024) {
    scan_buf.reserve(kScanWidth);
  }

  void reset_window() {
    calls = {};
    effective_add = effective_remove = 0;
    scan_keys = timed_scan_ns = timed_scan_keys = 0;
    n_samples = dropped_samples = 0;
  }

  // A sample packs the op type into the top two bits of its latency in ns.
  static constexpr std::uint32_t kNsMask = (1u << 30) - 1;
  void sample(op_type op, std::uint64_t ns) {
    if (n_samples == samples.size()) {
      ++dropped_samples;
      return;
    }
    const auto clamped = static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, kNsMask));
    samples[n_samples++] = static_cast<std::uint32_t>(op) << 30 | clamped;
  }

  lfst::xoshiro256ss rng;
  mirror own;
  std::uint64_t op_index = 0;  // request id within this client, never reset
  std::uint64_t checked = 0;   // results checked by the oracle
  // Per window:
  std::array<std::uint64_t, kOps> calls{};
  std::uint64_t effective_add = 0;
  std::uint64_t effective_remove = 0;
  std::uint64_t scan_keys = 0;
  std::uint64_t timed_scan_ns = 0;
  std::uint64_t timed_scan_keys = 0;
  lfst::alloc::alloc_counters pool_before{};
  lfst::alloc::alloc_counters pool_after{};
  std::vector<std::uint32_t> samples;
  std::size_t n_samples = 0;
  std::uint64_t dropped_samples = 0;
  std::vector<key_type> scan_buf;
};

using clients_t = std::vector<std::unique_ptr<client_state>>;

std::vector<mirror> mirrors_of(const clients_t& cs) {
  std::vector<mirror> out;
  for (const auto& c : cs) out.push_back(c->own);
  return out;
}

// --- the structures under test, behind one call surface ---------------------

struct skip_store {
  static constexpr bool durable = false;
  std::unique_ptr<tree_t> t;

  bool add(key_type k) { return t->add(k); }
  bool remove(key_type k) { return t->remove(k); }
  bool contains(key_type k) const { return t->contains(k); }
  const tree_t& index() const { return *t; }
};

struct durable_store {
  static constexpr bool durable = true;
  std::unique_ptr<durable_t> d;

  bool add(key_type k) { return d->add(k); }
  bool remove(key_type k) { return d->remove(k); }
  bool contains(key_type k) const { return d->contains(k); }
  const tree_t& index() const { return d->tree(); }
};

// --- public counters, read around each window -----------------------------------

// Pool counters are not here: they are kept per thread until the thread
// exits, so each client reads its own around the window (client_loop).
struct counters {
  tree_t::structural_stats tree{};
  std::array<std::uint64_t, lfst::skiptree::heatmap_snapshot::kLevels> heat{};
  std::uint64_t epoch = 0;
  lfst::storage::wal_stats wal{};
};

template <class Store>
counters read_counters(const Store& st) {
  counters c;
  c.tree = st.index().stats();
  const auto h = st.index().contention_heatmap();
  for (int l = 0; l < lfst::skiptree::heatmap_snapshot::kLevels; ++l) {
    c.heat[static_cast<std::size_t>(l)] = h.level_total(l);
  }
  c.epoch = lfst::reclaim::ebr_policy::default_domain().stats().epoch;
  if constexpr (Store::durable) c.wal = st.d->log_stats();
  return c;
}

/// Sum of (after - before) over the windows of one kind.
struct counter_delta {
  std::uint64_t cas_failures = 0, splits = 0, repairs = 0;
  std::array<std::uint64_t, lfst::skiptree::heatmap_snapshot::kLevels> heat{};
  std::uint64_t allocations = 0, pool_hits = 0, slab_carves = 0, fallbacks = 0;
  std::uint64_t epochs = 0;
  std::uint64_t wal_appends = 0, wal_bytes = 0, wal_fsyncs = 0,
                wal_rotations = 0;

  void add(const counters& a, const counters& b) {
    cas_failures += b.tree.cas_failures - a.tree.cas_failures;
    splits += b.tree.splits - a.tree.splits;
    repairs += (b.tree.empty_bypasses + b.tree.ref_repairs +
                b.tree.duplicate_drops + b.tree.migrations) -
               (a.tree.empty_bypasses + a.tree.ref_repairs +
                a.tree.duplicate_drops + a.tree.migrations);
    for (std::size_t l = 0; l < heat.size(); ++l) heat[l] += b.heat[l] - a.heat[l];
    epochs += b.epoch - a.epoch;
    wal_appends += b.wal.appends - a.wal.appends;
    wal_bytes += b.wal.bytes_appended - a.wal.bytes_appended;
    wal_fsyncs += b.wal.fsyncs - a.wal.fsyncs;
    wal_rotations += b.wal.rotations - a.wal.rotations;
  }

  // `pool_policy::counters()` read by a client is the process total of
  // exited threads plus that client's own; no thread exits during a
  // window, so the per-client differences sum to the window's total.
  void add_pool(const lfst::alloc::alloc_counters& a,
                const lfst::alloc::alloc_counters& b) {
    allocations += b.allocations - a.allocations;
    pool_hits += b.pool_hits - a.pool_hits;
    slab_carves += b.slab_carves - a.slab_carves;
    fallbacks += b.fallbacks - a.fallbacks;
  }
};

/// Everything one kind of window (untraced or traced) accumulates.
struct window_totals {
  double seconds = 0.0;
  std::array<std::uint64_t, kOps> calls{};
  std::uint64_t effective_add = 0, effective_remove = 0, scan_keys = 0;
  std::uint64_t timed_scan_ns = 0, timed_scan_keys = 0;
  // Scans of the quiescent probe: checked and sampled like the mix's, but
  // not calls of the window, so not in ops().
  std::uint64_t probe_scans = 0;
  std::array<std::vector<std::uint32_t>, kOps> lat;
  counter_delta delta;
  std::uint64_t lag_max = 0;
  std::uint64_t rss_after = 0;
  std::uint64_t dropped_samples = 0;

  std::uint64_t ops() const {
    std::uint64_t n = 0;
    for (auto c : calls) n += c;
    return n;
  }
  std::uint64_t mutations() const { return calls[op_add] + calls[op_remove]; }
  std::uint64_t effective() const { return effective_add + effective_remove; }
};

// --- the closed loop --------------------------------------------------------------

template <class Store>
void client_loop(Store& st, const workload& w, client_state& c,
                 std::atomic<unsigned>& ready, const std::atomic<bool>& go,
                 const std::atomic<bool>& stop, span_recorder& spans,
                 std::size_t slot, bool traced) {
  const unsigned t_contains = w.pct[op_contains];
  const unsigned t_add = t_contains + w.pct[op_add];
  const unsigned t_remove = t_add + w.pct[op_remove];
  ready.fetch_add(1, std::memory_order_acq_rel);
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  c.pool_before = lfst::alloc::pool_policy::counters();
  const std::uint64_t window_span = traced ? spans.open(slot, span_kind::window) : 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const std::uint64_t i = c.op_index++;
    const auto r = static_cast<unsigned>(c.rng.below(100));
    key_type key = c.own.key_of(c.rng.below(c.own.slots()));
    if (w.effective_mutations && r >= t_contains && r < t_remove) {
      const bool want_present = r >= t_add;  // a remove wants a present key
      if (c.own.population() != (want_present ? 0 : c.own.slots())) {
        while (c.own.has(key) != want_present) key = c.own.key_of(c.rng.below(c.own.slots()));
      }
    }
    const bool timed = i % kLatencyStride == 0;
    const std::uint64_t t0 = timed ? now_ns() : 0;
    std::uint64_t t1 = 0;
    op_type op = op_scan;
    try {
      if (r < t_contains) {
        op = op_contains;
        const bool got = st.contains(key);
        if (timed) t1 = now_ns();
        c.own.on_contains(key, got);
      } else if (r < t_add) {
        op = op_add;
        const bool got = st.add(key);
        if (timed) t1 = now_ns();
        c.own.on_add(key, got);
        c.effective_add += got ? 1 : 0;
      } else if (r < t_remove) {
        op = op_remove;
        const bool got = st.remove(key);
        if (timed) t1 = now_ns();
        c.own.on_remove(key, got);
        c.effective_remove += got ? 1 : 0;
      } else {
        c.scan_buf.clear();
        st.index().for_range(key, key + kScanWidth, [&](const key_type& k) {
          c.scan_buf.push_back(k);
          return true;
        });
        if (timed) t1 = now_ns();
        c.own.on_scan(key, key + kScanWidth, c.scan_buf);
        c.scan_keys += c.scan_buf.size();
        if (timed) {
          c.timed_scan_ns += t1 - t0;
          c.timed_scan_keys += c.scan_buf.size();
        }
      }
    } catch (const std::exception& e) {
      c.own.fail(std::string(kOpNames[op]) + " threw: " + e.what());
      if (timed) t1 = now_ns();
    }
    ++c.checked;
    ++c.calls[op];
    if (timed) {
      const std::uint64_t ns = t1 - t0;
      c.sample(op, ns);
      if (traced && i % kSpanStride == 0) {
        static constexpr span_kind kinds[kOps] = {
            span_kind::contains, span_kind::add, span_kind::remove,
            span_kind::scan};
        spans.record(slot, kinds[op], t0, t1, i, window_span);
      }
    }
  }
  spans.close(window_span);
  c.pool_after = lfst::alloc::pool_policy::counters();
}

template <class Store>
void run_window(Store& st, const workload& w, clients_t& cs, crew& team,
                double seconds, bool traced, span_recorder& spans,
                window_totals& out) {
  const std::size_t main_slot = w.clients;
  for (auto& c : cs) c->reset_window();
  const counters before = read_counters(st);
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  const std::function<void(unsigned)> job = [&](unsigned t) {
    client_loop(st, w, *cs[t], ready, go, stop, spans, t, traced);
  };
  team.start(job);
  // Open the window once every client is at its start line (a client that
  // failed to start is reported by wait()).
  const std::uint64_t wait_until = now_ns() + 5'000'000'000ull;
  while (ready.load(std::memory_order_acquire) < w.clients && now_ns() < wait_until) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const std::uint64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  // Clients stop only when told to, so they are told on every way out.
  try {
    if constexpr (Store::durable) {
      // The otherwise idle main thread samples the flusher's lag and, like a
      // caller that wants durability, flushes periodically.
      std::uint64_t next_flush = t0 + std::chrono::nanoseconds(kFlushPeriod).count();
      for (std::uint64_t now = t0; now < deadline; now = now_ns()) {
        std::this_thread::sleep_for(kLagSamplePeriod);
        const auto s = st.d->log_stats();
        out.lag_max = std::max<std::uint64_t>(
            out.lag_max, s.last_assigned > s.durable ? s.last_assigned - s.durable : 0);
        if (now_ns() >= next_flush) {
          const std::uint64_t f0 = now_ns();
          st.d->flush();
          if (traced) spans.record(main_slot, span_kind::flush, f0, now_ns());
          next_flush += std::chrono::nanoseconds(kFlushPeriod).count();
        }
      }
    } else {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          static_cast<std::int64_t>(deadline) - static_cast<std::int64_t>(now_ns())));
    }
  } catch (...) {
    stop.store(true, std::memory_order_relaxed);
    team.wait();
    throw;
  }
  stop.store(true, std::memory_order_relaxed);
  const std::uint64_t t1 = now_ns();
  team.wait();
  out.rss_after = rss_bytes();
  out.delta.add(before, read_counters(st));
  out.seconds += static_cast<double>(t1 - t0) / 1e9;
  for (auto& c : cs) {
    for (std::size_t o = 0; o < kOps; ++o) {
      out.calls[o] += c->calls[o];
    }
    for (std::size_t i = 0; i < c->n_samples; ++i) {
      out.lat[c->samples[i] >> 30].push_back(c->samples[i] & client_state::kNsMask);
    }
    out.dropped_samples += c->dropped_samples;
    out.delta.add_pool(c->pool_before, c->pool_after);
    out.effective_add += c->effective_add;
    out.effective_remove += c->effective_remove;
    out.scan_keys += c->scan_keys;
    out.timed_scan_ns += c->timed_scan_ns;
    out.timed_scan_keys += c->timed_scan_keys;
  }
}

/// One client's share of the quiescent for_range probe: for kProbeSeconds,
/// times back-to-back for_range calls at seeded random bounds and checks
/// each result exactly against the mirrors.  Returns the number of wrong
/// results.
std::uint64_t scan_probe(const tree_t& t, const workload& w,
                         const std::vector<mirror>& mirrors, std::uint64_t seed,
                         span_recorder& spans, std::size_t slot,
                         window_totals& out) {
  lfst::xoshiro256ss rng(lfst::thread_seed(seed, 1000 + slot));
  std::vector<key_type> buf;
  buf.reserve(kScanWidth);
  std::uint64_t failures = 0;
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(kProbeSeconds * 1e9);
  for (std::uint64_t i = 0; now_ns() < end; ++i) {
    const key_type lo = rng.below(w.key_range);
    buf.clear();
    const std::uint64_t t0 = now_ns();
    t.for_range(lo, lo + kScanWidth, [&](const key_type& k) {
      buf.push_back(k);
      return true;
    });
    const std::uint64_t t1 = now_ns();
    if (i % kSpanStride == 0) spans.record(slot, span_kind::scan, t0, t1, i);
    out.lat[op_scan].push_back(static_cast<std::uint32_t>(t1 - t0));
    out.timed_scan_ns += t1 - t0;
    out.timed_scan_keys += buf.size();
    out.scan_keys += buf.size();
    ++out.probe_scans;
    if (!quiescent_scan_ok(mirrors, lo, lo + kScanWidth, buf)) ++failures;
  }
  return failures;
}

/// Structural validation plus a key-by-key comparison with the mirrors.
std::uint64_t check_quiescent(const tree_t& t, const std::vector<mirror>& mirrors,
                              std::string& why) {
  std::uint64_t bad = 0;
  const auto rep = lfst::skiptree::skip_tree_inspector<key_type>(t).validate();
  if (!rep.ok) {
    ++bad;
    why = "validate: " + rep.to_string();
  }
  set_comparator cmp(mirrors);
  t.for_each([&](const key_type& k) { cmp.visit(k); });
  if (cmp.mismatches() != 0) {
    bad += cmp.mismatches();
    why = std::to_string(cmp.mismatches()) + " keys disagree with the oracle";
  }
  return bad;
}

// --- inputs -----------------------------------------------------------------------

/// A seeded random half of [0, range), in random order.
std::vector<key_type> random_half(key_type range, std::uint64_t seed) {
  std::vector<key_type> keys(range);
  for (key_type k = 0; k < range; ++k) keys[k] = k;
  lfst::xoshiro256ss rng(lfst::thread_seed(seed, 2000));
  for (key_type i = range - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.below(i + 1)]);
  }
  keys.resize(range / 2);
  return keys;
}

/// Writes the durable fixture into `dir`: a checkpoint image of a random
/// half of the key range stamped at LSN L, then a WAL segment of
/// kFixtureTail effective mutations from L + 1 (alternately removing a
/// present key and adding an absent one, so the size stays at half).
/// Returns the final key set as a presence map.
std::vector<std::uint8_t> write_fixture(const std::string& dir, key_type range,
                                        std::uint64_t seed) {
  namespace st = lfst::storage;
  std::filesystem::create_directories(dir);
  std::vector<key_type> base = random_half(range, seed);
  std::vector<std::uint8_t> present(range, 0);
  for (key_type k : base) present[k] = 1;
  std::vector<key_type> sorted = base;
  std::sort(sorted.begin(), sorted.end());
  const st::lsn_t stamp = sorted.size();
  {
    std::ofstream f(std::filesystem::path(dir) / st::checkpoint_filename(stamp),
                    std::ios::binary | std::ios::trunc);
    lfst::skiptree::save_keys<key_type>(sorted, 5, f);
    if (!f) throw std::runtime_error("fixture: cannot write checkpoint");
  }
  st::wal_options wo;
  wo.sync = st::fsync_policy::none;
  st::wal log(dir, stamp + 1, wo);
  lfst::xoshiro256ss rng(lfst::thread_seed(seed, 3000));
  for (std::uint64_t i = 0; i < kFixtureTail; ++i) {
    const bool want_present = i % 2 == 1;  // odd: add an absent key
    key_type k = rng.below(range);
    while ((present[k] != 0) == want_present) k = rng.below(range);
    log.append(want_present ? st::wal_op::add : st::wal_op::remove, &k, sizeof k);
    present[k] = want_present ? 1 : 0;
  }
  log.close();
  return present;
}

// --- reporting --------------------------------------------------------------------

struct report {
  struct entry {
    double value;
    std::uint64_t samples;
  };
  std::map<std::string, entry> m;

  void set(const std::string& name, double value, std::uint64_t samples = 1) {
    m[name] = entry{value, samples};
  }
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double per_k(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : 1000.0 * static_cast<double>(num) / static_cast<double>(den);
}
double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

void latency_metrics(window_totals& w, report& r) {
  for (std::size_t o = 0; o < kOps; ++o) {
    auto& v = w.lat[o];
    const std::string base = kOpNames[o];
    r.set(base + "_p50_ns", percentile(v, 50.0), v.size());
    r.set(base + "_p99_ns", percentile(v, 99.0), v.size());
  }
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
  std::string trace_out;
  std::string revision = "unknown";
};

/// Set-up results common to both structures.
struct setup_info {
  std::vector<double> seconds;  // one per repetition
  std::uint64_t rss_baseline = 0;
  std::uint64_t checked = 0;    // preload results checked by the oracle
  // durable only: recovery of the kept repetition
  durable_t::rec_stats rec{};
  double open_us = 0.0;

  bool repeat_again() const {
    double total = 0.0;
    for (double s : seconds) total += s;
    return seconds.size() < kSetupRepeats ||
           (total < kSetupBudgetS && seconds.size() < kSetupRepeatsMax);
  }
};

// Skip-tree set-up: construct, then preload a random half of the key range
// through add(), client t adding share[t] (its own keys, in seeded random
// order).  Only the last repetition's tree is kept; oracle failures of
// every repetition count.
void setup_skip(skip_store& st, const workload& w, clients_t& cs,
                crew& team, const std::vector<std::vector<key_type>>& share,
                span_recorder& spans, setup_info& info) {
  info.rss_baseline = rss_bytes();
  while (info.repeat_again()) {
    st.t.reset();
    for (auto& c : cs) c->own.clear();
    const std::uint64_t sp = spans.open(w.clients, span_kind::setup);
    const std::uint64_t t0 = now_ns();
    st.t = std::make_unique<tree_t>();
    team.run([&](unsigned t) {
      const std::uint64_t p0 = now_ns();
      for (key_type k : share[t]) cs[t]->own.on_add(k, st.t->add(k));
      spans.record(t, span_kind::preload, p0, now_ns(), 0, sp);
    });
    info.seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    spans.close(sp);
    for (const auto& sh : share) info.checked += sh.size();
  }
}

lfst::storage::durable_options durable_opts() {
  lfst::storage::durable_options o;
  o.wal.sync = lfst::storage::fsync_policy::interval;
  o.wal.sync_interval = std::chrono::microseconds(5000);
  o.checkpoint_bytes = kCheckpointBytes;
  return o;
}

// Durable set-up: open (= recover) a fresh copy of the fixture directory,
// whose key set is `present`.
void setup_durable(durable_store& st, const workload& w, clients_t& cs,
                   const std::string& workdir,
                   const std::vector<std::uint8_t>& present,
                   span_recorder& spans, setup_info& info) {
  const std::string fixture = workdir + "/fixture";
  const std::string dir = workdir + "/open";
  for (unsigned t = 0; t < w.clients; ++t) {
    for (key_type k = t; k < w.key_range; k += w.clients) {
      if (present[k] != 0) cs[t]->own.set(k, true);
    }
  }
  info.rss_baseline = rss_bytes();
  while (info.repeat_again()) {
    if (st.d) st.d->close();
    st.d.reset();
    std::filesystem::remove_all(dir);
    std::filesystem::copy(fixture, dir);
    const std::uint64_t sp = spans.open(w.clients, span_kind::setup);
    const std::uint64_t t0 = now_ns();
    st.d = std::make_unique<durable_t>(dir, durable_opts());
    const std::uint64_t t1 = now_ns();
    spans.record(w.clients, span_kind::open, t0, t1, 0, sp);
    spans.close(sp);
    info.seconds.push_back(static_cast<double>(t1 - t0) / 1e9);
    info.rec = st.d->recovery_stats();
    info.open_us = static_cast<double>(t1 - t0) / 1e3;
  }
}

struct run_result {
  report e2e;
  report layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

template <class Store>
void measure(Store& st, const workload& w, clients_t& cs, crew& team,
             const options& opt, span_recorder& spans, setup_info& setup,
             run_result& res) {
  const std::size_t main_slot = w.clients;
  window_totals plain;   // untraced windows: end-to-end metrics
  window_totals traced;  // traced windows: per-layer metrics
  if (!opt.trace) {
    run_window(st, w, cs, team, opt.seconds, false, spans, plain);
  } else {
    // ABAB: untraced and traced quarters interleave so drift of the
    // structure over the run does not masquerade as tracing overhead.
    for (int i = 0; i < 4; ++i) {
      run_window(st, w, cs, team, opt.seconds / 4, i % 2 == 1, spans,
                 i % 2 == 1 ? traced : plain);
    }
  }
  window_totals& layer_src = opt.trace ? traced : plain;
  const std::size_t live = st.index().size();
  const double rss_growth = static_cast<double>(layer_src.rss_after) -
                            static_cast<double>(setup.rss_baseline);
  const std::vector<mirror> mirrors = mirrors_of(cs);
  for (auto& c : cs) {
    res.attempted += c->checked;
    res.failed += c->own.failures();
    if (!c->own.first_error().empty()) res.errors.push_back(c->own.first_error());
  }
  res.attempted += setup.checked;
  const auto check = [&](std::uint64_t bad, const std::string& what) {
    if (bad == 0) return;
    res.failed += bad;
    res.errors.push_back(what);
  };

  // The durable tree is closed first, so that the probe and the validation
  // below run with its background threads stopped.
  if constexpr (Store::durable) {
    const std::uint64_t appends = st.d->log_stats().appends;
    const std::uint64_t effective = plain.effective() + traced.effective();
    check(appends != effective ? 1 : 0,
          "WAL appends " + std::to_string(appends) + " != effective mutations " +
              std::to_string(effective));
    st.d->close();
  }
  // Memory per key is the reachable structure's bytes, not RSS growth: RSS
  // growth is set by the EBR limbo peak during the preload, which depends
  // on scheduling, and its run-to-run spread was 28% on read_mostly and 48%
  // on write_contended over 10 seeds.  It is printed alongside.
  const double mem_bytes = static_cast<double>(
      lfst::skiptree::skip_tree_inspector<key_type>(st.index()).live_bytes());
  if (w.pct[op_scan] == 0) {
    std::vector<window_totals> part(w.clients);
    std::vector<std::uint64_t> wrong(w.clients);
    team.run([&](unsigned t) {
      wrong[t] = scan_probe(st.index(), w, mirrors, opt.seed, spans, t, part[t]);
    });
    std::uint64_t bad = 0;
    for (unsigned t = 0; t < w.clients; ++t) {
      bad += wrong[t];
      auto& lat = layer_src.lat[op_scan];
      lat.insert(lat.end(), part[t].lat[op_scan].begin(), part[t].lat[op_scan].end());
      layer_src.probe_scans += part[t].probe_scans;
      layer_src.scan_keys += part[t].scan_keys;
      layer_src.timed_scan_ns += part[t].timed_scan_ns;
      layer_src.timed_scan_keys += part[t].timed_scan_keys;
    }
    // In a traced run the probe's samples also stand for the untraced scan
    // latency, which the mix cannot provide.
    if (opt.trace) plain.lat[op_scan] = layer_src.lat[op_scan];
    res.attempted += layer_src.probe_scans;
    check(bad, std::to_string(bad) + " probe scans disagree with the oracle");
  }
  {
    const std::uint64_t v0 = now_ns();
    std::string why;
    const std::uint64_t bad = check_quiescent(st.index(), mirrors, why);
    spans.record(main_slot, span_kind::validate, v0, now_ns());
    check(bad, "final set: " + why);
  }

  // --- end-to-end ---
  report& e = res.e2e;
  e.set("throughput_ops_s", static_cast<double>(plain.ops()) / plain.seconds,
        plain.ops());
  latency_metrics(plain, e);
  e.set("setup_s", median(setup.seconds), setup.seconds.size());
  e.set("mem_bytes_per_key", live == 0 ? 0.0 : mem_bytes / static_cast<double>(live),
        live);
  e.set("rss_growth_bytes_per_key",
        live == 0 ? 0.0 : rss_growth / static_cast<double>(live), live);

  // --- per layer ---
  report& l = res.layer;
  const window_totals& ls = layer_src;
  const counter_delta& d = ls.delta;
  const auto span_p50 = [&](span_kind k, const char* name) {
    auto v = spans.durations(k);
    l.set(name, percentile(v, 50.0), v.size());
  };
  span_p50(span_kind::contains, "skiptree.traverse.contains_ns");
  l.set("skiptree.height", st.index().height());
  span_p50(span_kind::add, "skiptree.insert.add_ns");
  l.set("skiptree.insert.splits_per_kadd", per_k(d.splits, ls.effective_add),
        ls.effective_add);
  l.set("skiptree.cas.failures_per_kmut", per_k(d.cas_failures, ls.mutations()),
        ls.mutations());
  l.set("skiptree.cas.useful_ratio",
        ratio(ls.effective(), ls.effective() + d.cas_failures),
        ls.effective() + d.cas_failures);
  std::uint64_t heat_total = 0;
  std::uint64_t heat_max = 0;
  for (auto h : d.heat) {
    heat_total += h;
    heat_max = std::max(heat_max, h);
  }
  l.set("skiptree.cas.hot_level_share", ratio(heat_max, heat_total), heat_total);
  span_p50(span_kind::remove, "skiptree.compact.remove_ns");
  l.set("skiptree.compact.repairs_per_kremove", per_k(d.repairs, ls.effective_remove),
        ls.effective_remove);
  {
    // A full census: the sample bound is above any node count here.
    lfst::skiptree::skip_tree_health<key_type> census(st.index(), {std::size_t{1} << 24});
    const auto h = census.probe();
    l.set("skiptree.compact.occupancy_pct", h.occupancy_pct(), h.sampled_nodes);
    l.set("skiptree.compact.backlog", static_cast<double>(h.compaction_backlog()),
          h.sampled_nodes);
  }
  l.set("skiptree.iterate.ns_per_key", ratio(ls.timed_scan_ns, ls.timed_scan_keys),
        ls.timed_scan_keys);
  const std::uint64_t scans = ls.calls[op_scan] + ls.probe_scans;
  l.set("skiptree.iterate.keys_per_scan", ratio(ls.scan_keys, scans), scans);
  l.set("alloc.allocs_per_kmut", per_k(d.allocations, ls.mutations()), ls.mutations());
  l.set("alloc.hit_rate", ratio(d.pool_hits, d.allocations), d.allocations);
  l.set("alloc.slab_carves", static_cast<double>(d.slab_carves));
  l.set("alloc.fallbacks", static_cast<double>(d.fallbacks));
  l.set("reclaim.limbo_bytes_hwm",
        static_cast<double>(st.index().stats().limbo_bytes_hwm));
  l.set("reclaim.epochs_per_kop", per_k(d.epochs, ls.ops()), ls.ops());
  l.set("reclaim.quarantined",
        static_cast<double>(lfst::reclaim::ebr_policy::default_domain().quarantined()));
  const double thr_plain = static_cast<double>(plain.ops()) / plain.seconds;
  const double thr_traced =
      traced.seconds > 0 ? static_cast<double>(traced.ops()) / traced.seconds : thr_plain;
  l.set("bench.trace_overhead_pct", 100.0 * (thr_plain - thr_traced) / thr_plain);

  if constexpr (Store::durable) {
    l.set("storage.wal.bytes_per_mut", ratio(d.wal_bytes, ls.effective()),
          ls.effective());
    l.set("storage.wal.appends_per_mut", ratio(d.wal_appends, ls.effective()),
          ls.effective());
    l.set("storage.wal.records_per_fsync", ratio(d.wal_appends, d.wal_fsyncs),
          d.wal_fsyncs);
    l.set("storage.wal.lag_records_max", static_cast<double>(ls.lag_max));
    auto flushes = spans.durations(span_kind::flush);
    l.set("storage.wal.flush_us", percentile(flushes, 50.0) / 1e3, flushes.size());
    l.set("storage.checkpoint.count", static_cast<double>(d.wal_rotations));
    const auto& rec = setup.rec;
    l.set("storage.recovery.checkpoint_load_us", rec.us_checkpoint_load);
    l.set("storage.recovery.replay_us", rec.us_replay);
    const auto replayed = static_cast<double>(std::max<std::uint64_t>(rec.replayed, 1));
    l.set("storage.recovery.replay_ns_per_record", 1e3 * rec.us_replay / replayed,
          rec.replayed);
    l.set("storage.recovery.records_replayed", static_cast<double>(rec.replayed));
    l.set("skiptree.bulk_load.us", setup.open_us - rec.us_total);

    // Recovery -- the last auto-checkpoint plus the WAL written since --
    // must reproduce exactly the acknowledged state.
    st.d.reset();
    const std::uint64_t r0 = now_ns();
    auto o = durable_opts();
    o.checkpoint_bytes = 0;
    durable_t reopened(opt.workdir + "/open", o);
    spans.record(main_slot, span_kind::reopen, r0, now_ns());
    std::string why;
    const std::uint64_t bad = check_quiescent(reopened.tree(), mirrors, why);
    check(bad, "recovered set: " + why);
    const std::uint64_t c0 = now_ns();
    reopened.checkpoint();
    const std::uint64_t c1 = now_ns();
    spans.record(main_slot, span_kind::checkpoint, c0, c1);
    l.set("storage.checkpoint.us", static_cast<double>(c1 - c0) / 1e3);
    reopened.close();
  }
  if (plain.dropped_samples + traced.dropped_samples != 0) {
    std::printf("# warning: %llu latency samples dropped (buffer full)\n",
                static_cast<unsigned long long>(plain.dropped_samples +
                                                traced.dropped_samples));
  }
}

const workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

void print_report(const report& r, const metric_decl* decl, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = r.m.find(decl[i].name);
    if (it == r.m.end()) continue;
    std::printf("metric %-40s %18.6f %-13s samples=%llu\n", decl[i].name,
                it->second.value, decl[i].unit,
                static_cast<unsigned long long>(it->second.samples));
  }
}

int run(const options& opt) {
  const workload* w = find_workload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < w->clients) {
    std::fprintf(stderr,
                 "refusing to run: workload %s needs %u clients but only %zu CPUs "
                 "are in the affinity mask\n",
                 w->name, w->clients, cpus.size());
    return 2;
  }
  // With a CPU to spare, the main thread -- and the background threads the
  // durable tree starts from it, which inherit its mask -- get that CPU to
  // themselves, so they do not preempt clients.
  const bool main_pinned = cpus.size() > w->clients && pin_to_cpu(cpus[w->clients]);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d clients=%u "
              "key_range=%llu mix(contains/add/remove/scan)=%u/%u/%u/%u main_cpu=%s\n",
              w->name, static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, w->clients,
              static_cast<unsigned long long>(w->key_range), w->pct[0], w->pct[1],
              w->pct[2], w->pct[3],
              main_pinned ? std::to_string(cpus[w->clients]).c_str() : "any");
  for (const auto& [k, v] :
       environment_stamp(lfst::skiptree::selected_kernel_name(), opt.revision,
                         opt.seed)) {
    std::printf("# stamp %s=%s\n", k.c_str(), v.c_str());
  }
  std::fflush(stdout);

  const std::string workdir = opt.workdir + "/" + std::to_string(::getpid());
  std::filesystem::remove_all(workdir);
  std::filesystem::create_directories(workdir);
  span_recorder spans(opt.trace, w->clients + 1);
  crew team(w->clients, cpus);
  // Client state (mirrors, sample buffers) exists before any set-up, so
  // it stays out of rss_growth_bytes_per_key.
  clients_t cs;
  for (unsigned t = 0; t < w->clients; ++t) {
    cs.push_back(std::make_unique<client_state>(*w, t, opt.seed, opt.seconds));
  }
  setup_info setup;
  run_result res;
  options o = opt;
  o.workdir = workdir;
  // Inputs are generated before set-up and live to the end of the run, so
  // they are neither timed nor counted in rss_growth_bytes_per_key.
  if (w->durable) {
    durable_store st;
    const std::uint64_t fx = spans.open(w->clients, span_kind::fixture);
    const std::vector<std::uint8_t> present =
        write_fixture(workdir + "/fixture", w->key_range, opt.seed);
    spans.close(fx);
    setup_durable(st, *w, cs, workdir, present, spans, setup);
    measure(st, *w, cs, team, o, spans, setup, res);
  } else {
    skip_store st;
    std::vector<std::vector<key_type>> share(w->clients);
    for (key_type k : random_half(w->key_range, opt.seed)) {
      share[k % w->clients].push_back(k);
    }
    setup_skip(st, *w, cs, team, share, spans, setup);
    measure(st, *w, cs, team, o, spans, setup, res);
  }
  std::filesystem::remove_all(workdir);

  const double error_rate =
      res.attempted == 0 ? 1.0 : static_cast<double>(res.failed) / res.attempted;
  print_report(res.e2e, kEndToEnd, std::size(kEndToEnd));
  print_report(res.e2e, kEndToEndUnbounded, std::size(kEndToEndUnbounded));
  std::printf("metric %-40s %18.6g %-13s samples=%llu\n", "error_rate", error_rate,
              "ratio", static_cast<unsigned long long>(res.attempted));
  if (opt.trace) {
    print_report(res.layer, kPerLayer, std::size(kPerLayer));
    print_report(res.layer, kStorageLayer, std::size(kStorageLayer));
    for (const auto& [kind, s] : spans.summarize()) {
      std::printf("span %-20s count=%-9llu self_ms=%-12.3f p50_ns=%-10.0f p99_ns=%.0f\n",
                  span_name(kind), static_cast<unsigned long long>(s.count), s.self_ms,
                  s.p50_ns, s.p99_ns);
    }
    if (!opt.trace_out.empty()) {
      if (spans.write_chrome_json(opt.trace_out)) {
        std::printf("# trace written to %s\n", opt.trace_out.c_str());
      } else {
        std::fprintf(stderr, "cannot write trace file %s\n", opt.trace_out.c_str());
      }
    }
  }
  for (const auto& e : res.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

  const report& out = opt.trace ? res.layer : res.e2e;
  const metric_decl* decl = opt.trace ? kPerLayer : kEndToEnd;
  const std::size_t n = opt.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  std::string json = "{\"correct\": ";
  json += res.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < n; ++i) {
    json += std::string(i ? ", " : "") + "\"" + decl[i].name + "\": {\"value\": " +
            json_number(out.m.at(decl[i].name).value) + ", \"unit\": \"" +
            decl[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return res.failed == 0 ? 0 : 1;
}

// --- self-test --------------------------------------------------------------------

int self_test() {
  int bad = 0;
  const auto check = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++bad;
  };
  {
    std::vector<int> v;
    for (int i = 1; i <= 100; ++i) v.push_back(101 - i);
    check(percentile(v, 50.0) == 50 && percentile(v, 99.0) == 99 &&
              percentile(v, 100.0) == 100 && percentile(v, 0.0) == 1,
          "nearest-rank percentiles of 1..100");
    std::vector<int> three = {30, 10, 20};
    check(percentile(three, 50.0) == 20 && percentile(three, 99.0) == 30,
          "nearest-rank percentiles of {10,20,30}");
    std::vector<int> one = {7};
    check(percentile(one, 50.0) == 7 && percentile(one, 99.0) == 7,
          "percentiles of a single sample");
    std::vector<int> none;
    check(percentile(none, 50.0) == 0, "percentile of no samples is 0");
    check(median(std::vector<double>{0.9, 0.1, 0.5, 0.3}) == 0.3,
          "median of an even count is the lower middle");
  }
  {
    const std::regex name_re("[A-Za-z0-9_.-]+");
    bool ok = true;
    for (const auto& d : kEndToEnd) ok = ok && std::regex_match(d.name, name_re);
    for (const auto& d : kEndToEndUnbounded) ok = ok && std::regex_match(d.name, name_re);
    for (const auto& d : kPerLayer) ok = ok && std::regex_match(d.name, name_re);
    for (const auto& d : kStorageLayer) ok = ok && std::regex_match(d.name, name_re);
    check(ok, "every metric name matches [A-Za-z0-9_.-]+");
  }
  {
    const workload w{"t", false, 2, 10, {25, 25, 25, 25}, false};
    mirror m(w.key_range, w.clients, 1);
    m.on_add(3, true);
    m.on_contains(3, true);
    m.on_remove(5, false);
    m.on_scan(0, 10, {0, 2, 3, 4});
    check(m.failures() == 0, "oracle accepts correct results");
    m.on_add(3, true);  // 3 is present: a correct add returns false
    check(m.failures() == 1, "oracle rejects add of a present key returning true");
    m.on_contains(7, true);
    check(m.failures() == 2, "oracle rejects contains of an absent key returning true");
    m.on_scan(0, 10, {2, 3, 5});  // 5 is not present
    check(m.failures() == 3, "oracle rejects a scan reporting an absent own key");
    m.on_scan(0, 10, {});  // own key 3 missing
    check(m.failures() == 4, "oracle rejects a scan that misses an own key");
    m.on_scan(0, 10, {3, 2});
    check(m.failures() == 5, "oracle rejects a descending scan");
    m.on_scan(4, 10, {3});
    check(m.failures() == 6, "oracle rejects a scan key outside the range");
    std::vector<mirror> ms = {mirror(10, 2, 0), mirror(10, 2, 1)};
    ms[0].set(4, true);
    ms[1].set(3, true);
    set_comparator ok_cmp(ms);
    ok_cmp.visit(3);
    ok_cmp.visit(4);
    set_comparator bad_cmp(ms);
    bad_cmp.visit(3);
    bad_cmp.visit(6);
    check(ok_cmp.mismatches() == 0 && bad_cmp.mismatches() == 2,
          "final-set comparison counts missing and extra keys");
    check(quiescent_scan_ok(ms, 0, 10, {3, 4}) && quiescent_scan_ok(ms, 4, 20, {4}) &&
              quiescent_scan_ok(ms, 5, 9, {}),
          "quiescent scan check accepts the mirrors' union in range");
    check(!quiescent_scan_ok(ms, 0, 10, {4}) && !quiescent_scan_ok(ms, 0, 10, {3}),
          "quiescent scan check rejects a scan that misses a key");
    check(!quiescent_scan_ok(ms, 0, 10, {3, 4, 5}) &&
              !quiescent_scan_ok(ms, 0, 20, {3, 4, 12}),
          "quiescent scan check rejects an absent key and one beyond the key range");
    check(!quiescent_scan_ok(ms, 4, 10, {3, 4}) && !quiescent_scan_ok(ms, 0, 10, {4, 3}),
          "quiescent scan check rejects a key outside the range and a descending scan");
  }
  std::printf("%s\n", bad == 0 ? "self-test passed" : "self-test FAILED");
  return bad == 0 ? 0 : 1;
}

bool parse_args(int argc, char** argv, options& o, bool& selftest) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
      if (!(o.seconds > 0)) return false;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return false;
      o.trace = v == "1";
    } else if (a == "--workdir") {
      o.workdir = v;
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else if (a == "--revision") {
      o.revision = v;
    } else {
      return false;
    }
  }
  return selftest || !o.workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::options opt;
  bool selftest = false;
  try {
    if (!perfbench::parse_args(argc, argv, opt, selftest)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                   "[--workdir DIR] [--trace-out FILE] [--revision REV]\n"
                   "       perfbench --self-test\n");
      return 2;
    }
    return selftest ? perfbench::self_test() : perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
