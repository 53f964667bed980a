// Google-benchmark microbenchmarks: per-operation cost of contains / add /
// remove for each structure across working-set sizes.  These are not a
// paper figure; they localize WHERE the Figure 9 differences come from
// (e.g. the skip-list's pointer-chase per element vs the skip-tree's packed
// nodes as the working set leaves cache).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "avltree/opt_tree.hpp"
#include "avltree/snap_tree.hpp"
#include "bench_common.hpp"
#include "blinktree/blink_tree.hpp"
#include "common/rng.hpp"
#include "skiplist/skip_list.hpp"
#include "skiptree/skip_tree.hpp"

namespace {

using key = long;

template <typename Set>
std::unique_ptr<Set> make_set() {
  return std::make_unique<Set>();
}

template <>
std::unique_ptr<lfst::skiptree::skip_tree<key>> make_set() {
  lfst::skiptree::skip_tree_options o;
  o.q_log2 = 5;
  return std::make_unique<lfst::skiptree::skip_tree<key>>(o);
}

template <>
std::unique_ptr<lfst::blinktree::blink_tree<key>> make_set() {
  lfst::blinktree::blink_tree_options o;
  o.min_node_size = 128;
  return std::make_unique<lfst::blinktree::blink_tree<key>>(o);
}

/// Pre-fill with `size` random keys from a range 4x the size (so about half
/// of the probe keys hit).
template <typename Set>
std::uint64_t prefill(Set& set, std::int64_t size) {
  lfst::xoshiro256ss rng(0xf111);
  const std::uint64_t range = static_cast<std::uint64_t>(size) * 4;
  for (std::int64_t i = 0; i < size; ++i) {
    set.add(static_cast<key>(rng.below(range)));
  }
  return range;
}

template <typename Set>
void BM_Contains(benchmark::State& state) {
  auto set = make_set<Set>();
  const std::uint64_t range = prefill(*set, state.range(0));
  lfst::xoshiro256ss rng(0xc0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        set->contains(static_cast<key>(rng.below(range))));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

template <typename Set>
void BM_AddRemoveCycle(benchmark::State& state) {
  auto set = make_set<Set>();
  const std::uint64_t range = prefill(*set, state.range(0));
  lfst::xoshiro256ss rng(0xad);
  for (auto _ : state) {
    const key k = static_cast<key>(rng.below(range));
    benchmark::DoNotOptimize(set->add(k));
    benchmark::DoNotOptimize(set->remove(k));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}

template <typename Set>
void BM_Iterate(benchmark::State& state) {
  auto set = make_set<Set>();
  prefill(*set, state.range(0));
  for (auto _ : state) {
    std::uint64_t n = 0;
    set->for_each([&](const key&) { ++n; });
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

constexpr std::int64_t kSmall = 1 << 10;
constexpr std::int64_t kMedium = 1 << 16;
constexpr std::int64_t kLarge = 1 << 20;

// Fixed iteration counts: benchmark's automatic calibration would re-enter
// the benchmark function (and so redo the expensive prefill) several times
// per case.
#define LFST_BENCH_SET(fn, iters)                                       \
  BENCHMARK_TEMPLATE(fn, lfst::skiptree::skip_tree<key>)                \
      ->Arg(kSmall)->Arg(kMedium)->Arg(kLarge)->Iterations(iters);      \
  BENCHMARK_TEMPLATE(fn, lfst::skiplist::skip_list<key>)                \
      ->Arg(kSmall)->Arg(kMedium)->Arg(kLarge)->Iterations(iters);      \
  BENCHMARK_TEMPLATE(fn, lfst::avltree::opt_tree<key>)                  \
      ->Arg(kSmall)->Arg(kMedium)->Arg(kLarge)->Iterations(iters);      \
  BENCHMARK_TEMPLATE(fn, lfst::blinktree::blink_tree<key>)              \
      ->Arg(kSmall)->Arg(kMedium)->Arg(kLarge)->Iterations(iters);

LFST_BENCH_SET(BM_Contains, 300000)
LFST_BENCH_SET(BM_AddRemoveCycle, 100000)

// The in-node search kernel in isolation: random probes into a pool of
// node-like sorted key runs, one search per iteration.  The pool is large
// enough that the probed run usually misses L1, matching how a descent
// encounters a node; `width` sweeps the node sizes the trees actually build
// (expected skip-tree width 1/q = 32; b-link nodes up to 2M = 256).
template <typename Search>
void BM_KernelSearch(benchmark::State& state) {
  const std::uint32_t width = static_cast<std::uint32_t>(state.range(0));
  constexpr std::size_t kNodes = 4096;
  std::vector<key> pool(kNodes * width);
  lfst::xoshiro256ss rng(0x5ea7c4);
  for (key& k : pool) k = static_cast<key>(rng.below(1u << 30));
  for (std::size_t n = 0; n < kNodes; ++n) {
    std::sort(pool.begin() + static_cast<std::ptrdiff_t>(n * width),
              pool.begin() + static_cast<std::ptrdiff_t>((n + 1) * width));
  }
  const std::less<key> cmp;
  for (auto _ : state) {
    const std::size_t n = rng.below(kNodes);
    const key v = static_cast<key>(rng.below(1u << 30));
    benchmark::DoNotOptimize(
        Search::search(pool.data() + n * width, width, v, cmp));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK_TEMPLATE(BM_KernelSearch, lfst::skiptree::branchfree_search_kernel)
    ->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Iterations(2000000);

// Iteration also includes the snap-tree (the Figure 10 participant).
BENCHMARK_TEMPLATE(BM_Iterate, lfst::skiptree::skip_tree<key>)
    ->Arg(kMedium)->Arg(kLarge)->Iterations(8);
BENCHMARK_TEMPLATE(BM_Iterate, lfst::skiplist::skip_list<key>)
    ->Arg(kMedium)->Arg(kLarge)->Iterations(8);
BENCHMARK_TEMPLATE(BM_Iterate, lfst::avltree::snap_tree<key>)
    ->Arg(kMedium)->Arg(kLarge)->Iterations(8);
BENCHMARK_TEMPLATE(BM_Iterate, lfst::blinktree::blink_tree<key>)
    ->Arg(kMedium)->Arg(kLarge)->Iterations(8);

// Multi-threaded add/remove over a deliberately tiny key range: the whole
// set fits in a handful of leaves, so concurrent payload CASes collide and
// the skip-tree's retry paths (and hence the LFST_METRICS retry histograms)
// become non-trivial.
void BM_ContendedAddRemove(benchmark::State& state) {
  static lfst::skiptree::skip_tree<key>* shared = [] {
    lfst::skiptree::skip_tree_options o;
    o.q_log2 = 5;
    auto* t = new lfst::skiptree::skip_tree<key>(o);
    lfst::xoshiro256ss rng(0xc027);
    for (int i = 0; i < 12; ++i) t->add(static_cast<key>(rng.below(16)));
    return t;
  }();
  lfst::xoshiro256ss rng(0xc028 + static_cast<std::uint64_t>(
                                      state.thread_index()));
  for (auto _ : state) {
    const key k = static_cast<key>(rng.below(16));
    benchmark::DoNotOptimize(shared->add(k));
    benchmark::DoNotOptimize(shared->remove(k));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_ContendedAddRemove)->Threads(4)->Iterations(250000);

/// Console output as usual, plus every per-iteration run captured into the
/// bench-JSON sidecar (one summary entry per case, named by the benchmark's
/// canonical name -- stable across runs, which is what the gate joins on).
class json_capture_reporter : public benchmark::ConsoleReporter {
 public:
  explicit json_capture_reporter(lfst::bench::bench_json_reporter& out)
      : out_(out) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& r : reports) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      auto it = r.counters.find("items_per_second");
      const double items_per_ms =
          it == r.counters.end() ? 0.0
                                 : static_cast<double>(it->second) / 1000.0;
      out_.record(r.benchmark_name(), r.threads,
                  lfst::summary::of({items_per_ms}));
    }
  }

 private:
  lfst::bench::bench_json_reporter& out_;
};

}  // namespace

int main(int argc, char** argv) {
  lfst::bench::telemetry_reporter telemetry(argc, argv);
  lfst::bench::bench_json_reporter bench_json("micro", argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  json_capture_reporter reporter(bench_json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
