// Ablation C: structural optimality -- organically grown vs bulk-loaded.
//
// The paper's thesis is that relaxed optimality is harmless because
// compaction restores good paths over time.  This harness quantifies the
// other end: how much read throughput does a perfectly optimal structure
// (bulk-loaded at exactly width 1/q) have over (a) an organically grown
// tree and (b) a deliberately degraded one (grown with churn, compaction
// off)?  The gap bounds what lazy compaction is ultimately chasing.
#include <algorithm>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "skiptree/skip_tree.hpp"
#include "skiptree/validate.hpp"

namespace {

using key = long;
using lfst::bench::bench_config;
using lfst::workload::scenario;

double read_throughput(lfst::skiptree::skip_tree<key>& set,
                       const bench_config& cfg, std::uint64_t range) {
  scenario sc;
  sc.operations = lfst::workload::mix{100, 0, 0};
  sc.key_range = range;
  sc.total_ops = cfg.ops;
  sc.threads = cfg.threads.back();
  sc.seed = 0xb11c;
  std::vector<std::vector<lfst::workload::op>> streams;
  for (int tid = 0; tid < sc.threads; ++tid) {
    streams.push_back(lfst::workload::make_op_stream(sc, sc.seed, tid));
  }
  return lfst::workload::execute_trial(set, streams).ops_per_ms;
}

}  // namespace

int main(int argc, char** argv) {
  lfst::bench::telemetry_reporter telemetry(argc, argv);
  const bench_config cfg = bench_config::from_env();
  lfst::bench::print_header(
      "Ablation C: bulk-loaded (optimal) vs grown vs degraded", cfg);

  constexpr std::uint64_t kRange = 1 << 22;
  constexpr std::size_t kKeys = 300000;
  lfst::skiptree::skip_tree_options o;
  o.q_log2 = 5;

  // The common key set.
  std::vector<key> keys;
  {
    lfst::xoshiro256ss rng(0xdead);
    keys.reserve(kKeys);
    for (std::size_t i = 0; i < kKeys; ++i) {
      keys.push_back(static_cast<key>(rng.below(kRange)));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }

  lfst::workload::table tab({"tree construction", "read ops/ms", "nodes",
                             "empty", "suboptimal refs"});

  {
    auto t = lfst::skiptree::skip_tree<key>::from_sorted(keys, o);
    const double tput = read_throughput(t, cfg, kRange);
    const auto rep = lfst::skiptree::skip_tree_inspector<key>(t).validate();
    tab.add_row({"bulk-loaded (optimal)", lfst::workload::table::fmt(tput, 0),
                 std::to_string(rep.total_nodes),
                 std::to_string(rep.empty_nodes),
                 std::to_string(rep.suboptimal_refs)});
  }
  {
    lfst::skiptree::skip_tree<key> t(o);
    for (key k : keys) t.add(k);
    const double tput = read_throughput(t, cfg, kRange);
    const auto rep = lfst::skiptree::skip_tree_inspector<key>(t).validate();
    tab.add_row({"grown (random heights)", lfst::workload::table::fmt(tput, 0),
                 std::to_string(rep.total_nodes),
                 std::to_string(rep.empty_nodes),
                 std::to_string(rep.suboptimal_refs)});
  }
  {
    lfst::skiptree::skip_tree_options off = o;
    off.compaction = false;
    lfst::skiptree::skip_tree<key> t(off);
    // Grow with churn: insert everything plus decoys, remove the decoys.
    lfst::xoshiro256ss rng(0xbeef);
    for (key k : keys) t.add(k);
    std::vector<key> decoys;
    for (std::size_t i = 0; i < kKeys; ++i) {
      const key k = static_cast<key>(rng.below(kRange));
      if (t.add(k)) decoys.push_back(k);
    }
    for (key k : decoys) t.remove(k);
    const double tput = read_throughput(t, cfg, kRange);
    const auto rep = lfst::skiptree::skip_tree_inspector<key>(t).validate();
    tab.add_row({"degraded (churn, no compaction)",
                 lfst::workload::table::fmt(tput, 0),
                 std::to_string(rep.total_nodes),
                 std::to_string(rep.empty_nodes),
                 std::to_string(rep.suboptimal_refs)});
  }
  tab.print();
  std::printf("\nexpected shape: optimal >= grown > degraded; save/load "
              "(skiptree/serialize.hpp)\nturns any tree into the first "
              "row.\n");
  return 0;
}
