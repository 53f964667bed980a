// Structural census: memory per key across the four structures.
//
// The Figure 9 locality gap has a simple mechanism: how many bytes -- and
// therefore cache lines -- must a traversal touch per key?  This harness
// fills each structure with the same random key set and reports bytes/key
// of reachable heap (node headers, towers, payload blocks).  The skip-tree
// amortizes its 16-byte node header over 1/q keys; the skip-list pays a
// full node plus an expected 1/(1-q) tower slots per key.
#include <cstdio>
#include <memory>
#include <string>

#include "avltree/opt_tree.hpp"
#include "bench_common.hpp"
#include "blinktree/blink_tree.hpp"
#include "common/rng.hpp"
#include "skiplist/skip_list.hpp"
#include "skiptree/skip_tree.hpp"
#include "skiptree/validate.hpp"

int main(int argc, char** argv) {
  lfst::bench::telemetry_reporter telemetry(argc, argv);
  const auto cfg = lfst::bench::bench_config::from_env();
  lfst::bench::print_header("Structural census: memory per key", cfg);

  const std::size_t n = std::max<std::size_t>(cfg.ops, 200000);
  std::printf("filling each structure with %zu random 8-byte keys\n\n", n);

  auto fill = [n](auto& set) {
    lfst::xoshiro256ss rng(0xfee1);
    for (std::size_t i = 0; i < n; ++i) {
      set.add(static_cast<long>(rng.below(std::uint64_t{1} << 40)));
    }
    return set.size();
  };

  lfst::workload::table tab(
      {"structure", "keys", "bytes/key", "total MiB", "notes"});

  {
    lfst::skiptree::skip_tree_options o;
    o.q_log2 = 5;
    lfst::skiptree::skip_tree<long> t(o);
    const std::size_t keys = fill(t);
    const std::size_t bytes =
        lfst::skiptree::skip_tree_inspector<long>(t).live_bytes();
    tab.add_row({"skip-tree q=1/32", std::to_string(keys),
                 lfst::workload::table::fmt(
                     static_cast<double>(bytes) / static_cast<double>(keys), 1),
                 lfst::workload::table::fmt(
                     static_cast<double>(bytes) / (1024.0 * 1024.0), 1),
                 "header amortized over ~32 keys"});
  }
  {
    lfst::skiplist::skip_list<long> t;
    const std::size_t keys = fill(t);
    const std::size_t bytes = t.memory_footprint();
    tab.add_row({"skip-list q=1/4", std::to_string(keys),
                 lfst::workload::table::fmt(
                     static_cast<double>(bytes) / static_cast<double>(keys), 1),
                 lfst::workload::table::fmt(
                     static_cast<double>(bytes) / (1024.0 * 1024.0), 1),
                 "one node + tower per key"});
  }
  {
    lfst::avltree::opt_tree<long> t;
    const std::size_t keys = fill(t);
    const std::size_t bytes = t.memory_footprint();
    tab.add_row({"opt-tree", std::to_string(keys),
                 lfst::workload::table::fmt(
                     static_cast<double>(bytes) / static_cast<double>(keys), 1),
                 lfst::workload::table::fmt(
                     static_cast<double>(bytes) / (1024.0 * 1024.0), 1),
                 "fat node: version/lock/parent"});
  }
  {
    lfst::blinktree::blink_tree_options o;
    o.min_node_size = 128;
    lfst::blinktree::blink_tree<long> t(o);
    const std::size_t keys = fill(t);
    const std::size_t bytes = t.memory_footprint();
    tab.add_row({"b-link-tree M=128", std::to_string(keys),
                 lfst::workload::table::fmt(
                     static_cast<double>(bytes) / static_cast<double>(keys), 1),
                 lfst::workload::table::fmt(
                     static_cast<double>(bytes) / (1024.0 * 1024.0), 1),
                 "vectors reserved to 2M"});
  }
  tab.print();
  std::printf("\nexpected shape: skip-tree and b-link (packed nodes) well "
              "below skip-list and opt-tree\n(node-per-key), which is the "
              "mechanism behind the Figure 9 large-working-set gap.\n");
  return 0;
}
