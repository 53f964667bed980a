// Tier-1 coverage of the structural-health sampler (skiptree/health.hpp).
//
// The deterministic cases pin down the census semantics: an optimal
// bulk-loaded tree probes clean (no empty nodes, occupancy near the
// geometric ideal); churning a compaction-disabled tree leaves a backlog
// the probe must see (the degradation Fig. 8's transforms exist to repair
// is created deliberately and never cleaned up).  The concurrent case runs
// the background ticker against live mutators and checks the series stays
// sane -- the probe's contract is "bounded, guarded, approximately right",
// not exactness.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "skiptree/health.hpp"
#include "skiptree/skip_tree.hpp"

namespace lfst::skiptree {
namespace {

skip_tree_options small_nodes() {
  skip_tree_options o;
  o.q_log2 = 3;  // ideal node width 8: plenty of nodes from few keys
  return o;
}

TEST(Health, EmptyTreeProbesClean) {
  reclaim::ebr_domain domain;
  skip_tree<int> tree(skip_tree_options{}, domain);
  skip_tree_health<int> health(tree);
  const health_sample s = health.probe();
  EXPECT_EQ(s.height, 0);
  EXPECT_GE(s.sampled_nodes, 1u);
  EXPECT_EQ(s.suboptimal_refs, 0u);
  EXPECT_EQ(s.keys_sampled, 0u);
  EXPECT_FALSE(s.truncated);
  EXPECT_DOUBLE_EQ(s.ideal_node_width, 32.0);
}

TEST(Health, OptimalTreeOccupancyNearIdeal) {
  std::vector<int> keys(4096);
  for (int i = 0; i < 4096; ++i) keys[static_cast<std::size_t>(i)] = i;
  reclaim::ebr_domain domain;
  auto tree = skip_tree<int>::from_sorted(keys, small_nodes(), domain);

  health_options opts;
  opts.max_nodes_per_level = 1u << 20;  // full census: the tree is small
  skip_tree_health<int> health(tree, opts);
  const health_sample s = health.probe();

  EXPECT_GT(s.height, 0);
  EXPECT_EQ(s.empty_nodes, 0u) << "bulk load must not build empty nodes";
  EXPECT_EQ(s.suboptimal_refs, 0u) << "bulk load must aim every reference";
  EXPECT_EQ(s.compaction_backlog(), 0u);
  // Every key of every level is in the sample; occupancy should sit in the
  // same ballpark as the ideal width (the +inf terminators and the sparse
  // top levels drag it below 100%).
  EXPECT_GT(s.occupancy_pct(), 40.0);
  EXPECT_GT(s.keys_sampled, 4096u);  // leaf keys plus routing copies
  EXPECT_FALSE(s.truncated);
  // nodes_per_level must account for every sampled node.
  std::size_t across_levels = 0;
  for (std::size_t n : s.nodes_per_level) across_levels += n;
  EXPECT_EQ(across_levels, s.sampled_nodes);
}

TEST(Health, ChurnWithoutCompactionLeavesVisibleBacklog) {
  reclaim::ebr_domain domain;
  skip_tree_options o = small_nodes();
  o.compaction = false;  // ablation hook: nobody repairs the damage
  skip_tree<int> tree(o, domain);

  for (int k = 0; k < 2048; ++k) ASSERT_TRUE(tree.add(k));
  for (int k = 0; k < 2048; ++k) {
    if (k % 8 != 0) {
      ASSERT_TRUE(tree.remove(k));
    }
  }

  health_options opts;
  opts.max_nodes_per_level = 1u << 20;
  skip_tree_health<int> health(tree, opts);
  const health_sample s = health.probe();
  EXPECT_GT(s.compaction_backlog(), 0u)
      << "7/8 of the keys were removed with compaction off; the probe "
         "must see empty nodes or suboptimal references";
  EXPECT_GT(s.empty_fraction(), 0.0);
  // Occupancy collapses far below the ideal width.
  EXPECT_LT(s.occupancy_pct(), 50.0);
}

TEST(Health, BoundedWalkTruncatesAndStaysCheap) {
  std::vector<int> keys(8192);
  for (int i = 0; i < 8192; ++i) keys[static_cast<std::size_t>(i)] = i;
  reclaim::ebr_domain domain;
  auto tree = skip_tree<int>::from_sorted(keys, small_nodes(), domain);

  health_options opts;
  opts.max_nodes_per_level = 4;
  skip_tree_health<int> health(tree, opts);
  const health_sample s = health.probe();
  EXPECT_TRUE(s.truncated) << "8192 keys at width 8 far exceed 4 nodes/level";
  EXPECT_LE(s.sampled_nodes,
            4u * (static_cast<std::size_t>(s.height) + 1));
}

TEST(Health, SequenceNumbersAndElapsedAdvance) {
  reclaim::ebr_domain domain;
  skip_tree<int> tree(skip_tree_options{}, domain);
  skip_tree_health<int> health(tree);
  const health_sample a = health.probe();
  const health_sample b = health.probe();
  EXPECT_EQ(a.seq + 1, b.seq);
  EXPECT_GE(b.elapsed_us, a.elapsed_us);
}

TEST(Health, TickerCollectsSeriesUnderConcurrentChurn) {
  reclaim::ebr_domain domain;
  skip_tree<int> tree(small_nodes(), domain);

  health_ticker<int> ticker(tree, std::chrono::microseconds(100));
  ticker.start();

  constexpr int kThreads = 4;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&tree, t] {
      xoshiro256ss rng{thread_seed(0x4ea174u, static_cast<std::uint64_t>(t))};
      for (int i = 0; i < 20000; ++i) {
        const int key = static_cast<int>(rng.next() % 1024);
        if (rng.next() % 2 == 0) {
          tree.add(key);
        } else {
          tree.remove(key);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  ticker.stop();
  ticker.probe_now();

  const auto series = ticker.samples();
  ASSERT_FALSE(series.empty());
  for (const auto& s : series) {
    EXPECT_GE(s.sampled_nodes, 1u);
    EXPECT_LE(s.empty_nodes, s.sampled_nodes);
    EXPECT_GE(s.occupancy_pct(), 0.0);
  }
  // stop() then start() again must be harmless (restartable ticker).
  ticker.start();
  ticker.stop();
  domain.flush();
}

}  // namespace
}  // namespace lfst::skiptree
