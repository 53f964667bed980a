// Site suite: only built under -DLFST_METRICS=ON, where every LFST_* site
// is live.  Each test drives a structure's hot path and asserts that the
// matching events actually moved -- the sites are wired, not just
// compiled -- and that retries and steps land on the operation spans that
// were live when the deep sites fired.  Every case joins its threads
// before reading, so totals are exact.
#if !defined(LFST_METRICS)
#error "test_telemetry_sites must be compiled with -DLFST_METRICS"
#endif

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "blinktree/blink_tree.hpp"
#include "common/telemetry.hpp"
#include "list/harris_list.hpp"
#include "reclaim/ebr.hpp"
#include "skiplist/skip_list.hpp"
#include "skiptree/health.hpp"
#include "skiptree/skip_tree.hpp"

namespace lfst {
namespace {

using telemetry::ev;
using telemetry::ring_record;

telemetry::registry& reg() { return telemetry::registry::instance(); }

/// Ring records per event id.
std::array<std::size_t, telemetry::kEventCount> tally(
    const std::vector<ring_record>& records) {
  std::array<std::size_t, telemetry::kEventCount> n{};
  for (const ring_record& r : records) ++n[static_cast<std::size_t>(r.id)];
  return n;
}

std::size_t at(const std::array<std::size_t, telemetry::kEventCount>& n,
               ev id) {
  return n[static_cast<std::size_t>(id)];
}

// --- skip-tree ---------------------------------------------------------------

TEST(SkipTreeSites, GlobalCountersMirrorInstanceStats) {
  reg().reset();
  skiptree::skip_tree<long> tree;
  for (long k = 0; k < 5000; ++k) tree.add(k);
  for (long k = 0; k < 5000; k += 3) tree.remove(k);
  const auto stats = tree.stats();
  // Single tree, single thread, fresh registry: the registry's events must
  // agree exactly with the per-instance counters.
  EXPECT_EQ(reg().counter(ev::skiptree_cas_failures), stats.cas_failures);
  EXPECT_EQ(reg().counter(ev::skiptree_split), stats.splits);
  EXPECT_EQ(reg().counter(ev::skiptree_root_raise), stats.root_raises);
  EXPECT_EQ(reg().counter(ev::skiptree_compact_8a), stats.empty_bypasses);
  EXPECT_EQ(reg().counter(ev::skiptree_compact_8d), stats.migrations);
  EXPECT_GE(stats.splits, 1u);
  reg().reset();
}

TEST(SkipTreeSites, ValuesRecordEveryOperation) {
  reg().reset();
  skiptree::skip_tree<long> tree;
  constexpr long kOps = 2000;
  for (long k = 0; k < kOps; ++k) tree.add(k);
  // At least one retry sample per mutation (element raises record extra
  // samples), one depth sample per descent.
  const auto retries = reg().sketch(ev::skiptree_cas_retries_per_op);
  EXPECT_GE(retries.count, static_cast<std::uint64_t>(kOps));
  // Uncontended adds never retry.
  EXPECT_EQ(retries.max, 0u);
  EXPECT_GE(reg().sketch(ev::skiptree_traversal_depth).count,
            static_cast<std::uint64_t>(kOps));
  reg().reset();
}

TEST(SkipTreeSites, SplitMarksLandInRing) {
  reg().reset();
  skiptree::skip_tree<long> tree;
  for (long k = 0; k < 5000; ++k) tree.add(k);
  const auto n = tally(reg().drain());
  EXPECT_GT(at(n, ev::skiptree_split), 0u);
  EXPECT_GT(at(n, ev::skiptree_root_raise), 0u);
  reg().reset();
}

TEST(SkipTreeSpans, EveryOperationRecordsOne) {
  reg().reset();
  reclaim::ebr_domain domain;
  skiptree::skip_tree<int> tree(skiptree::skip_tree_options{}, domain);
  for (int k = 0; k < 100; ++k) ASSERT_TRUE(tree.add(k));
  for (int k = 0; k < 100; ++k) ASSERT_TRUE(tree.contains(k));
  for (int k = 0; k < 50; ++k) ASSERT_TRUE(tree.remove(k));
  const auto n = tally(reg().drain());
  EXPECT_EQ(at(n, ev::skiptree_add), 100u);
  EXPECT_EQ(at(n, ev::skiptree_contains), 100u);
  EXPECT_EQ(at(n, ev::skiptree_remove), 50u);
  // Every span also feeds its duration sketch, unsampled in this build.
  EXPECT_EQ(reg().sketch(ev::skiptree_add).count, 100u);
  reg().reset();
}

TEST(SkipTreeSpans, DepthGrowsWithTheTree) {
  reg().reset();
  reclaim::ebr_domain domain;
  skiptree::skip_tree_options o;
  o.q_log2 = 2;  // narrow nodes: a few thousand keys build real height
  skiptree::skip_tree<int> tree(o, domain);
  for (int k = 0; k < 4000; ++k) tree.add(k);
  reg().reset();  // look at post-build operations only

  for (int k = 0; k < 64; ++k) tree.contains(k * 50);
  const auto records = reg().drain();
  ASSERT_EQ(records.size(), 64u);
  std::uint64_t steps = 0;
  for (const auto& r : records) steps += r.steps();
  EXPECT_GT(steps, 0u) << "descent steps must be charged to the contains span";
  reg().reset();
}

TEST(SkipTreeSpans, ContendedRetriesAgreeInEveryView) {
  // The exactness invariant: every lost CAS funnels through
  // tree_core::bump_cas_failure, which records the heatmap cell, bumps the
  // tree's counter and the registry's skiptree.cas_failures, and charges
  // the innermost live span.  So across a quiesced contended run these
  // four totals must be EQUAL.  Whether contention happens at all is up to
  // the scheduler, so hammer in bounded attempts and skip -- visibly -- if
  // no CAS is ever lost.  2 spans per round per thread, plus the EBR and
  // pool records, stays under the ring capacity: nothing is overwritten
  // before the drain (checked below by counting the operation spans).
  constexpr int kThreads = 4;
  constexpr int kRounds = 2500;
  constexpr int kAttempts = 20;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    reg().reset();
    reclaim::ebr_domain domain;
    skiptree::skip_tree<int> tree(skiptree::skip_tree_options{}, domain);
    std::barrier sync(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&] {
        // Lease this thread's ring while all four are alive: a thread
        // that leased only after another exited would append to the dead
        // thread's ring and could wrap it.
        tree.contains(-1);
        sync.arrive_and_wait();
        for (int i = 0; i < kRounds; ++i) {
          tree.add(i % 8);
          tree.remove(i % 8);
        }
      });
    }
    for (auto& th : pool) th.join();
    const std::uint64_t failures = tree.stats().cas_failures;
    if (failures == 0) continue;

    std::uint64_t op_spans = 0;
    std::uint64_t span_retries = 0;
    for (const ring_record& r : reg().drain()) {
      if (r.id == ev::skiptree_add || r.id == ev::skiptree_remove) {
        ++op_spans;
        span_retries += r.retries();
      }
    }
    ASSERT_EQ(op_spans, 2u * kThreads * kRounds) << "a ring wrapped";
    EXPECT_EQ(tree.contention_heatmap().total(), failures);
    EXPECT_EQ(reg().counter(ev::skiptree_cas_failures), failures);
    EXPECT_EQ(span_retries, failures)
        << "every lost CAS must be charged to exactly one add/remove span";
    // Per-operation retry tallies cover the insert and remove loops; the
    // split loop's lost CASes are counted but not tallied.
    EXPECT_GE(failures, reg().sketch(ev::skiptree_cas_retries_per_op).sum);
    reg().reset();
    return;
  }
  GTEST_SKIP() << "scheduler never produced a lost CAS in " << kAttempts
               << " contended attempts; nothing to compare";
}

// --- other structures --------------------------------------------------------

TEST(SkipListSpans, OperationsRecord) {
  reg().reset();
  reclaim::ebr_domain domain;
  skiplist::skip_list<int> list(skiplist::skip_list_options{}, domain);
  for (int k = 0; k < 50; ++k) ASSERT_TRUE(list.add(k));
  for (int k = 0; k < 50; ++k) ASSERT_TRUE(list.contains(k));
  for (int k = 0; k < 50; ++k) ASSERT_TRUE(list.remove(k));
  const auto n = tally(reg().drain());
  EXPECT_EQ(at(n, ev::skiplist_add), 50u);
  EXPECT_EQ(at(n, ev::skiplist_contains), 50u);
  EXPECT_EQ(at(n, ev::skiplist_remove), 50u);
  EXPECT_GT(reg().counter(ev::skiplist_physical_unlinks), 0u);
  reg().reset();
}

TEST(HarrisSpans, BothFlavorsRecord) {
  reg().reset();
  {
    reclaim::ebr_domain domain;
    list::harris_list<int> ebr_list(domain);
    for (int k = 0; k < 20; ++k) ASSERT_TRUE(ebr_list.add(k));
    for (int k = 0; k < 20; ++k) ASSERT_TRUE(ebr_list.contains(k));
    for (int k = 0; k < 20; ++k) ASSERT_TRUE(ebr_list.remove(k));
  }
  {
    list::harris_list_hp<int> hp_list;
    for (int k = 0; k < 20; ++k) ASSERT_TRUE(hp_list.add(k));
    for (int k = 0; k < 20; ++k) ASSERT_TRUE(hp_list.contains(k));
    for (int k = 0; k < 20; ++k) ASSERT_TRUE(hp_list.remove(k));
  }
  const auto n = tally(reg().drain());
  EXPECT_EQ(at(n, ev::harris_add), 40u);
  EXPECT_EQ(at(n, ev::harris_contains), 40u);
  EXPECT_EQ(at(n, ev::harris_remove), 40u);
  EXPECT_EQ(reg().counter(ev::harris_physical_removals), 40u);
  reg().reset();
}

TEST(BlinkSpans, OperationsRecord) {
  reg().reset();
  blinktree::blink_tree_options o;
  o.min_node_size = 4;
  blinktree::blink_tree<int> tree(o);
  for (int k = 0; k < 100; ++k) ASSERT_TRUE(tree.add(k));
  for (int k = 0; k < 100; ++k) ASSERT_TRUE(tree.contains(k));
  for (int k = 0; k < 100; ++k) ASSERT_TRUE(tree.remove(k));
  const auto n = tally(reg().drain());
  EXPECT_EQ(at(n, ev::blink_add), 100u);
  EXPECT_EQ(at(n, ev::blink_contains), 100u);
  EXPECT_EQ(at(n, ev::blink_remove), 100u);
  reg().reset();
}

TEST(BlinkSites, SplitsCount) {
  reg().reset();
  blinktree::blink_tree_options o;
  o.min_node_size = 128;  // small nodes so a modest load forces splits
  blinktree::blink_tree<long> bt(o);
  for (long k = 0; k < 5000; ++k) bt.add(k);
  EXPECT_GT(reg().counter(ev::blink_splits), 0u);
  EXPECT_GT(reg().counter(ev::blink_root_splits), 0u);
  EXPECT_EQ(reg().counter(ev::blink_half_split_repairs),
            reg().counter(ev::blink_splits) -
                reg().counter(ev::blink_root_splits));
  reg().reset();
}

TEST(BlinkSites, ContendedSplitAccountingStaysConsistent) {
  reg().reset();
  blinktree::blink_tree_options o;
  o.min_node_size = 64;
  blinktree::blink_tree<long> bt(o);
  constexpr int kThreads = 4;
  std::barrier sync(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&bt, &sync, t] {
      sync.arrive_and_wait();
      // Disjoint but interleaved key stripes: all threads split leaves at
      // the same time, racing on shared parents.
      for (long i = 0; i < 8000; ++i) bt.add(i * kThreads + t);
    });
  }
  for (auto& w : workers) w.join();
  const auto splits = reg().counter(ev::blink_splits);
  const auto root_splits = reg().counter(ev::blink_root_splits);
  const auto repairs = reg().counter(ev::blink_half_split_repairs);
  const auto left = reg().counter(ev::blink_half_splits_left);
  EXPECT_GT(splits, 0u);
  EXPECT_GE(root_splits, 1u);
  EXPECT_GT(repairs, 0u);
  // Every split is accounted exactly once no matter the interleaving: a
  // root raise, a repaired half-split, or a half-split abandoned on OOM.
  EXPECT_EQ(repairs + left, splits - root_splits);
  reg().reset();
}

// --- pool and reclamation ----------------------------------------------------

TEST(PoolSites, AllocationPathsCount) {
  reg().reset();
  skiptree::skip_tree<long> tree;  // allocates through the shared pool
  for (long k = 0; k < 3000; ++k) tree.add(k);
  EXPECT_GT(reg().counter(ev::pool_hits), 0u);
  EXPECT_GT(reg().sketch(ev::pool_refill).count, 0u);
  reg().reset();
}

TEST(EbrSites, RetiresAndLimboDepthCount) {
  reg().reset();
  skiptree::skip_tree<long> tree;
  for (long k = 0; k < 2000; ++k) tree.add(k);
  for (long k = 0; k < 2000; ++k) tree.remove(k);
  EXPECT_GT(reg().counter(ev::ebr_retires), 0u);
  EXPECT_EQ(reg().sketch(ev::ebr_limbo_depth).count,
            reg().counter(ev::ebr_retires) -
                reg().counter(ev::ebr_cap_deferrals));
  // Every reservation records the limbo bytes; the max is the watermark.
  EXPECT_GT(reg().sketch(ev::ebr_limbo_bytes).max, 0u);
  reg().reset();
}

TEST(EbrSites, AdvancesMarkUnderContention) {
  reg().reset();
  reclaim::ebr_domain domain;
  {
    skiptree::skip_tree<long> tree(skiptree::skip_tree_options{}, domain);
    constexpr int kThreads = 4;
    std::barrier sync(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&tree, &sync, t] {
        sync.arrive_and_wait();
        // Heavy retire traffic from every thread forces repeated epoch
        // advances while other threads are pinned mid-operation.
        for (long i = 0; i < 10000; ++i) {
          const long k = t * 100000 + i;
          tree.add(k);
          tree.remove(k);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  domain.flush();
  EXPECT_GT(reg().counter(ev::ebr_advance), 1u);
  EXPECT_GE(reg().sketch(ev::ebr_try_advance).count,
            reg().counter(ev::ebr_advance));
  const auto n = tally(reg().drain());
  EXPECT_GT(at(n, ev::ebr_advance), 0u);
  reg().reset();
}

TEST(SubsystemSpans, PoolRefillAndEbrAdvanceAndHealthProbe) {
  reg().reset();
  reclaim::ebr_domain domain;
  {
    skiptree::skip_tree<int> tree(skiptree::skip_tree_options{}, domain);
    // Enough allocation traffic to force thread-local cache refills, and
    // enough retires that the domain advances its epoch.
    for (int k = 0; k < 3000; ++k) tree.add(k);
    for (int k = 0; k < 3000; ++k) tree.remove(k);
    skiptree::skip_tree_health<int> health(tree);
    health.probe();
  }
  domain.flush();
  const auto n = tally(reg().drain());
  EXPECT_GT(at(n, ev::pool_refill), 0u);
  EXPECT_GT(at(n, ev::ebr_try_advance), 0u);
  EXPECT_EQ(at(n, ev::health_probe), 1u);
  EXPECT_EQ(reg().sketch(ev::health_backlog).count, 1u);
  EXPECT_EQ(reg().sketch(ev::health_occupancy_pct).count, 1u);
  reg().reset();
}

TEST(SubsystemSpans, NestedRefillStaysInsideOperationSpan) {
  // A pool refill fires mid-add; the spans nest, so both must surface and
  // the add span must fully contain the refill span in time.  A fresh
  // thread starts with an empty allocation cache, so its adds must refill.
  reg().reset();
  reclaim::ebr_domain domain;
  skiptree::skip_tree<int> tree(skiptree::skip_tree_options{}, domain);
  std::thread([&tree] {
    for (int k = 0; k < 3000; ++k) tree.add(k);
  }).join();
  const auto records = reg().drain();
  bool found_nested = false;
  for (const auto& refill : records) {
    if (refill.id != ev::pool_refill) continue;
    for (const auto& add : records) {
      if (add.id == ev::skiptree_add && add.thread == refill.thread &&
          add.t0 <= refill.t0 && refill.t1 <= add.t1) {
        found_nested = true;
        break;
      }
    }
    if (found_nested) break;
  }
  EXPECT_TRUE(found_nested)
      << "at least one refill should fire inside a traced add";
  reg().reset();
}

}  // namespace
}  // namespace lfst
