// Chaos stress harness: concurrent skip-tree workloads under randomized
// failpoint schedules (the tentpole acceptance test of the robustness PR).
//
// Each schedule arms a different fault family across the sites threaded
// through the allocator, the reclamation domain, and the skip-tree hot
// paths:
//
//   OOM          -- probabilistic bad_alloc at every allocation site;
//   DELAY        -- yields inside the read-to-CAS windows (publish, split,
//                   root raise, the four Fig. 8 transforms), widening races
//                   that are too narrow to hit naturally;
//   CAS-SPURIOUS -- forced spurious payload-CAS failures, driving every
//                   retry loop through its recovery path;
//   COMBINED     -- all three at once.
//
// Correctness oracle: keys are partitioned by owner thread (key k belongs
// to thread k % nthreads), so each thread's std::set mirror is exact ground
// truth even under concurrency -- the OOM-hardening contract guarantees an
// op that throws did NOT happen, and one that returns did exactly what it
// reported.  After every schedule the harness checks the full validator
// (D1-D4 + Theorem 1 + size counter), the exact key count against the union
// of mirrors, and per-key membership.  The CI job runs this binary under
// ASan, which adds the leak-cleanliness acceptance criterion.
//
// A structural-health ticker (skiptree/health.hpp) samples the tree
// throughout each schedule, and a deterministic post-oracle degradation
// phase (mass removal with compaction allocations failing) guarantees the
// probe witnesses non-zero compaction backlog -- the degradation the
// transforms exist to repair -- under every fault family.
//
// LFST_CHAOS_ITERS scales the per-thread op count for longer local soaks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "common/telemetry_export.hpp"
#include "skiptree/health.hpp"
#include "skiptree/skip_tree.hpp"
#include "skiptree/validate.hpp"

namespace lfst::skiptree {
namespace {

using failpoint::action;
using failpoint::policy;
using failpoint::registry;

constexpr int kThreads = 4;
constexpr int kKeyRange = 4096;

int iterations() {
  if (const char* env = std::getenv("LFST_CHAOS_ITERS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 4000;
}

const char* const kAllocSites[] = {
    "alloc.pool.allocate", "alloc.pool.refill", "alloc.new_delete",
    "skiptree.alloc.contents", "skiptree.alloc.node",
};

const char* const kDelaySites[] = {
    "skiptree.insert.publish", "skiptree.split.publish",
    "skiptree.root.raise", "skiptree.compact.8a", "skiptree.compact.8b",
    "skiptree.compact.8c", "skiptree.compact.8d", "skiptree.traverse.step",
    "ebr.pin", "ebr.retire", "ebr.advance",
};

struct schedule {
  const char* name;
  bool oom;
  bool delay;
  bool cas_spurious;
};

void arm(const schedule& s) {
  registry::instance().reset_all();
  // Start each schedule from a clean metrics slate so the post-run dump
  // attributes every count to this fault family alone.
  telemetry::registry::instance().reset();
  if (s.oom) {
    for (const char* site : kAllocSites) {
      registry::instance().configure(
          site, policy{.act = action::fail, .probability = 0.02});
    }
  }
  if (s.delay) {
    for (const char* site : kDelaySites) {
      registry::instance().configure(
          site,
          policy{.act = action::yield, .probability = 0.05, .delay_iters = 4});
    }
  }
  if (s.cas_spurious) {
    registry::instance().configure(
        "skiptree.cas.payload",
        policy{.act = action::fail, .probability = 0.05});
  }
}

std::uint64_t total_fires() {
  std::uint64_t n = 0;
  for (const std::string& name : registry::instance().names()) {
    n += registry::instance().fires(name);
  }
  return n;
}

/// One chaos run: churn under the armed schedule, then disarm and check
/// every oracle.  Keys are owner-partitioned so the mirrors are exact.
void run_schedule(const schedule& sched) {
  SCOPED_TRACE(sched.name);
  reclaim::ebr_domain domain;  // declared before the tree: outlives it
  skip_tree<int> tree(skip_tree_options{}, domain);
  arm(sched);

  std::vector<std::set<int>> mirrors(kThreads);
  std::atomic<std::uint64_t> thrown{0};
  const int iters = iterations();

  // Health time series: probe the live tree every 200us while the churn
  // runs (a statistical glimpse of transient debt; the guaranteed backlog
  // witness is the post-oracle degradation phase below).
  health_ticker<int> health(tree, std::chrono::microseconds(200));
  health.start();

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      xoshiro256ss rng{thread_seed(0xc4a05u, static_cast<std::uint64_t>(t))};
      std::set<int>& mine = mirrors[static_cast<std::size_t>(t)];
      for (int i = 0; i < iters; ++i) {
        const int key =
            t + kThreads * static_cast<int>(rng.next() % (kKeyRange / kThreads));
        const std::uint64_t dice = rng.next() % 100;
        try {
          if (dice < 50) {
            if (tree.add(key)) {
              ASSERT_TRUE(mine.insert(key).second)
                  << "add() returned true for a key already owned";
            } else {
              ASSERT_TRUE(mine.count(key) == 1)
                  << "add() returned false for an absent key";
            }
          } else if (dice < 80) {
            if (tree.remove(key)) {
              ASSERT_EQ(mine.erase(key), 1u)
                  << "remove() returned true for an absent key";
            } else {
              ASSERT_EQ(mine.count(key), 0u)
                  << "remove() returned false for a present key";
            }
          } else {
            // contains() on an owned key is exact; cross-owner keys are
            // exercised too but their truth value is racing.
            const bool present = tree.contains(key);
            ASSERT_EQ(present, mine.count(key) == 1)
                << "contains() disagrees with the owner's mirror";
          }
        } catch (const std::bad_alloc&) {
          // Injected OOM: the strong guarantee says the op did not happen;
          // the mirror was deliberately not updated.
          thrown.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  health.stop();
  health.probe_now();  // one post-churn sample: the residual (lazy) backlog

  const std::uint64_t fires = total_fires();
  registry::instance().reset_all();  // quiescent, fault-free verification

  // Churn-time samples are a statistical glimpse: compaction usually keeps
  // up, so whether any sample caught transient debt is timing-dependent
  // (reported below, not asserted).  The asserted witness comes after the
  // oracles, from a deterministic degradation phase.
  const auto series = health.samples();
  ASSERT_FALSE(series.empty());
  std::uint64_t churn_backlog = 0;
  std::size_t nonzero_samples = 0;
  for (const auto& s : series) {
    churn_backlog += s.compaction_backlog();
    if (s.compaction_backlog() > 0) ++nonzero_samples;
  }
  const auto& last = series.back();
  std::printf(
      "--- health series '%s': %zu samples, %zu with backlog, "
      "final: %zu nodes, %.1f%% empty, %zu suboptimal, %.0f%% occupancy ---\n",
      sched.name, series.size(), nonzero_samples, last.sampled_nodes,
      100.0 * last.empty_fraction(), last.suboptimal_refs,
      last.occupancy_pct());

  // Post-mortem view of what the fault schedule actually perturbed: retry
  // storms, skipped compactions, EBR lag (all zero without LFST_METRICS).
  // Threads have joined, so the totals are exact.
  std::printf(
      "--- telemetry after schedule '%s' ---\n%s\n", sched.name,
      telemetry::to_table(telemetry::registry::instance().capture()).c_str());

  std::set<int> expected;
  for (const auto& m : mirrors) expected.insert(m.begin(), m.end());

  skip_tree_inspector<int> inspector(tree);
  const validation_report rep = inspector.validate();
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(tree.count_keys(), expected.size());
  EXPECT_EQ(tree.size(), expected.size());
  for (int key : expected) {
    ASSERT_TRUE(tree.contains(key)) << "surviving key lost: " << key;
  }
  // The schedule must actually have injected something, or the run proved
  // nothing (guards against silently mis-named sites).
  EXPECT_GT(fires, 0u) << "schedule '" << sched.name << "' never fired";
  if (sched.oom) {
    EXPECT_GT(thrown.load(), 0u)
        << "OOM schedule injected no observable bad_alloc";
    const auto stats = tree.stats();
    EXPECT_GT(stats.alloc_failures + stats.compactions_skipped, 0u);
  }

  // Deterministic backlog witness: with compaction allocations failing,
  // every removal that linearizes leaves its debt -- emptied leaves whose
  // bypass was skipped, references aimed left of their interval -- in the
  // structure, where nobody repairs it (the tree is quiesced).  The probe
  // MUST see non-zero backlog now; the churn-time series above only might.
  // Removes that fail pre-linearization (the leaf-erase allocation itself)
  // throw and leave the key behind, which is fine: half the survivors
  // linearizing is plenty of debt.
  {
    failpoint::scoped_failpoint fp(
        "skiptree.alloc.contents",
        policy{.act = action::fail, .probability = 0.5});
    for (int key : expected) {
      try {
        tree.remove(key);
      } catch (const std::bad_alloc&) {
        // pre-linearization failure: key still present, no debt from it
      }
    }
  }
  const health_sample post = health.probe_now();
  EXPECT_GT(post.compaction_backlog(), 0u)
      << "mass removal with compaction allocations failing left no visible "
         "debt; the health probe is blind";
  std::printf(
      "--- post-degradation probe '%s': %zu nodes, %zu empty, "
      "%zu suboptimal ---\n",
      sched.name, post.sampled_nodes, post.empty_nodes, post.suboptimal_refs);
  const reclaim::flush_result fr = domain.flush();
  EXPECT_TRUE(fr.clean()) << "chaos run left " << fr.skipped_slots
                          << " slot(s) pinned at quiescent flush";
}

TEST(ChaosSkipTree, OomSchedule) {
  run_schedule({"oom", true, false, false});
}

TEST(ChaosSkipTree, DelaySchedule) {
  run_schedule({"delay", false, true, false});
}

TEST(ChaosSkipTree, CasSpuriousSchedule) {
  run_schedule({"cas-spurious", false, false, true});
}

TEST(ChaosSkipTree, CombinedSchedule) {
  run_schedule({"combined", true, true, true});
}

// Deterministic single-thread OOM: fail the very first contents allocation
// of an add into a populated tree and check the strong guarantee directly.
TEST(ChaosSkipTree, SingleAddFailureLeavesTreeUntouched) {
  reclaim::ebr_domain domain;
  skip_tree<int> tree(skip_tree_options{}, domain);
  for (int k = 0; k < 100; ++k) ASSERT_TRUE(tree.add(k));
  registry::instance().reset_all();
  {
    failpoint::scoped_failpoint fp(
        "skiptree.alloc.contents",
        policy{.act = action::fail, .max_fires = 1});
    EXPECT_THROW(tree.add(1000), std::bad_alloc);
  }
  registry::instance().reset_all();
  EXPECT_FALSE(tree.contains(1000));
  EXPECT_EQ(tree.size(), 100u);
  skip_tree_inspector<int> inspector(tree);
  const validation_report rep = inspector.validate();
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(tree.stats().alloc_failures, 1u);
  EXPECT_TRUE(tree.add(1000));  // and the tree still works
}

// Deterministic skip-compaction path: removals succeed even when every
// compaction allocation fails.
TEST(ChaosSkipTree, RemoveSucceedsWhenCompactionAllocationFails) {
  reclaim::ebr_domain domain;
  skip_tree<int> tree(skip_tree_options{}, domain);
  for (int k = 0; k < 2000; ++k) ASSERT_TRUE(tree.add(k));
  registry::instance().reset_all();
  {
    // Fail only allocations reached from remove()'s cleanup traversal:
    // skip the leaf-erase block itself by arming a low probability so both
    // paths (skip + succeed) are exercised across 1000 removals.
    failpoint::scoped_failpoint fp(
        "skiptree.alloc.contents",
        policy{.act = action::fail, .probability = 0.2});
    int removed = 0;
    for (int k = 0; k < 2000; k += 2) {
      try {
        if (tree.remove(k)) ++removed;
      } catch (const std::bad_alloc&) {
        // leaf-erase allocation failed: the key must still be present
        EXPECT_TRUE(tree.contains(k));
      }
    }
    EXPECT_GT(removed, 0);
  }
  registry::instance().reset_all();
  skip_tree_inspector<int> inspector(tree);
  const validation_report rep = inspector.validate();
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(tree.count_keys(), tree.size());
  const reclaim::flush_result fr = domain.flush();
  EXPECT_TRUE(fr.clean()) << "chaos run left " << fr.skipped_slots
                          << " slot(s) pinned at quiescent flush";
}

}  // namespace
}  // namespace lfst::skiptree
