// Ablation D: the price of hot-path allocation.
//
// Every add/remove on the skip-tree replaces an immutable payload, so a
// malloc/free pair rides on every mutation (deferred through the
// reclamation grace period).  The paper's JVM artifact hides this cost in
// the garbage collector's bump allocator; this port makes it a policy.
// The same Fig. 9 mixed workload runs twice per structure: once on the
// pooled slab allocator (the default), once on the aligned global heap
// (`new_delete_policy`).  The pool's hit-rate counters are printed so the
// throughput delta can be attributed to actual block reuse.
#include <cstdio>
#include <memory>
#include <string>

#include "alloc/pool.hpp"
#include "bench_common.hpp"
#include "skiplist/skip_list.hpp"
#include "skiptree/skip_tree.hpp"

namespace {

using key = long;
using lfst::bench::bench_config;
using lfst::workload::scenario;

template <typename Factory>
double throughput(const scenario& sc, Factory&& f) {
  return lfst::workload::run_scenario(sc, std::forward<Factory>(f)).mean;
}

}  // namespace

int main(int argc, char** argv) {
  lfst::bench::telemetry_reporter telemetry(argc, argv);
  const bench_config cfg = bench_config::from_env();
  lfst::bench::print_header(
      "Ablation D: allocation policy (pooled slabs vs global heap)", cfg);

  lfst::workload::table tab({"structure / mix", "pooled (ops/ms)",
                             "new/delete (ops/ms)", "pool gain"});
  for (const auto& m :
       {lfst::workload::kReadDominated, lfst::workload::kWriteDominated}) {
    scenario sc;
    sc.operations = m;
    sc.key_range = lfst::workload::kRangeMedium;
    sc.total_ops = cfg.ops;
    sc.threads = cfg.threads.back();
    sc.trials = cfg.trials;
    sc.seed = 0x9a7c;

    {
      const double pooled = throughput(sc, [] {
        lfst::skiptree::skip_tree_options o;
        o.q_log2 = 5;
        return std::make_unique<lfst::skiptree::skip_tree<key>>(o);
      });
      const double plain = throughput(sc, [] {
        lfst::skiptree::skip_tree_options o;
        o.q_log2 = 5;
        return std::make_unique<lfst::skiptree::skip_tree<
            key, std::less<key>, lfst::reclaim::ebr_policy,
            lfst::alloc::new_delete_policy>>(o);
      });
      tab.add_row({std::string("skip-tree ") + lfst::bench::mix_name(m),
                   lfst::workload::table::fmt(pooled, 0),
                   lfst::workload::table::fmt(plain, 0),
                   lfst::workload::table::fmt((pooled / plain - 1.0) * 100.0,
                                              1) +
                       "%"});
    }
    {
      const double pooled = throughput(sc, [] {
        return std::make_unique<lfst::skiplist::skip_list<key>>();
      });
      const double plain = throughput(sc, [] {
        return std::make_unique<lfst::skiplist::skip_list<
            key, std::less<key>, lfst::reclaim::ebr_policy,
            lfst::alloc::new_delete_policy>>();
      });
      tab.add_row({std::string("skip-list ") + lfst::bench::mix_name(m),
                   lfst::workload::table::fmt(pooled, 0),
                   lfst::workload::table::fmt(plain, 0),
                   lfst::workload::table::fmt((pooled / plain - 1.0) * 100.0,
                                              1) +
                       "%"});
    }
  }
  tab.print();

  const lfst::alloc::alloc_counters c = lfst::alloc::pool_policy::counters();
  std::printf(
      "\npool counters: %llu allocations, %llu reused (%.1f%% hit rate), "
      "%llu slab carves, %llu heap fallbacks, %llu deallocations\n",
      static_cast<unsigned long long>(c.allocations),
      static_cast<unsigned long long>(c.pool_hits), c.hit_rate() * 100.0,
      static_cast<unsigned long long>(c.slab_carves),
      static_cast<unsigned long long>(c.fallbacks),
      static_cast<unsigned long long>(c.deallocations));
  std::printf(
      "expected shape: pooled at least matches the global heap on the "
      "read-dominated\nmix and pulls ahead on the write-dominated mix, with "
      "the hit rate climbing\ntoward 100%% as the steady state recycles "
      "every retired payload.\n");
  return 0;
}
