// Ablation B: the price of safe memory reclamation.
//
// The paper's JVM implementation pays its reclamation cost inside the
// garbage collector, invisibly folded into the throughput numbers.  This
// port makes the cost explicit: the same workload runs with epoch-based
// reclamation (the default), and with the leaky policy (retired payloads
// are dropped -- an upper bound on reclamation-free performance at the cost
// of unbounded memory).  The gap bounds what the GC substitution costs.
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "reclaim/leaky.hpp"
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
  lfst::bench::print_header("Ablation B: reclamation policy (EBR vs leaky)",
                            cfg);

  lfst::workload::table tab({"structure / mix", "EBR (ops/ms)",
                             "leaky (ops/ms)", "EBR cost"});
  for (const auto& m :
       {lfst::workload::kReadDominated, lfst::workload::kWriteDominated}) {
    scenario sc;
    sc.operations = m;
    sc.key_range = lfst::workload::kRangeMedium;
    sc.total_ops = cfg.ops;
    sc.threads = cfg.threads.back();
    sc.trials = cfg.trials;
    sc.seed = 0x8ec1;

    {
      const double ebr = throughput(sc, [] {
        lfst::skiptree::skip_tree_options o;
        o.q_log2 = 5;
        return std::make_unique<lfst::skiptree::skip_tree<key>>(o);
      });
      const double leaky = throughput(sc, [] {
        lfst::skiptree::skip_tree_options o;
        o.q_log2 = 5;
        return std::make_unique<lfst::skiptree::skip_tree<
            key, std::less<key>, lfst::reclaim::leaky_policy>>(o);
      });
      tab.add_row({std::string("skip-tree ") + lfst::bench::mix_name(m),
                   lfst::workload::table::fmt(ebr, 0),
                   lfst::workload::table::fmt(leaky, 0),
                   lfst::workload::table::fmt((1.0 - ebr / leaky) * 100.0, 1) +
                       "%"});
    }
    {
      const double ebr = throughput(sc, [] {
        return std::make_unique<lfst::skiplist::skip_list<key>>();
      });
      const double leaky = throughput(sc, [] {
        return std::make_unique<lfst::skiplist::skip_list<
            key, std::less<key>, lfst::reclaim::leaky_policy>>();
      });
      tab.add_row({std::string("skip-list ") + lfst::bench::mix_name(m),
                   lfst::workload::table::fmt(ebr, 0),
                   lfst::workload::table::fmt(leaky, 0),
                   lfst::workload::table::fmt((1.0 - ebr / leaky) * 100.0, 1) +
                       "%"});
    }
  }
  tab.print();
  std::printf("\nexpected shape: single-digit percent cost on the "
              "read-dominated mix\n(guards dominate), larger on the "
              "write-dominated mix (retire traffic).\n");
  return 0;
}
