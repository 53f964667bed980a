// Contention profile: CAS-failure rate vs thread count and working-set
// size, with per-level attribution.
//
// Figure 9's small-working-set panels (max size 500) are dominated by CAS
// contention: with only a handful of nodes, concurrent writers keep
// invalidating each other's payload snapshots.  This harness measures the
// skip-tree's lost-CAS rate directly across thread counts and key ranges,
// the microscopic view of the macroscopic throughput curves.
//
// The always-on CAS heatmap (skiptree/heatmap.hpp) rides along: every
// configuration prints WHERE the failures landed (hottest level and its
// share), every heatmap goes into the --telemetry-json sidecar for
// tools/telemetry_report.py, and the harness HARD-CHECKS the attribution
// invariant -- the heatmap's bucket totals must equal the tree's
// cas_failures counter exactly (the tree is quiescent when both are read).
// A mismatch exits nonzero so CI catches a missed attribution site.
#include <cinttypes>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "skiptree/skip_tree.hpp"

int main(int argc, char** argv) {
  lfst::bench::telemetry_reporter telemetry(argc, argv);
  using lfst::bench::bench_config;
  using lfst::workload::scenario;
  const bench_config cfg = bench_config::from_env();
  lfst::bench::print_header(
      "Contention profile: skip-tree lost-CAS rate (write-dominated mix)",
      cfg);

  bool attribution_ok = true;
  lfst::workload::table tab({"range", "threads", "ops/ms", "CAS failures",
                             "failures per 1k ops", "hot level (share)"});
  for (const std::uint64_t range :
       {lfst::workload::kRangeSmall, lfst::workload::kRangeMedium,
        lfst::workload::kRangeLarge}) {
    for (const int threads : cfg.threads) {
      scenario sc;
      sc.operations = lfst::workload::kWriteDominated;
      sc.key_range = range;
      sc.total_ops = cfg.ops;
      sc.threads = threads;
      sc.seed = 0xca5 + static_cast<std::uint64_t>(threads);

      lfst::skiptree::skip_tree_options o;
      o.q_log2 = 5;
      auto set = std::make_unique<lfst::skiptree::skip_tree<long>>(o);
      std::vector<std::vector<lfst::workload::op>> streams;
      for (int tid = 0; tid < threads; ++tid) {
        streams.push_back(lfst::workload::make_op_stream(sc, sc.seed, tid));
      }
      lfst::workload::preload(*set, streams);
      const auto before = set->stats().cas_failures;
      const auto r = lfst::workload::execute_trial(*set, streams);
      const auto failures = set->stats().cas_failures - before;

      // Attribution invariant: heatmap total == lifetime cas_failures
      // (preload included on both sides; the trial's workers have joined,
      // so both reads are quiescent and exact).
      const auto hm = set->contention_heatmap();
      const std::uint64_t lifetime = set->stats().cas_failures;
      if (hm.total() != lifetime) {
        attribution_ok = false;
        std::fprintf(stderr,
                     "ATTRIBUTION MISMATCH: heatmap total %" PRIu64
                     " != cas_failures %" PRIu64 " (range=%s threads=%d)\n",
                     hm.total(), lifetime,
                     lfst::bench::range_name(range).c_str(), threads);
      }

      const int hot = hm.hottest_level();
      const double share =
          hm.total() == 0 ? 0.0
                          : 100.0 * static_cast<double>(hm.level_total(hot)) /
                                static_cast<double>(hm.total());
      std::string hot_cell = "-";
      if (hm.total() > 0) {
        hot_cell = "L" + std::to_string(hot) + " (" +
                   lfst::workload::table::fmt(share, 0) + "%)";
      }
      telemetry.note(hm.to_json(
          "skiptree.cas",
          "\"range\":\"" + lfst::bench::range_name(range) +
              "\",\"threads\":" + std::to_string(threads) +
              ",\"cas_failures\":" + std::to_string(lifetime)));

      tab.add_row(
          {lfst::bench::range_name(range), std::to_string(threads),
           lfst::workload::table::fmt(r.ops_per_ms, 0),
           std::to_string(failures),
           lfst::workload::table::fmt(
               1000.0 * static_cast<double>(failures) /
                   static_cast<double>(cfg.ops),
               2),
           hot_cell});
    }
  }
  tab.print();
  std::printf("\nexpected shape on parallel hardware: failure rate rises "
              "with threads and falls with\nrange (the small working set "
              "concentrates writers on a handful of payload words).\nOn an "
              "oversubscribed single core, failures stay near zero: threads "
              "are rarely\npreempted inside the read-CAS window, which is "
              "also why Figure 9's contention\ncollapse is muted there.\n");
  if (!attribution_ok) {
    std::fprintf(stderr, "\nFAILED: heatmap attribution invariant violated "
                         "(see mismatches above)\n");
    return 1;
  }
  return 0;
}
