// Supplemental-material reproduction: B-link tree parameter sweep over M,
// the minimum node size (nodes hold at most 2M keys).  The paper selected
// M = 128 as the best average performer.
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "blinktree/blink_tree.hpp"

int main(int argc, char** argv) {
  lfst::bench::telemetry_reporter telemetry(argc, argv);
  lfst::bench::bench_json_reporter bench_json("param_m", argc, argv);
  using lfst::bench::bench_config;
  using lfst::workload::scenario;
  const bench_config cfg = bench_config::from_env();
  lfst::bench::print_header("Supplemental: B-link tree M parameter sweep",
                            cfg);

  const int threads = cfg.threads.back();
  std::printf("threads=%d, max size %s\n\n", threads,
              lfst::bench::range_name(lfst::workload::kRangeMedium).c_str());

  lfst::workload::table tab({"M", "90c/9a/1r", "33c/33a/33r", "(ops/ms)"});
  double best_mean = 0.0;
  std::string best_m;
  for (const std::size_t m_param : {16u, 32u, 64u, 128u, 256u}) {
    std::vector<std::string> row{std::to_string(m_param)};
    double combined = 0.0;
    for (const auto& m :
         {lfst::workload::kReadDominated, lfst::workload::kWriteDominated}) {
      scenario sc;
      sc.operations = m;
      sc.key_range = lfst::workload::kRangeMedium;
      sc.total_ops = cfg.ops;
      sc.threads = threads;
      sc.trials = cfg.trials;
      sc.seed = 0xb + static_cast<std::uint64_t>(m_param);
      const auto s = lfst::workload::run_scenario(sc, [m_param] {
        lfst::blinktree::blink_tree_options o;
        o.min_node_size = m_param;
        return std::make_unique<lfst::blinktree::blink_tree<long>>(o);
      });
      bench_json.record("param_m/M=" + std::to_string(m_param) + "/" +
                            std::to_string(m.contains_pct) + "c" +
                            std::to_string(m.add_pct) + "a" +
                            std::to_string(m.remove_pct) + "r",
                        threads, s);
      combined += s.mean;
      row.push_back(lfst::workload::table::fmt(s.mean, 0) + " +/- " +
                    lfst::workload::table::fmt(s.stddev, 0));
    }
    if (combined > best_mean) {
      best_mean = combined;
      best_m = row[0];
    }
    row.emplace_back("");
    tab.add_row(row);
  }
  tab.print();
  std::printf("\nbest average M this run: %s (paper: M = 128)\n",
              best_m.c_str());
  return 0;
}
