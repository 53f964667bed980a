// Figure 9 reproduction: total throughput (operations/ms) of the four
// concurrent ordered sets across thread counts, for the six panels of the
// paper's evaluation -- {90% contains / 9% add / 1% remove, 1/3 : 1/3 : 1/3}
// x {max size 500, 200,000, 2^32}.
//
// Structure parameters are the paper's tuned values: skip-tree q = 1/32,
// B-link tree M = 128 (Sec. V).  After the six panels the harness prints
// the summary ratios the paper quotes in the text (skip-tree vs skip-list
// average +41%, +129% on the large read-dominated panel, etc.) computed
// from THIS run's numbers, so the shape comparison is self-contained.
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "avltree/opt_tree.hpp"
#include "bench_common.hpp"
#include "blinktree/blink_tree.hpp"
#include "skiplist/skip_list.hpp"
#include "skiptree/health.hpp"
#include "skiptree/skip_tree.hpp"

namespace {

using lfst::bench::bench_config;
using lfst::summary;
using lfst::workload::scenario;

using key = long;

std::unique_ptr<lfst::skiptree::skip_tree<key>> make_skip_tree() {
  lfst::skiptree::skip_tree_options o;
  o.q_log2 = 5;  // q = 1/32, the paper's best value
  return std::make_unique<lfst::skiptree::skip_tree<key>>(o);
}

std::unique_ptr<lfst::skiplist::skip_list<key>> make_skip_list() {
  return std::make_unique<lfst::skiplist::skip_list<key>>();
}

std::unique_ptr<lfst::avltree::opt_tree<key>> make_opt_tree() {
  return std::make_unique<lfst::avltree::opt_tree<key>>();
}

std::unique_ptr<lfst::blinktree::blink_tree<key>> make_blink_tree() {
  lfst::blinktree::blink_tree_options o;
  o.min_node_size = 128;  // the paper's best value
  return std::make_unique<lfst::blinktree::blink_tree<key>>(o);
}

using extras_t = std::vector<std::pair<std::string, double>>;

struct entry {
  const char* name;
  std::function<summary(const scenario&, extras_t&)> run;
};

/// Per-trial observer for the skip-tree entries: a structural-health ticker
/// sampling the live tree through the timed trial, accumulating the series
/// means into the bench-JSON extras so a regression diff can correlate a
/// throughput change with a structural one.
struct health_accumulator {
  double occupancy_sum = 0.0;
  double backlog_sum = 0.0;
  std::size_t samples = 0;

  struct scope {
    std::unique_ptr<lfst::skiptree::health_ticker<key>> ticker;
    health_accumulator* acc;

    scope(std::unique_ptr<lfst::skiptree::health_ticker<key>> t,
          health_accumulator* a)
        : ticker(std::move(t)), acc(a) {}
    scope(scope&&) = default;
    ~scope() {
      if (ticker == nullptr) return;
      ticker->stop();
      for (const auto& s : ticker->samples()) {
        acc->occupancy_sum += s.occupancy_pct();
        acc->backlog_sum += static_cast<double>(s.compaction_backlog());
        ++acc->samples;
      }
    }
  };

  scope observe(lfst::skiptree::skip_tree<key>& tree) {
    auto t = std::make_unique<lfst::skiptree::health_ticker<key>>(
        tree, std::chrono::microseconds(500));
    t->start();
    return scope{std::move(t), this};
  }

  void flush_into(extras_t& extras) const {
    if (samples == 0) return;
    const double n = static_cast<double>(samples);
    extras.emplace_back("health_occupancy_pct", occupancy_sum / n);
    extras.emplace_back("health_backlog", backlog_sum / n);
    extras.emplace_back("health_samples", n);
  }
};

}  // namespace

int main(int argc, char** argv) {
  lfst::bench::bench_json_reporter bench_json("fig9", argc, argv);
  lfst::bench::telemetry_reporter telemetry(argc, argv);
  const bench_config cfg = bench_config::from_env();
  lfst::bench::print_header("Figure 9: throughput vs thread count", cfg);

  const std::vector<entry> structures = {
      {"skip-tree",
       [](const scenario& sc, extras_t& extras) {
         health_accumulator acc;
         const summary s = lfst::workload::run_scenario(
             sc, make_skip_tree,
             [&acc](auto& tree, int) { return acc.observe(tree); });
         acc.flush_into(extras);
         return s;
       }},
      {"skip-list",
       [](const scenario& sc, extras_t&) {
         return lfst::workload::run_scenario(sc, make_skip_list);
       }},
      {"opt-tree",
       [](const scenario& sc, extras_t&) {
         return lfst::workload::run_scenario(sc, make_opt_tree);
       }},
      {"b-link-tree",
       [](const scenario& sc, extras_t&) {
         return lfst::workload::run_scenario(sc, make_blink_tree);
       }},
  };

  const std::vector<lfst::workload::mix> mixes = {
      lfst::workload::kReadDominated, lfst::workload::kWriteDominated};
  const std::vector<std::uint64_t> ranges = {lfst::workload::kRangeSmall,
                                             lfst::workload::kRangeMedium,
                                             lfst::workload::kRangeLarge};

  // mean ops/ms per (structure, panel, threads) for the summary ratios.
  std::map<std::string, std::vector<double>> vs_skiplist_ratio;
  double large_read_skiptree = 0.0;
  double large_read_skiplist = 0.0;

  for (const auto& m : mixes) {
    for (const auto range : ranges) {
      std::printf("-- panel: %s contains/add/remove, max size %s --\n",
                  lfst::bench::mix_name(m),
                  lfst::bench::range_name(range).c_str());
      lfst::workload::table tab(
          {"threads", "skip-tree", "skip-list", "opt-tree", "b-link-tree",
           "(ops/ms, mean +/- stddev)"});
      for (const int threads : cfg.threads) {
        scenario sc;
        sc.operations = m;
        sc.key_range = range;
        sc.total_ops = cfg.ops;
        sc.threads = threads;
        sc.trials = cfg.trials;
        sc.seed = 0x919 + static_cast<std::uint64_t>(threads);

        std::vector<std::string> row{std::to_string(threads)};
        double skiplist_mean = 0.0;
        std::map<std::string, double> means;
        for (const entry& e : structures) {
          extras_t extras;
          const summary s = e.run(sc, extras);
          means[e.name] = s.mean;
          if (std::string(e.name) == "skip-list") skiplist_mean = s.mean;
          row.push_back(lfst::workload::table::fmt(s.mean, 0) + " +/- " +
                        lfst::workload::table::fmt(s.stddev, 0));
          bench_json.record(std::string(e.name) + "/" +
                                lfst::bench::mix_name(m) + "/" +
                                lfst::bench::range_name(range) + "/t" +
                                std::to_string(threads),
                            threads, s, std::move(extras));
        }
        row.emplace_back("");
        tab.add_row(row);
        for (const entry& e : structures) {
          if (std::string(e.name) != "skip-list" && skiplist_mean > 0.0) {
            vs_skiplist_ratio[e.name].push_back(means[e.name] / skiplist_mean);
          }
        }
        if (m.contains_pct >= 60 && range == lfst::workload::kRangeLarge &&
            threads == cfg.threads.back()) {
          large_read_skiptree = means["skip-tree"];
          large_read_skiplist = skiplist_mean;
        }
      }
      tab.print();
      std::printf("\n");
    }
  }

  std::printf("-- summary ratios (paper Sec. V quotes, recomputed from this "
              "run) --\n");
  // Sec. V quotes an all-panel average for these structures only.
  const std::map<std::string, const char*> paper_avg = {
      {"skip-tree", "+41%"}, {"opt-tree", "+26%"}};
  for (const auto& [name, ratios] : vs_skiplist_ratio) {
    double sum = 0.0;
    for (double r : ratios) sum += r;
    const double avg = sum / static_cast<double>(ratios.size());
    std::printf("%-12s vs skip-list, averaged over all panels/threads: %+.0f%%",
                name.c_str(), (avg - 1.0) * 100.0);
    if (const auto q = paper_avg.find(name); q != paper_avg.end()) {
      std::printf(" (paper: %s)", q->second);
    }
    std::printf("\n");
  }
  if (large_read_skiplist > 0.0) {
    std::printf("skip-tree vs skip-list, large read-dominated panel at max "
                "threads: %+.0f%% (paper: +129%%)\n",
                (large_read_skiptree / large_read_skiplist - 1.0) * 100.0);
  }
  return 0;
}
