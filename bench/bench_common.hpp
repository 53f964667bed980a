// Shared plumbing for the figure-reproduction benchmark binaries.
//
// Every harness prints the same row format and honours the same environment
// knobs, so a full run (`for b in build/bench/*; do $b; done`) produces a
// coherent report:
//
//   LFST_BENCH_OPS     total operations per trial      (default 400000)
//   LFST_BENCH_TRIALS  repetitions per configuration   (default 3; paper 64)
//   LFST_BENCH_THREADS comma-separated thread counts   (default "1,2,4,8")
//
// The defaults are sized for a small CI-class machine; raising OPS/TRIALS
// toward the paper's 5M x 64 sharpens the statistics without changing the
// harness.
//
// Two sidecar families ride along with any bench:
//
//   --bench-json[=PATH]  (env LFST_BENCH_JSON)   machine-readable summary of
//       every measured configuration -- the file tools/bench_gate.py diffs
//       against the checked-in BENCH_*.json baselines;
//   --telemetry-json / --telemetry-prom / --trace-json  the telemetry
//       registry's one snapshot as JSON-lines, Prometheus text and
//       Perfetto JSON (see telemetry_reporter below).
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/telemetry_export.hpp"
#include "workload/table.hpp"
#include "workload/workload.hpp"

namespace lfst::bench {

/// A non-negative decimal from the environment, or `fallback` when unset.
/// Anything else (garbage, a sign, trailing text, overflow) is fatal rather
/// than silently read as 0.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(*v)) || *end != '\0' ||
      errno != 0) {
    std::fprintf(stderr, "%s=\"%s\": expected a non-negative integer\n",
                 name, v);
    std::exit(2);
  }
  return static_cast<std::size_t>(n);
}

inline std::vector<int> env_threads(const char* name,
                                    std::vector<int> fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  std::vector<int> out;
  for (const char* p = v; *p != '\0';) {
    out.push_back(std::atoi(p));
    const char* comma = std::strchr(p, ',');
    if (comma == nullptr) break;
    p = comma + 1;
  }
  return out.empty() ? fallback : out;
}

struct bench_config {
  std::size_t ops = 400000;
  int trials = 3;
  std::vector<int> threads{1, 2, 4, 8};

  static bench_config from_env() {
    bench_config c;
    c.ops = env_size("LFST_BENCH_OPS", c.ops);
    c.trials = static_cast<int>(env_size("LFST_BENCH_TRIALS",
                                         static_cast<std::size_t>(c.trials)));
    c.threads = env_threads("LFST_BENCH_THREADS", c.threads);
    return c;
  }
};

inline const char* mix_name(const workload::mix& m) {
  return m.contains_pct >= 60 ? "90c/9a/1r" : "33c/33a/33r";
}

inline std::string range_name(std::uint64_t range) {
  if (range == workload::kRangeSmall) return "500";
  if (range == workload::kRangeMedium) return "200,000";
  if (range == workload::kRangeLarge) return "2^32";
  return std::to_string(range);
}

inline void print_header(const char* what, const bench_config& c) {
  std::printf("== %s ==\n", what);
  std::printf("ops/trial=%zu trials=%d (override with "
              "LFST_BENCH_OPS / LFST_BENCH_TRIALS / LFST_BENCH_THREADS)\n\n",
              c.ops, c.trials);
}

/// Consume `--flag` / `--flag=PATH` from argv, falling back to `env`.
/// Returns the chosen path ("" when the sidecar was not requested;
/// `fallback` when the flag was given valueless).
inline std::string consume_path_flag(int& argc, char** argv, const char* flag,
                                     const char* env, const char* fallback) {
  std::string path;
  if (const char* e = std::getenv(env); e != nullptr && *e != '\0') path = e;
  const std::size_t flen = std::strlen(flag);
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    if (std::strcmp(argv[r], flag) == 0) {
      if (path.empty()) path = fallback;
      continue;
    }
    if (std::strncmp(argv[r], flag, flen) == 0 && argv[r][flen] == '=') {
      path = argv[r] + flen + 1;
      continue;
    }
    argv[w++] = argv[r];
  }
  argc = w;
  return path;
}

/// Machine-readable bench summary sidecar: every measured configuration is
/// record()ed as it completes; destruction writes one JSON document that
/// tools/bench_gate.py diffs against a checked-in baseline.  Entry names
/// must be stable across runs (the gate joins baseline and candidate on
/// them) and unique within a run.
class bench_json_reporter {
 public:
  bench_json_reporter(const char* bench, int& argc, char** argv)
      : bench_(bench),
        path_(consume_path_flag(argc, argv, "--bench-json", "LFST_BENCH_JSON",
                                "bench.json")) {}

  bench_json_reporter(const bench_json_reporter&) = delete;
  bench_json_reporter& operator=(const bench_json_reporter&) = delete;

  bool enabled() const noexcept { return !path_.empty(); }

  /// Record one configuration's throughput summary (ops/ms over trials)
  /// plus any extra named scalars (health occupancy, backlog, ...).
  void record(std::string name, int threads, const summary& s,
              std::vector<std::pair<std::string, double>> extra = {}) {
    entries_.push_back(
        entry{std::move(name), threads, s, std::move(extra)});
  }

  ~bench_json_reporter() {
    if (path_.empty()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench json: cannot write %s\n", path_.c_str());
      return;
    }
    std::fprintf(f, "{\"bench\":\"%s\",\"entries\":[",
                 telemetry::json_escape(bench_).c_str());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const entry& e = entries_[i];
      const summary& s = e.stats;
      std::fprintf(
          f,
          "%s\n {\"name\":\"%s\",\"threads\":%d,\"trials\":%zu,"
          "\"ops_per_ms\":{\"mean\":%.6g,\"stddev\":%.6g,\"min\":%.6g,"
          "\"max\":%.6g,\"p50\":%.6g,\"p90\":%.6g,\"p95\":%.6g,"
          "\"p99\":%.6g}",
          i == 0 ? "" : ",", telemetry::json_escape(e.name).c_str(), e.threads,
          s.count, s.mean, s.stddev, s.min, s.max, s.p50, s.p90, s.p95, s.p99);
      if (!e.extra.empty()) {
        std::fprintf(f, ",\"extra\":{");
        for (std::size_t j = 0; j < e.extra.size(); ++j) {
          std::fprintf(f, "%s\"%s\":%.6g", j == 0 ? "" : ",",
                       telemetry::json_escape(e.extra[j].first).c_str(),
                       e.extra[j].second);
        }
        std::fprintf(f, "}");
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    std::fprintf(stderr, "bench json written to %s\n", path_.c_str());
  }

 private:
  struct entry {
    std::string name;
    int threads;
    summary stats;
    std::vector<std::pair<std::string, double>> extra;
  };

  std::string bench_;
  std::string path_;
  std::vector<entry> entries_;
};

/// The telemetry sidecars.  Every bench main constructs one first; it
/// consumes its flags from argv (so downstream parsers -- google-benchmark
/// in particular -- never see them) and, on destruction, writes one
/// registry snapshot in each requested format:
///
///   --telemetry-json[=PATH] (env LFST_TELEMETRY_JSON)  JSON-lines: schema,
///       time-series samples, one line per event, plus any note()d records
///       (the contention heatmap);
///   --telemetry-prom[=PATH] (env LFST_TELEMETRY_PROM)  Prometheus text;
///   --trace-json[=PATH] (env LFST_TRACE_JSON)  Perfetto JSON of the rings.
///
/// The JSON and Prometheus sidecars also run the background sampler for
/// the life of the bench (interval LFST_TELEMETRY_INTERVAL_MS, default 50).
/// What the snapshot holds depends on the build: the sampled skip-tree
/// spans and storage timings by default, every event with -DLFST_METRICS,
/// nothing with -DLFST_TELEMETRY=OFF -- the files stay valid either way,
/// so the flags are safe to leave in scripts.
class telemetry_reporter {
 public:
  telemetry_reporter(int& argc, char** argv)
      : json_path_(consume_path_flag(argc, argv, "--telemetry-json",
                                     "LFST_TELEMETRY_JSON",
                                     "telemetry.jsonl")),
        prom_path_(consume_path_flag(argc, argv, "--telemetry-prom",
                                     "LFST_TELEMETRY_PROM",
                                     "telemetry.prom")),
        trace_path_(consume_path_flag(argc, argv, "--trace-json",
                                      "LFST_TRACE_JSON", "trace.json")) {
    if (json_path_.empty() && prom_path_.empty()) return;
    const std::size_t ms = env_size("LFST_TELEMETRY_INTERVAL_MS", 50);
    telemetry::registry::instance().start(
        std::chrono::milliseconds(ms == 0 ? 50 : ms));
  }

  telemetry_reporter(const telemetry_reporter&) = delete;
  telemetry_reporter& operator=(const telemetry_reporter&) = delete;

  /// Append one pre-serialized JSON object to the JSON-lines sidecar, e.g.
  /// a heatmap_snapshot::to_json() record.
  void note(std::string json_line) { notes_.push_back(std::move(json_line)); }

  ~telemetry_reporter() {
    if (json_path_.empty() && prom_path_.empty() && trace_path_.empty()) {
      return;
    }
    auto& reg = telemetry::registry::instance();
    reg.stop();
    reg.sample_now();  // a final sample, so short runs export at least one
    const telemetry::snapshot snap = reg.capture();
    std::string json = telemetry::to_json_lines(snap);
    for (const std::string& n : notes_) json += n + "\n";
    write("telemetry json", json_path_, json);
    write("telemetry prometheus", prom_path_, telemetry::to_prometheus(snap));
    write("trace json", trace_path_, telemetry::to_perfetto(snap));
  }

 private:
  static void write(const char* what, const std::string& path,
                    const std::string& body) {
    if (path.empty()) return;
    if (telemetry::write_file(path, body)) {
      std::fprintf(stderr, "%s written to %s\n", what, path.c_str());
    } else {
      std::fprintf(stderr, "%s: cannot write %s\n", what, path.c_str());
    }
  }

  std::string json_path_;
  std::string prom_path_;
  std::string trace_path_;
  std::vector<std::string> notes_;
};

}  // namespace lfst::bench
