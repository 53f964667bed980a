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
// A metrics sidecar can ride along with any bench: pass --metrics-json
// (or --metrics-json=PATH, or set LFST_METRICS_JSON=PATH) and the process
// writes a JSON-lines dump of the metrics registry on exit.  The counters
// are only populated in -DLFST_METRICS=ON builds; an OFF build writes an
// all-zero dump, making the flag safe to leave in scripts.
//
// Two more sidecars complete the observability pipeline:
//
//   --bench-json[=PATH]  (env LFST_BENCH_JSON)   machine-readable summary of
//       every measured configuration -- the file tools/bench_gate.py diffs
//       against the checked-in BENCH_*.json baselines;
//   --trace-json[=PATH] / --trace-bin[=PATH] (env LFST_TRACE_JSON /
//       LFST_TRACE_BIN)  span-trace dumps, Chrome/Perfetto JSON or the
//       compact binary that tools/trace2perfetto.py converts.  Meaningful in
//       -DLFST_TRACE=ON builds; an OFF build writes an empty trace.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/metrics_export.hpp"
#include "common/stats.hpp"
#include "common/telemetry.hpp"
#include "common/trace.hpp"
#include "common/trace_export.hpp"
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

/// Scope object every bench main constructs first: consumes the
/// `--metrics-json[=PATH]` argument (removing it from argv so downstream
/// parsers -- google-benchmark in particular -- never see it) and, if the
/// flag or the LFST_METRICS_JSON environment variable asked for a sidecar,
/// writes the aggregated registry as JSON lines on destruction.
class metrics_reporter {
 public:
  metrics_reporter(int& argc, char** argv) {
    if (const char* env = std::getenv("LFST_METRICS_JSON");
        env != nullptr && *env != '\0') {
      path_ = env;
    }
    int w = 1;
    for (int r = 1; r < argc; ++r) {
      if (std::strcmp(argv[r], "--metrics-json") == 0) {
        if (path_.empty()) path_ = "metrics.jsonl";
        continue;
      }
      if (std::strncmp(argv[r], "--metrics-json=", 15) == 0) {
        path_ = argv[r] + 15;
        continue;
      }
      argv[w++] = argv[r];
    }
    argc = w;
  }

  metrics_reporter(const metrics_reporter&) = delete;
  metrics_reporter& operator=(const metrics_reporter&) = delete;

  ~metrics_reporter() {
    if (path_.empty()) return;
    const auto& reg = metrics::registry::instance();
    if (metrics::write_json_file(path_, reg.aggregate(), reg.drain_trace())) {
      std::fprintf(stderr, "metrics sidecar written to %s\n", path_.c_str());
    } else {
      std::fprintf(stderr, "metrics sidecar: cannot write %s\n",
                   path_.c_str());
    }
  }

  bool enabled() const noexcept { return !path_.empty(); }

 private:
  std::string path_;
};

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
                 metrics::json_escape(bench_).c_str());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const entry& e = entries_[i];
      const summary& s = e.stats;
      std::fprintf(
          f,
          "%s\n {\"name\":\"%s\",\"threads\":%d,\"trials\":%zu,"
          "\"ops_per_ms\":{\"mean\":%.6g,\"stddev\":%.6g,\"min\":%.6g,"
          "\"max\":%.6g,\"p50\":%.6g,\"p90\":%.6g,\"p95\":%.6g,"
          "\"p99\":%.6g}",
          i == 0 ? "" : ",", metrics::json_escape(e.name).c_str(), e.threads,
          s.count, s.mean, s.stddev, s.min, s.max, s.p50, s.p90, s.p95, s.p99);
      if (!e.extra.empty()) {
        std::fprintf(f, ",\"extra\":{");
        for (std::size_t j = 0; j < e.extra.size(); ++j) {
          std::fprintf(f, "%s\"%s\":%.6g", j == 0 ? "" : ",",
                       metrics::json_escape(e.extra[j].first).c_str(),
                       e.extra[j].second);
        }
        std::fprintf(f, "}");
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n],\"retry_hists\":{");
    // Retry-shape context rides along so a regression diff can distinguish
    // "slower because contending more" from "slower, same contention".
    // Nonzero log2 buckets only; all-zero in metrics-OFF builds.
    const auto snap = metrics::registry::instance().aggregate();
    bool first_h = true;
    for (const auto& h : snap.histograms) {
      if (h.name.find("retries") == std::string_view::npos) continue;
      std::fprintf(f, "%s\"%s\":[", first_h ? "" : ",",
                   metrics::json_escape(h.name).c_str());
      first_h = false;
      bool first_b = true;
      for (std::size_t b = 0; b < h.buckets.size(); ++b) {
        if (h.buckets[b] == 0) continue;
        std::fprintf(f, "%s[%zu,%llu]", first_b ? "" : ",", b,
                     static_cast<unsigned long long>(h.buckets[b]));
        first_b = false;
      }
      std::fprintf(f, "]");
    }
    std::fprintf(f, "}}\n");
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

/// Telemetry sidecar: --telemetry-json[=PATH] (env LFST_TELEMETRY_JSON)
/// starts the plane's background aggregator (interval from
/// LFST_TELEMETRY_INTERVAL_MS, default 50) for the life of the bench and
/// writes the JSON-lines export -- schema, ring samples, sketch summaries
/// -- on destruction.  --telemetry-prom[=PATH] (env LFST_TELEMETRY_PROM)
/// additionally writes the Prometheus text exposition of the final state.
/// Benches can note() extra pre-serialized JSON-lines records (the
/// contention heatmap) to append to the JSON sidecar.  Hot-path hooks only
/// populate the sketches in -DLFST_TELEMETRY=ON builds (the default);
/// compiled-out builds still write a valid, mostly-empty file.
class telemetry_reporter {
 public:
  telemetry_reporter(int& argc, char** argv)
      : json_path_(consume_path_flag(argc, argv, "--telemetry-json",
                                     "LFST_TELEMETRY_JSON",
                                     "telemetry.jsonl")),
        prom_path_(consume_path_flag(argc, argv, "--telemetry-prom",
                                     "LFST_TELEMETRY_PROM",
                                     "telemetry.prom")) {
    if (!enabled()) return;
    const std::size_t ms = env_size("LFST_TELEMETRY_INTERVAL_MS", 50);
    telemetry::plane::instance().start(
        std::chrono::milliseconds(ms == 0 ? 50 : ms));
  }

  telemetry_reporter(const telemetry_reporter&) = delete;
  telemetry_reporter& operator=(const telemetry_reporter&) = delete;

  bool enabled() const noexcept {
    return !json_path_.empty() || !prom_path_.empty();
  }

  /// Append one pre-serialized JSON object (no trailing newline needed) to
  /// the JSON-lines sidecar, e.g. a heatmap_snapshot::to_json() record.
  void note(std::string json_line) {
    notes_.push_back(std::move(json_line));
  }

  ~telemetry_reporter() {
    if (!enabled()) return;
    auto& p = telemetry::plane::instance();
    p.stop();
    p.snapshot_now();  // final sample so short runs export at least one
    if (!json_path_.empty()) {
      if (p.write_json_file(json_path_)) {
        if (std::FILE* f = std::fopen(json_path_.c_str(), "a");
            f != nullptr) {
          for (const std::string& n : notes_) {
            std::fprintf(f, "%s\n", n.c_str());
          }
          std::fclose(f);
        }
        std::fprintf(stderr, "telemetry sidecar written to %s\n",
                     json_path_.c_str());
      } else {
        std::fprintf(stderr, "telemetry sidecar: cannot write %s\n",
                     json_path_.c_str());
      }
    }
    if (!prom_path_.empty()) {
      if (std::FILE* f = std::fopen(prom_path_.c_str(), "w"); f != nullptr) {
        const std::string text = p.to_prometheus();
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
        std::fprintf(stderr, "telemetry exposition written to %s\n",
                     prom_path_.c_str());
      } else {
        std::fprintf(stderr, "telemetry exposition: cannot write %s\n",
                     prom_path_.c_str());
      }
    }
  }

 private:
  std::string json_path_;
  std::string prom_path_;
  std::vector<std::string> notes_;
};

/// Span-trace sidecar: on destruction, drains the trace registry and writes
/// the Chrome/Perfetto JSON (--trace-json) and/or the compact binary
/// (--trace-bin).  Rings fill only in -DLFST_TRACE=ON builds; elsewhere the
/// files are valid but empty, so the flags are safe to leave in scripts.
class trace_reporter {
 public:
  trace_reporter(int& argc, char** argv)
      : json_path_(consume_path_flag(argc, argv, "--trace-json",
                                     "LFST_TRACE_JSON", "trace.json")),
        bin_path_(consume_path_flag(argc, argv, "--trace-bin",
                                    "LFST_TRACE_BIN", "trace.bin")) {}

  trace_reporter(const trace_reporter&) = delete;
  trace_reporter& operator=(const trace_reporter&) = delete;

  ~trace_reporter() {
    if (json_path_.empty() && bin_path_.empty()) return;
    const auto& reg = trace::trace_registry::instance();
    const auto spans = reg.drain();
    const double tpu = reg.ticks_per_us();
    if (!json_path_.empty()) {
      if (trace::write_chrome_json_file(json_path_, spans, tpu)) {
        std::fprintf(stderr, "trace json (%zu spans) written to %s\n",
                     spans.size(), json_path_.c_str());
      } else {
        std::fprintf(stderr, "trace json: cannot write %s\n",
                     json_path_.c_str());
      }
    }
    if (!bin_path_.empty()) {
      if (trace::write_binary_file(bin_path_, spans, tpu)) {
        std::fprintf(stderr, "trace bin (%zu spans) written to %s\n",
                     spans.size(), bin_path_.c_str());
      } else {
        std::fprintf(stderr, "trace bin: cannot write %s\n",
                     bin_path_.c_str());
      }
    }
  }

 private:
  std::string json_path_;
  std::string bin_path_;
};

}  // namespace lfst::bench
