// Measurement plumbing shared by the benchmark binary: clocks, percentiles,
// CPU pinning, resident-set size, the environment stamp and the span
// recorder of the traced mode.  Nothing here knows about trees.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank percentile, p in [0, 100]: the smallest sample with at
/// least p% of the samples at or below it.  Reorders `v`; 0 when empty.
template <typename U>
double percentile(std::vector<U>& v, double p) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return static_cast<double>(v[idx]);
}

template <typename U>
double median(std::vector<U> v) {
  return percentile(v, 50.0);
}

// --- CPUs ---------------------------------------------------------------------

/// CPUs in this process's affinity mask, ascending.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

/// Pin the calling thread to one CPU; false if the kernel refused.
inline bool pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

/// One long-lived thread per client, each pinned to its own CPU, to which
/// the benchmark hands every phase (preload, window, probe).  Long-lived
/// threads keep their thread-local pool caches, EBR records and malloc
/// arenas across phases, as an application's threads would, so thread
/// churn adds neither time nor memory to what is measured.
class crew {
 public:
  crew(unsigned n, const std::vector<int>& cpus) : errors_(n) {
    if (cpus.size() < n) throw std::runtime_error("crew: not enough CPUs");
    for (unsigned t = 0; t < n; ++t) {
      threads_.emplace_back([this, t, cpu = cpus[t]] { worker(t, cpu); });
    }
  }

  crew(const crew&) = delete;
  crew& operator=(const crew&) = delete;

  ~crew() {
    {
      std::lock_guard<std::mutex> g(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& th : threads_) th.join();
  }

  unsigned size() const noexcept { return static_cast<unsigned>(threads_.size()); }

  /// Start fn(t) on every worker t; `fn` must outlive the matching wait().
  void start(const std::function<void(unsigned)>& fn) {
    {
      std::lock_guard<std::mutex> g(mu_);
      job_ = &fn;
      running_ = size();
      ++generation_;
    }
    wake_.notify_all();
  }

  /// Wait for the started job on every worker; rethrows a worker's failure.
  void wait() {
    std::unique_lock<std::mutex> lk(mu_);
    done_.wait(lk, [&] { return running_ == 0; });
    job_ = nullptr;
    for (auto& e : errors_) {
      if (e) std::rethrow_exception(std::exchange(e, nullptr));
    }
  }

  void run(const std::function<void(unsigned)>& fn) {
    start(fn);
    wait();
  }

 private:
  void worker(unsigned t, int cpu) {
    const bool pinned = pin_to_cpu(cpu);
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(unsigned)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu_);
        wake_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      try {
        if (!pinned) {
          throw std::runtime_error("cannot pin client to cpu " + std::to_string(cpu));
        }
        (*job)(t);
      } catch (...) {
        errors_[t] = std::current_exception();
      }
      std::lock_guard<std::mutex> g(mu_);
      if (--running_ == 0) done_.notify_all();
    }
  }

  std::mutex mu_;  // guards everything below except threads_
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(unsigned)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  unsigned running_ = 0;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> threads_;
};

/// Resident set size of this process in bytes (0 if /proc is unavailable).
inline std::uint64_t rss_bytes() {
  std::ifstream f("/proc/self/statm");
  std::uint64_t pages_total = 0;
  std::uint64_t pages_resident = 0;
  if (!(f >> pages_total >> pages_resident)) return 0;
  return pages_resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

// --- environment stamp ----------------------------------------------------------

inline std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (std::size_t i = 0; i < cpus.size();) {
    std::size_t j = i;
    while (j + 1 < cpus.size() && cpus[j + 1] == cpus[j] + 1) ++j;
    if (!out.empty()) out += ',';
    out += std::to_string(cpus[i]);
    if (j > i) out += '-' + std::to_string(cpus[j]);
    i = j + 1;
  }
  return out;
}

inline std::string first_line_of(const char* path) {
  std::ifstream f(path);
  std::string line;
  if (!std::getline(f, line)) return "absent";
  return line;
}

/// The preprocessor switches the library reads, as built into this binary.
/// A result is comparable only with results stamped with the same string.
inline std::string feature_macros() {
  std::string m;
  const auto add = [&](const char* name, bool on) {
    if (!m.empty()) m += ',';
    m += name;
    m += on ? "=on" : "=off";
  };
#if defined(LFST_SIMD)
  add("LFST_SIMD", true);
#else
  add("LFST_SIMD", false);
#endif
#if defined(LFST_TELEMETRY)
  add("LFST_TELEMETRY", true);
#else
  add("LFST_TELEMETRY", false);
#endif
#if defined(LFST_METRICS)
  add("LFST_METRICS", true);
#else
  add("LFST_METRICS", false);
#endif
#if defined(LFST_TRACE)
  add("LFST_TRACE", true);
#else
  add("LFST_TRACE", false);
#endif
#if defined(LFST_FAILPOINTS)
  add("LFST_FAILPOINTS", true);
#else
  add("LFST_FAILPOINTS", false);
#endif
#if defined(NDEBUG)
  add("NDEBUG", true);
#else
  add("NDEBUG", false);
#endif
  return m;
}

/// Ordered key/value description of the host, build and run.
inline std::vector<std::pair<std::string, std::string>> environment_stamp(
    const std::string& kernel_impl, const std::string& revision,
    std::uint64_t seed) {
  std::vector<std::pair<std::string, std::string>> s;
  char host[256] = {0};
  if (gethostname(host, sizeof(host) - 1) != 0) host[0] = '\0';
  utsname u{};
  const bool have_uname = uname(&u) == 0;
  s.emplace_back("host", host);
  s.emplace_back("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  s.emplace_back("affinity", cpu_list(allowed_cpus()));
  s.emplace_back("cgroup_cpu_max", first_line_of("/sys/fs/cgroup/cpu.max"));
  s.emplace_back("kernel", have_uname ? u.release : "unknown");
  s.emplace_back("compiler", __VERSION__);
#if defined(PERFBENCH_CXX_FLAGS)
  s.emplace_back("flags", PERFBENCH_CXX_FLAGS);
#else
  s.emplace_back("flags", "unknown");
#endif
  s.emplace_back("macros", feature_macros());
  s.emplace_back("search_kernel", kernel_impl);
  s.emplace_back("revision", revision);
  s.emplace_back("seed", std::to_string(seed));
  return s;
}

// --- spans ------------------------------------------------------------------------
//
// The traced mode records spans around the public calls the benchmark makes.
// Each thread appends to its own log, so recording takes no lock; the logs
// are read only after the threads that own them have joined.

enum class span_kind : std::uint8_t {
  setup,       // one set-up repetition (construction .. ready)
  preload,     // one client's share of the random-order preload
  open,        // durable_tree construction = recovery + bulk load
  fixture,     // building the durable fixture directory (untimed set-up)
  window,      // one client's share of one traced window
  contains,
  add,
  remove,
  scan,        // for_range
  flush,       // durable_tree::flush()
  checkpoint,  // durable_tree::checkpoint()
  validate,    // structural validation + oracle comparison
  reopen,      // close + recovery of the durable directory
};

inline const char* span_name(span_kind k) {
  static const char* const names[] = {
      "setup",  "preload", "open",   "fixture", "window",
      "op.contains", "op.add", "op.remove", "op.scan", "durable.flush",
      "durable.checkpoint", "validate", "durable.reopen"};
  return names[static_cast<std::size_t>(k)];
}

struct span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t op_index = 0;  // request id, with the owning thread's slot
  std::uint64_t parent = 0;    // span_id of the parent, 0 for a root
  span_kind kind = span_kind::setup;
};

/// Span id = (thread slot + 1) << 32 | index in that slot's log, so 0 is
/// never a valid id and a parent may live in another thread's log.
class span_recorder {
 public:
  explicit span_recorder(bool enabled, std::size_t slots)
      : enabled_(enabled), logs_(slots) {}

  std::uint64_t record(std::size_t slot, span_kind kind, std::uint64_t start,
                       std::uint64_t end, std::uint64_t op_index = 0,
                       std::uint64_t parent = 0) {
    if (!enabled_) return 0;
    auto& log = logs_[slot];
    log.push_back(span{start, end, op_index, parent, kind});
    return (static_cast<std::uint64_t>(slot) + 1) << 32 | (log.size() - 1);
  }

  /// Open a span now whose end is patched by close(); for spans that
  /// parent others.
  std::uint64_t open(std::size_t slot, span_kind kind,
                     std::uint64_t parent = 0) {
    return record(slot, kind, now_ns(), 0, 0, parent);
  }

  void close(std::uint64_t id) {
    if (id == 0) return;
    at(id).end_ns = now_ns();
  }

  struct summary {
    std::uint64_t count = 0;
    double self_ms = 0.0;
    double p50_ns = 0.0;
    double p99_ns = 0.0;
  };

  /// Per-kind count, total self time (duration minus the time covered by
  /// child spans) and duration percentiles.
  std::map<span_kind, summary> summarize() const {
    std::map<std::uint64_t, std::uint64_t> child_ns;
    for (std::size_t s = 0; s < logs_.size(); ++s) {
      for (const span& sp : logs_[s]) {
        if (sp.parent != 0) child_ns[sp.parent] += sp.end_ns - sp.start_ns;
      }
    }
    std::map<span_kind, std::vector<std::uint64_t>> durations;
    std::map<span_kind, summary> out;
    for (std::size_t s = 0; s < logs_.size(); ++s) {
      for (std::size_t i = 0; i < logs_[s].size(); ++i) {
        const span& sp = logs_[s][i];
        const std::uint64_t dur = sp.end_ns - sp.start_ns;
        const std::uint64_t id = (static_cast<std::uint64_t>(s) + 1) << 32 | i;
        const auto c = child_ns.find(id);
        const std::uint64_t kids = c == child_ns.end() ? 0 : c->second;
        summary& sum = out[sp.kind];
        ++sum.count;
        sum.self_ms += static_cast<double>(dur > kids ? dur - kids : 0) / 1e6;
        durations[sp.kind].push_back(dur);
      }
    }
    for (auto& [kind, d] : durations) {
      out[kind].p50_ns = percentile(d, 50.0);
      out[kind].p99_ns = percentile(d, 99.0);
    }
    return out;
  }

  /// Durations of every span of one kind, in ns.
  std::vector<std::uint64_t> durations(span_kind kind) const {
    std::vector<std::uint64_t> out;
    for (const auto& log : logs_) {
      for (const span& sp : log) {
        if (sp.kind == kind) out.push_back(sp.end_ns - sp.start_ns);
      }
    }
    return out;
  }

  /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  bool write_chrome_json(const std::string& path) const {
    std::ofstream f(path, std::ios::trunc);
    if (!f) return false;
    std::uint64_t t0 = ~std::uint64_t{0};
    for (const auto& log : logs_) {
      for (const span& sp : log) t0 = std::min(t0, sp.start_ns);
    }
    f << "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t s = 0; s < logs_.size(); ++s) {
      for (std::size_t i = 0; i < logs_[s].size(); ++i) {
        const span& sp = logs_[s][i];
        const std::uint64_t id = (static_cast<std::uint64_t>(s) + 1) << 32 | i;
        f << (first ? "" : ",") << "\n{\"name\":\"" << span_name(sp.kind)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s
          << ",\"ts\":" << static_cast<double>(sp.start_ns - t0) / 1e3
          << ",\"dur\":" << static_cast<double>(sp.end_ns - sp.start_ns) / 1e3
          << ",\"args\":{\"id\":" << id << ",\"parent\":" << sp.parent
          << ",\"request\":\"" << s << '.' << sp.op_index << "\"}}";
        first = false;
      }
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
  }

 private:
  span& at(std::uint64_t id) {
    return logs_[(id >> 32) - 1][id & 0xffffffffu];
  }

  bool enabled_;
  std::vector<std::vector<span>> logs_;
};

}  // namespace perfbench
