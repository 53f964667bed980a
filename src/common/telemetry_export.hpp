// The one exporter: a telemetry snapshot as JSON-lines, Prometheus text,
// Perfetto JSON or a human table, every event under its table name.
//
// Each writer emits the events the snapshot holds data for (a non-zero
// counter or a non-empty sketch) and nothing else, so a name present in one
// export is present in all of them:
//
//   JSON-lines  one object per line, for bench sidecars: a schema line, one
//               line per sample of the gauge/sketch time series, then one
//               line per event --
//                 {"type":"count","name":"pool.hits","value":42}
//                 {"type":"mark","name":"skiptree.split","value":7}
//                 {"type":"value","name":"ebr.limbo_bytes","count":9,
//                  "sum":...,"max":...,"mean":...,"p50":...,...,"p999":...}
//                 {"type":"span","name":"skiptree.add","count":9,
//                  "sum_us":...,"max_us":...,...}   (durations in us)
//   Prometheus  family lfst_<name> with [^A-Za-z0-9] mapped to '_': counts
//               and marks as counters, values and spans as summaries, plus
//               the latest sample of every gauge source;
//   Perfetto    {"traceEvents":[...]} loadable in ui.perfetto.dev: spans as
//               complete events ("X", retries and steps in args), marks as
//               instants ("i"), and each event's total as a counter ("C")
//               at the end of the trace.  Timestamps are microseconds from
//               the earliest ring record.
//
// Snapshots are exact after the recording threads join and approximate
// while they run; so is every export.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/telemetry.hpp"

namespace lfst::telemetry {

/// Escape `s` for a JSON string literal (RFC 8259): quote, backslash and
/// control characters.  Event names are constants, but bench entry names
/// and heatmap labels pass through here too.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Prometheus family name of an event or series: lfst_ + name with every
/// character outside [A-Za-z0-9] mapped to '_'.
inline std::string prom_name(std::string_view name) {
  std::string out = "lfst_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

constexpr std::string_view kind_name(kind k) noexcept {
  constexpr std::string_view names[] = {"count", "value", "mark", "span"};
  return names[static_cast<std::size_t>(k)];
}

namespace detail {

/// Events the snapshot holds data for, in table order.
inline std::vector<ev> present(const snapshot& s) {
  std::vector<ev> out;
  for (std::size_t i = 0; i < kEventCount; ++i) {
    if (s.total(static_cast<ev>(i)) != 0) out.push_back(static_cast<ev>(i));
  }
  return out;
}

/// Span durations are ticks, exported in microseconds; values as recorded.
inline double sketch_divisor(const snapshot& s, ev e) {
  return kind_of(e) == kind::span && s.ticks_per_us > 0.0 ? s.ticks_per_us
                                                           : 1.0;
}

/// Exported quantiles: JSON field, Prometheus label.
struct quantile {
  double q;
  const char* field;
  const char* label;
};
inline constexpr quantile kQuantiles[] = {{0.50, "p50", "0.5"},
                                          {0.90, "p90", "0.9"},
                                          {0.99, "p99", "0.99"},
                                          {0.999, "p999", "0.999"}};

}  // namespace detail

/// JSON-lines: schema, samples, then one line per event with data.
inline std::string to_json_lines(const snapshot& s) {
  std::ostringstream os;
  os << "{\"type\":\"schema\",\"ticks_per_us\":" << s.ticks_per_us
     << ",\"sample_stride\":" << kSampleStride << ",\"series\":[";
  for (std::size_t i = 0; i < s.series.size(); ++i) {
    os << (i ? "," : "") << "\"" << json_escape(s.series[i]) << "\"";
  }
  os << "]}\n";

  for (const sample_view& v : s.samples) {
    os << "{\"type\":\"sample\",\"seq\":" << v.sample_no
       << ",\"t_ms\":" << v.wall_ms << ",\"values\":{";
    bool first = true;
    for (std::size_t c = 0; c < s.series.size() && c < v.values.size(); ++c) {
      if (std::isnan(v.values[c])) continue;
      os << (first ? "" : ",") << "\"" << json_escape(s.series[c])
         << "\":" << v.values[c];
      first = false;
    }
    os << "}}\n";
  }

  for (const ev e : detail::present(s)) {
    os << "{\"type\":\"" << kind_name(kind_of(e)) << "\",\"name\":\""
       << json_escape(name_of(e)) << "\"";
    if (!has_sketch(e)) {
      os << ",\"value\":" << s.total(e) << "}\n";
      continue;
    }
    const qsketch_snapshot& q = s.sketch(e);
    const double div = detail::sketch_divisor(s, e);
    const char* sfx = kind_of(e) == kind::span ? "_us" : "";
    os << ",\"count\":" << q.count << ",\"sum" << sfx
       << "\":" << static_cast<double>(q.sum) / div << ",\"max" << sfx
       << "\":" << static_cast<double>(q.max) / div << ",\"mean" << sfx
       << "\":" << q.mean() / div;
    for (const detail::quantile& qt : detail::kQuantiles) {
      os << ",\"" << qt.field << sfx << "\":" << q.quantile(qt.q) / div;
    }
    os << "}\n";
  }
  return os.str();
}

/// Prometheus text exposition: every event with data, then the latest
/// sample of each gauge-source series.
inline std::string to_prometheus(const snapshot& s) {
  std::ostringstream os;
  for (const ev e : detail::present(s)) {
    const std::string fam = prom_name(name_of(e));
    if (!has_sketch(e)) {
      os << "# TYPE " << fam << " counter\n" << fam << " " << s.total(e)
         << "\n";
      continue;
    }
    const qsketch_snapshot& q = s.sketch(e);
    const double div = detail::sketch_divisor(s, e);
    os << "# TYPE " << fam << " summary\n";
    if (kind_of(e) == kind::span) {
      os << "# HELP " << fam << " duration in microseconds\n";
    }
    for (const detail::quantile& qt : detail::kQuantiles) {
      os << fam << "{quantile=\"" << qt.label << "\"} "
         << q.quantile(qt.q) / div << "\n";
    }
    os << fam << "_sum " << static_cast<double>(q.sum) / div << "\n"
       << fam << "_count " << q.count << "\n";
  }
  if (!s.samples.empty()) {
    const sample_view& last = s.samples.back();
    for (std::size_t c = 0; c < s.series.size() && c < last.values.size();
         ++c) {
      if (c < kSketchColumns || std::isnan(last.values[c])) continue;
      const std::string fam = prom_name(s.series[c]);
      os << "# TYPE " << fam << " gauge\n" << fam << " " << last.values[c]
         << "\n";
    }
  }
  return os.str();
}

/// Perfetto / Chrome trace_event JSON of the ring records and totals.
/// Durations are clamped non-negative (cross-core tsc skew can invert a
/// short span).
inline std::string to_perfetto(const snapshot& s) {
  const double tpu = s.ticks_per_us > 0.0 ? s.ticks_per_us : 1.0;
  std::uint64_t base = s.records.empty() ? 0 : s.records.front().t0;
  std::uint64_t end = base;
  for (const ring_record& r : s.records) {
    base = std::min(base, r.t0);
    end = std::max(end, r.t1);
  }
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  auto open = [&](ev e, const char* ph, std::uint64_t tid, double ts) {
    os << (first ? "" : ",") << "{\"name\":\"" << json_escape(name_of(e))
       << "\",\"ph\":\"" << ph << "\",\"pid\":0,\"tid\":" << tid
       << ",\"ts\":" << ts;
    first = false;
  };
  for (const ring_record& r : s.records) {
    if (static_cast<std::size_t>(r.id) >= kEventCount) continue;  // torn
    const double ts = static_cast<double>(r.t0 - base) / tpu;
    if (kind_of(r.id) == kind::span) {
      const double dur =
          r.t1 >= r.t0 ? static_cast<double>(r.t1 - r.t0) / tpu : 0.0;
      open(r.id, "X", r.thread, ts);
      os << ",\"dur\":" << dur << ",\"args\":{\"retries\":" << r.retries()
         << ",\"steps\":" << r.steps() << "}}";
    } else {
      open(r.id, "i", r.thread, ts);
      os << ",\"s\":\"t\",\"args\":{\"payload\":" << r.arg << "}}";
    }
  }
  const double end_ts = static_cast<double>(end - base) / tpu;
  for (const ev e : detail::present(s)) {
    open(e, "C", 0, end_ts);
    os << ",\"args\":{\"count\":" << s.total(e);
    if (kind_of(e) == kind::value) os << ",\"max\":" << s.sketch(e).max;
    os << "}}";
  }
  os << "],\"displayTimeUnit\":\"ns\"}";
  return os.str();
}

/// Human-readable table of the events with data (validator failure reports
/// and chaos-test dumps).
inline std::string to_table(const snapshot& s) {
  std::ostringstream os;
  const std::vector<ev> events = detail::present(s);
  for (const ev e : events) {
    os << "  " << std::left << std::setw(32) << name_of(e) << " "
       << std::setw(5) << kind_name(kind_of(e)) << " " << s.total(e);
    if (has_sketch(e)) {
      const qsketch_snapshot& q = s.sketch(e);
      const double div = detail::sketch_divisor(s, e);
      os << std::fixed << std::setprecision(1)
         << " p50=" << q.quantile(0.50) / div
         << " p99=" << q.quantile(0.99) / div
         << " max=" << static_cast<double>(q.max) / div
         << (kind_of(e) == kind::span ? " us" : "")
         << std::defaultfloat;
    }
    os << "\n";
  }
  if (events.empty()) os << "  (all zero)\n";
  return os.str();
}

/// Write `body` to `path`; false on I/O failure.  Plain stdio keeps this
/// usable from exit-time reporters.
inline bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace lfst::telemetry
