// Unit suite for the telemetry plane (common/telemetry.hpp and its
// exporter): the event table, counters, sketches, the per-thread ring,
// spans, gauge sources and the sample ring, and the three export formats.
//
// The registry machinery is compiled in every configuration; only the
// LFST_* site macros vanish without -DLFST_METRICS / -DLFST_TELEMETRY.  So
// this suite drives the registry directly and runs in every build, and
// including every instrumented structure doubles as the check that each
// site compiles in each configuration.  The registry is a process-wide
// singleton whose sample schema is append-only: tests reset() it at their
// head and assert containment rather than exact schema shapes.
#include "common/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "blinktree/blink_tree.hpp"
#include "common/telemetry_export.hpp"
#include "list/harris_list.hpp"
#include "skiplist/skip_list.hpp"
#include "skiptree/skip_tree.hpp"
#include "skiptree/validate.hpp"

namespace lfst::telemetry {
namespace {

registry& reg() { return registry::instance(); }

// Column index of `name` in the current schema, or npos.
std::size_t column_of(const std::string& name) {
  const std::vector<std::string> names = reg().series_names();
  const auto it = std::find(names.begin(), names.end(), name);
  return it == names.end() ? std::string::npos
                           : static_cast<std::size_t>(it - names.begin());
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) out.push_back(line);
  return out;
}

// --- the event table ---------------------------------------------------------

TEST(Names, TablesMatchEnums) {
  EXPECT_EQ(name_of(ev::skiptree_cas_failures), "skiptree.cas_failures");
  EXPECT_EQ(name_of(ev::ebr_advance_stalls), "ebr.advance_stalls");
  EXPECT_EQ(name_of(ev::skiptree_cas_retries_per_op),
            "skiptree.cas_retries_per_op");
  EXPECT_EQ(name_of(ev::skiptree_compact_8d), "skiptree.compact_8d");
  EXPECT_EQ(kind_of(ev::ebr_limbo_bytes), kind::value);
  EXPECT_EQ(kind_of(ev::ebr_advance), kind::mark);
  // Names are unique: every exporter keys on them.
  for (std::size_t i = 0; i < kEventCount; ++i) {
    for (std::size_t j = i + 1; j < kEventCount; ++j) {
      EXPECT_NE(kEvents[i].name, kEvents[j].name);
    }
  }
}

TEST(SpanNames, TableMatchesEnum) {
  EXPECT_EQ(name_of(ev::skiptree_contains), "skiptree.contains");
  EXPECT_EQ(name_of(ev::health_probe), "skiptree.health_probe");
  std::size_t spans = 0;
  for (std::size_t i = 0; i < kEventCount; ++i) {
    const ev e = static_cast<ev>(i);
    EXPECT_FALSE(name_of(e).empty());
    EXPECT_EQ(has_sketch(e), i < kSketchCount);
    if (kind_of(e) == kind::span) ++spans;
  }
  EXPECT_EQ(spans, 21u);
  // Exactly the skip-tree operations sample; only storage timings record
  // every occurrence without LFST_METRICS.
  EXPECT_EQ(info(ev::skiptree_add).gate, gate::sampled);
  EXPECT_EQ(info(ev::wal_fsync).gate, gate::telemetry);
  EXPECT_EQ(info(ev::pool_refill).gate, gate::metrics);
}

// --- counters ----------------------------------------------------------------

TEST(Registry, SingleThreadCountersAreExact) {
  reg().reset();
  for (int i = 0; i < 1000; ++i) reg().count(ev::pool_hits);
  reg().count(ev::pool_spills, 42);
  EXPECT_EQ(reg().counter(ev::pool_hits), 1000u);
  EXPECT_EQ(reg().counter(ev::pool_spills), 42u);
  EXPECT_EQ(reg().counter(ev::pool_fallbacks), 0u);
  reg().reset();
  EXPECT_EQ(reg().counter(ev::pool_hits), 0u);
}

TEST(Registry, MultiThreadAggregationLosesNothing) {
  reg().reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        reg().count(ev::harris_add_retries);
        reg().record(ev::skiptree_traversal_depth,
                     static_cast<std::uint64_t>(i % 16));
      }
    });
  }
  for (auto& w : workers) w.join();
  // Writers have joined, so relaxed sharded aggregation must be exact.
  EXPECT_EQ(reg().counter(ev::harris_add_retries),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(reg().sketch(ev::skiptree_traversal_depth).count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  reg().reset();
}

TEST(Registry, AggregateSnapshotIsIndexedByIds) {
  reg().reset();
  reg().count(ev::blink_splits, 7);
  reg().record(ev::ebr_limbo_depth, 3);
  reg().mark(ev::ebr_stall, 5);
  const snapshot snap = reg().capture();
  ASSERT_EQ(snap.sketches.size(), kSketchCount);
  EXPECT_EQ(snap.total(ev::blink_splits), 7u);
  EXPECT_EQ(snap.total(ev::ebr_limbo_depth), 1u);
  EXPECT_EQ(snap.sketch(ev::ebr_limbo_depth).max, 3u);
  EXPECT_EQ(snap.total(ev::ebr_stall), 1u);
  EXPECT_EQ(snap.total(ev::pool_hits), 0u);
  reg().reset();
}

enum class demo_counter : std::uint16_t { alpha = 0, beta, kCount };

TEST(InstanceCounters, ExactPerInstance) {
  instance_counters<demo_counter> a;
  instance_counters<demo_counter> b;
  a.inc(demo_counter::alpha);
  a.add(demo_counter::beta, 10);
  b.inc(demo_counter::beta);
  EXPECT_EQ(a.get(demo_counter::alpha), 1u);
  EXPECT_EQ(a.get(demo_counter::beta), 10u);
  EXPECT_EQ(b.get(demo_counter::alpha), 0u);
  const auto snap = a.snapshot();
  EXPECT_EQ(snap[0], 1u);
  EXPECT_EQ(snap[1], 10u);
}

// --- values ------------------------------------------------------------------

TEST(HistSnapshot, MeanAndApproxPercentile) {
  // A value keeps an exact count, sum and max; below 16 its quantiles are
  // exact too.
  reg().reset();
  for (int i = 0; i < 50; ++i) reg().record(ev::ebr_limbo_depth, 1);
  for (int i = 0; i < 50; ++i) reg().record(ev::ebr_limbo_depth, 5);
  const qsketch_snapshot s = reg().sketch(ev::ebr_limbo_depth);
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 300u);
  EXPECT_EQ(s.max, 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.50), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 5.0);
  EXPECT_DOUBLE_EQ(qsketch_snapshot{}.mean(), 0.0);
  EXPECT_DOUBLE_EQ(qsketch_snapshot{}.quantile(0.99), 0.0);
  reg().reset();
}

TEST(Telemetry, SketchRecordAndSnapshot) {
  reg().reset();
  for (int i = 1; i <= 100; ++i) {
    reg().record(ev::skiptree_add, static_cast<std::uint64_t>(i));
  }
  const qsketch_snapshot s = reg().sketch(ev::skiptree_add);
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_NEAR(s.quantile(0.5), 50.0, 4.0);
  reg().reset();
  EXPECT_EQ(reg().sketch(ev::skiptree_add).count, 0u);
}

// --- the ring ----------------------------------------------------------------

TEST(TraceRing, WraparoundKeepsNewestOldestFirst) {
  ring r;
  constexpr std::uint64_t kPushes = ring::kCapacity + 100;
  for (std::uint64_t i = 0; i < kPushes; ++i) {
    r.push(ev::skiptree_split, i, i, /*payload=*/i);
  }
  EXPECT_EQ(r.pushed(), kPushes);
  std::vector<ring_record> out;
  r.drain_into(out, /*thread=*/3);
  ASSERT_EQ(out.size(), ring::kCapacity);
  // The 100 oldest records were overwritten; survivors come oldest first.
  EXPECT_EQ(out.front().arg, 100u);
  EXPECT_EQ(out.back().arg, kPushes - 1);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_EQ(out[i].arg, out[i - 1].arg + 1);
  }
  EXPECT_EQ(out.front().thread, 3u);
  r.reset();
  EXPECT_EQ(r.pushed(), 0u);
  out.clear();
  r.drain_into(out, 0);
  EXPECT_TRUE(out.empty());
}

TEST(SpanRing, PushAndDrainRoundTrips) {
  ring r;
  r.push(ev::skiptree_add, 100, 250, ring_record::pack(3, 7));
  r.push(ev::ebr_advance, 300, 300, 42);
  std::vector<ring_record> out;
  r.drain_into(out, 42);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, ev::skiptree_add);
  EXPECT_EQ(out[0].t0, 100u);
  EXPECT_EQ(out[0].t1, 250u);
  EXPECT_EQ(out[0].retries(), 3u);
  EXPECT_EQ(out[0].steps(), 7u);
  EXPECT_EQ(out[0].thread, 42u);
  EXPECT_EQ(out[1].id, ev::ebr_advance);
  EXPECT_EQ(out[1].arg, 42u);
}

TEST(SpanRing, WraparoundKeepsNewestSpans) {
  // Spans and marks share one ring: interleave them through a wraparound.
  ring r;
  const std::uint64_t total = ring::kCapacity + 100;
  for (std::uint64_t i = 0; i < total; ++i) {
    if (i % 2 == 0) {
      r.push(ev::harris_add, i, i + 1, ring_record::pack(1, 0));
    } else {
      r.push(ev::ebr_stall, i, i, i);
    }
  }
  std::vector<ring_record> out;
  r.drain_into(out, 0);
  ASSERT_EQ(out.size(), ring::kCapacity);
  EXPECT_EQ(out.front().t0, total - ring::kCapacity);
  EXPECT_EQ(out.back().t0, total - 1);
  EXPECT_EQ(out.back().id, ev::ebr_stall);
}

TEST(Registry, DrainTraceMergesThreadsInTimeOrder) {
  reg().reset();
  // Hold every worker at a barrier until all four have claimed a ring, so
  // the dump is a genuinely multi-ring merge.
  std::barrier sync(4);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&sync] {
      reg().mark(ev::ebr_advance, 0);  // claim this thread's ring
      sync.arrive_and_wait();
      for (std::uint64_t i = 1; i < 50; ++i) reg().mark(ev::ebr_advance, i);
    });
  }
  for (auto& w : workers) w.join();
  const std::vector<ring_record> dump = reg().drain();
  EXPECT_EQ(dump.size(), 200u);
  EXPECT_EQ(reg().counter(ev::ebr_advance), 200u);
  for (std::size_t i = 1; i < dump.size(); ++i) {
    EXPECT_LE(dump[i - 1].t0, dump[i].t0);
  }
  reg().reset();
}

// --- spans -------------------------------------------------------------------

TEST(ScopedSpan, RecordsIntoRegistryWithRetriesAndSteps) {
  reg().reset();
  {
    scoped_span span(ev::skiptree_remove);
    note_retry();
    note_retry();
    note_step();
  }
  const auto records = reg().drain();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].id, ev::skiptree_remove);
  EXPECT_EQ(records[0].retries(), 2u);
  EXPECT_EQ(records[0].steps(), 1u);
  EXPECT_GE(records[0].t1, records[0].t0);
  // The span's duration feeds its sketch.
  EXPECT_EQ(reg().sketch(ev::skiptree_remove).count, 1u);
  reg().reset();
}

TEST(ScopedSpan, NestedSpansChargeInnermost) {
  reg().reset();
  {
    scoped_span outer(ev::skiptree_add);
    note_retry();  // outer
    {
      scoped_span inner(ev::pool_refill);
      note_retry();  // inner
      note_retry();  // inner
    }
    note_step();  // outer again, after inner restored the TLS slot
  }
  const auto records = reg().drain();
  ASSERT_EQ(records.size(), 2u);
  // drain() orders by t0: outer begins first.
  EXPECT_EQ(records[0].id, ev::skiptree_add);
  EXPECT_EQ(records[0].retries(), 1u);
  EXPECT_EQ(records[0].steps(), 1u);
  EXPECT_EQ(records[1].id, ev::pool_refill);
  EXPECT_EQ(records[1].retries(), 2u);
  EXPECT_EQ(records[1].steps(), 0u);
  EXPECT_LE(records[0].t0, records[1].t0);
  EXPECT_LE(records[1].t1, records[0].t1);
  reg().reset();
}

TEST(ScopedSpan, NotesOutsideAnySpanAreIgnored) {
  reg().reset();
  note_retry();
  note_step();
  EXPECT_TRUE(reg().drain().empty());
}

TEST(TraceRegistry, MultiThreadSpansAllSurface) {
  reg().reset();
  constexpr int kThreads = 4;
  constexpr int kSpansPer = 64;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (int i = 0; i < kSpansPer; ++i) {
        scoped_span span(ev::skiplist_contains);
      }
    });
  }
  for (auto& th : pool) th.join();
  const auto records = reg().drain();
  EXPECT_EQ(records.size(), static_cast<std::size_t>(kThreads) * kSpansPer);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].t0, records[i].t0) << "drain() sorts by t0";
  }
  EXPECT_EQ(reg().sketch(ev::skiplist_contains).count, records.size());
  reg().reset();
}

TEST(TraceRegistry, TickRateIsPositive) {
  // One calibration serves the sampler, the exporters and the watchdog.
  const double tpu = reg().ticks_per_us();
  EXPECT_GT(tpu, 0.0);
  EXPECT_GT(reg().capture().ticks_per_us, 0.0);
}

TEST(Telemetry, TicksPerUsIsCalibratedAndPositive) {
  const double tpu = reg().ticks_per_us();
  EXPECT_GT(tpu, 0.0);
  EXPECT_TRUE(std::isfinite(tpu));
}

TEST(Telemetry, OpTimerRecordsFromFreshThread) {
  // The per-thread countdown starts at 1, so a brand-new thread's first
  // sampled span is always timed.
  reg().reset();
  std::thread([] { sampled_timer t(ev::skiptree_contains); }).join();
  EXPECT_EQ(reg().sketch(ev::skiptree_contains).count, 1u);
  // The unsampled timer records every occurrence.
  for (int i = 0; i < 3; ++i) timer<ev::checkpoint> t(ev::checkpoint);
  EXPECT_EQ(reg().sketch(ev::checkpoint).count, 3u);
  reg().reset();
}

// --- gauge sources and the sample ring ---------------------------------------

TEST(Telemetry, SchemaHasSketchColumnsUpFront) {
  const std::vector<std::string> names = reg().series_names();
  ASSERT_GE(names.size(), kSketchColumns);
  EXPECT_EQ(names[0], "skiptree.contains.p50_us");
  EXPECT_EQ(column_of("skiptree.add.p99_us"),
            static_cast<std::size_t>(ev::skiptree_add) * kSketchStats.size() +
                2);
  EXPECT_NE(column_of("storage.wal.commit.count"), std::string::npos);
  // Values are not times: no _us suffix.
  EXPECT_NE(column_of("storage.wal.batch.p99"), std::string::npos);
  EXPECT_EQ(column_of("storage.wal.batch.p99_us"), std::string::npos);
}

TEST(Telemetry, GaugeSourceFlowsIntoSamplesAndJson) {
  reg().reset();
  {
    scoped_source src("test.flow", {"alpha", "beta"}, [](double* v) {
      v[0] = 1.5;
      v[1] = 42.0;
    });
    reg().sample_now();
    const auto samples = reg().read_samples();
    ASSERT_FALSE(samples.empty());
    const std::size_t ca = column_of("test.flow.alpha");
    const std::size_t cb = column_of("test.flow.beta");
    ASSERT_NE(ca, std::string::npos);
    ASSERT_NE(cb, std::string::npos);
    EXPECT_DOUBLE_EQ(samples.back().values[ca], 1.5);
    EXPECT_DOUBLE_EQ(samples.back().values[cb], 42.0);
    const std::string json = to_json_lines(reg().capture());
    EXPECT_NE(json.find("\"test.flow.alpha\":1.5"), std::string::npos);
    EXPECT_NE(json.find("\"test.flow.beta\":42"), std::string::npos);
  }
  // Source gone: the next sample leaves the columns NaN, and NaN columns
  // are dropped from the JSON (still present in the schema line).
  reg().reset();
  reg().sample_now();
  const auto samples = reg().read_samples();
  ASSERT_FALSE(samples.empty());
  EXPECT_TRUE(std::isnan(samples.back().values[column_of("test.flow.alpha")]));
  EXPECT_EQ(to_json_lines(reg().capture()).find("\"test.flow.alpha\":"),
            std::string::npos);
}

TEST(Telemetry, AggregatorTakesPeriodicSamples) {
  reg().reset();
  reg().start(std::chrono::milliseconds(5));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (reg().samples_taken() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  reg().stop();
  EXPECT_GE(reg().samples_taken(), 3u);
  const auto samples = reg().read_samples();
  ASSERT_GE(samples.size(), 3u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].sample_no, samples[i - 1].sample_no + 1);
    EXPECT_GE(samples[i].wall_ms, samples[i - 1].wall_ms);
  }
  // Idempotent stop, restartable start.
  reg().stop();
  reg().start(std::chrono::milliseconds(5));
  reg().stop();
}

TEST(Telemetry, RingKeepsOnlyLastCapacitySamples) {
  reg().reset();
  const std::size_t n = registry::kSampleCapacity + 40;
  for (std::size_t i = 0; i < n; ++i) reg().sample_now();
  const auto samples = reg().read_samples();
  ASSERT_EQ(samples.size(), registry::kSampleCapacity);
  EXPECT_EQ(samples.front().sample_no, n - registry::kSampleCapacity);
  EXPECT_EQ(samples.back().sample_no, n - 1);
}

TEST(Telemetry, ConcurrentReadersSeeConsistentSlots) {
  reg().reset();
  std::atomic<bool> go{true};
  // A gauge source whose two columns are written as a matched pair; a torn
  // slot read would show them unequal.
  scoped_source src("test.pair", {"x", "y"}, [](double* v) {
    static double tick = 0.0;
    tick += 1.0;
    v[0] = tick;
    v[1] = tick;
  });
  const std::size_t cx = column_of("test.pair.x");
  const std::size_t cy = column_of("test.pair.y");
  reg().sample_now();  // seed: the ring is never empty from here on
  std::thread writer([&] {
    while (go.load(std::memory_order_relaxed)) reg().sample_now();
  });
  // A spinning writer may lap the oldest-first scan and legitimately drop
  // every slot, so the racing phase only asserts that whatever survived
  // the seqlock is pair-consistent.
  std::uint64_t checked = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (reg().samples_taken() < 500 &&
         std::chrono::steady_clock::now() < deadline) {
    for (const auto& s : reg().read_samples()) {
      if (std::isnan(s.values[cx])) continue;
      EXPECT_DOUBLE_EQ(s.values[cx], s.values[cy])
          << "torn seqlock read at sample " << s.sample_no;
      ++checked;
    }
  }
  go.store(false, std::memory_order_relaxed);
  writer.join();
  EXPECT_GE(reg().samples_taken(), 500u);
  // Quiescent read: nothing can lap us now.
  for (const auto& s : reg().read_samples()) {
    ASSERT_FALSE(std::isnan(s.values[cx]));
    EXPECT_DOUBLE_EQ(s.values[cx], s.values[cy]);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(Telemetry, ScopedSourceMoveTransfersOwnership) {
  reg().reset();
  scoped_source a("test.move", {"v"}, [](double* v) { v[0] = 7.0; });
  scoped_source b(std::move(a));
  scoped_source c;
  c = std::move(b);
  reg().sample_now();
  const auto samples = reg().read_samples();
  ASSERT_FALSE(samples.empty());
  EXPECT_DOUBLE_EQ(samples.back().values[column_of("test.move.v")], 7.0);
  // a and b are empty shells now; their destruction must not unregister c.
}

// --- exporters ---------------------------------------------------------------

TEST(Telemetry, JsonLinesStructure) {
  reg().reset();
  reg().record(ev::wal_fsync, 12345);
  reg().count(ev::pool_hits, 3);
  reg().sample_now();
  int schema = 0, sample = 0, span = 0, count = 0;
  for (const std::string& line : lines_of(to_json_lines(reg().capture()))) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"type\":\"schema\"") != std::string::npos) {
      ++schema;
      EXPECT_NE(line.find("\"ticks_per_us\":"), std::string::npos);
      EXPECT_NE(line.find("\"sample_stride\":64"), std::string::npos);
      EXPECT_NE(line.find("\"skiptree.add.p50_us\""), std::string::npos);
    } else if (line.find("\"type\":\"sample\"") != std::string::npos) {
      ++sample;
      EXPECT_NE(line.find("\"seq\":"), std::string::npos);
      EXPECT_NE(line.find("\"values\":{"), std::string::npos);
      EXPECT_NE(line.find("\"storage.wal.fsync.count\":1"), std::string::npos);
    } else if (line.find("\"type\":\"span\"") != std::string::npos) {
      ++span;
      EXPECT_NE(line.find("\"name\":\"storage.wal.fsync\",\"count\":1"),
                std::string::npos);
      EXPECT_NE(line.find("\"p99_us\":"), std::string::npos);
    } else if (line.find("\"type\":\"count\"") != std::string::npos) {
      ++count;
      EXPECT_NE(line.find("\"name\":\"pool.hits\",\"value\":3"),
                std::string::npos);
    }
  }
  EXPECT_EQ(schema, 1);
  EXPECT_GE(sample, 1);
  // Only events with data are exported.
  EXPECT_EQ(span, 1);
  EXPECT_EQ(count, 1);
  reg().reset();
}

TEST(Telemetry, PrometheusExposition) {
  reg().reset();
  reg().record(ev::wal_batch, 8);
  reg().record(ev::skiptree_add, 1000);
  reg().count(ev::pool_hits, 2);
  scoped_source src("test.prom", {"lag"}, [](double* v) { v[0] = 3.0; });
  reg().sample_now();
  const std::string text = to_prometheus(reg().capture());
  EXPECT_NE(text.find("# TYPE lfst_skiptree_add summary"), std::string::npos);
  EXPECT_NE(text.find("lfst_skiptree_add{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("lfst_skiptree_add_count 1"), std::string::npos);
  EXPECT_NE(text.find("lfst_skiptree_add_sum"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lfst_storage_wal_batch summary"),
            std::string::npos);
  EXPECT_NE(text.find("lfst_storage_wal_batch_sum 8"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lfst_pool_hits counter\nlfst_pool_hits 2"),
            std::string::npos);
  // Latest sample of a gauge source; sketch columns stay in the summaries.
  EXPECT_NE(text.find("# TYPE lfst_test_prom_lag gauge\nlfst_test_prom_lag 3"),
            std::string::npos);
  EXPECT_EQ(text.find("lfst_skiptree_add_p99_us"), std::string::npos);
  reg().reset();
}

snapshot sample_records() {
  snapshot s;
  s.ticks_per_us = 1.0;
  s.sketches.resize(kSketchCount);
  s.records = {
      ring_record{ev::skiptree_add, 1000, 1500, ring_record::pack(2, 5), 0},
      ring_record{ev::blink_remove, 1200, 1300, ring_record::pack(0, 1), 1},
      ring_record{ev::ebr_advance, 2000, 2000, 9, 0},
  };
  return s;
}

TEST(ChromeJson, ShapeAndRelativeTimestamps) {
  const std::string json = to_perfetto(sample_records());
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"skiptree.add\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(json.find("\"retries\":2,\"steps\":5"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ebr.advance\",\"ph\":\"i\""),
            std::string::npos);
  EXPECT_NE(json.find("\"payload\":9"), std::string::npos);
  // Timestamps are base-relative: the earliest record (tsc 1000) exports
  // at ts 0 and no absolute tsc value survives into the document.
  EXPECT_NE(json.find("\"ts\":0"), std::string::npos);
  EXPECT_EQ(json.find("\"ts\":2000"), std::string::npos);
}

TEST(ChromeJson, EmptyDumpIsValid) {
  snapshot empty;
  empty.sketches.resize(kSketchCount);
  EXPECT_EQ(to_perfetto(empty),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\"}");
}

TEST(Export, TableListsNonZeroEntries) {
  reg().reset();
  reg().count(ev::pool_hits, 123);
  reg().record(ev::ebr_limbo_depth, 5);
  const std::string table = to_table(reg().capture());
  EXPECT_NE(table.find("pool.hits"), std::string::npos);
  EXPECT_NE(table.find("123"), std::string::npos);
  EXPECT_NE(table.find("ebr.limbo_depth"), std::string::npos);
  // Zero entries are elided.
  EXPECT_EQ(table.find("blink.splits"), std::string::npos);
  reg().reset();
  EXPECT_NE(to_table(reg().capture()).find("(all zero)"), std::string::npos);
}

TEST(Export, JsonLinesAreWellFormedObjects) {
  reg().reset();
  reg().count(ev::skiplist_add_retries, 9);
  reg().record(ev::skiptree_traversal_depth, 6);
  reg().mark(ev::skiptree_split, 42);
  bool saw_count = false, saw_value = false, saw_mark = false;
  for (const std::string& line : lines_of(to_json_lines(reg().capture()))) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"type\""), std::string::npos);
    if (line.find("\"skiplist.add_retries\"") != std::string::npos) {
      saw_count = true;
      EXPECT_NE(line.find("\"value\":9"), std::string::npos);
    }
    if (line.find("\"name\":\"skiptree.traversal_depth\"") !=
        std::string::npos) {
      saw_value = true;
      EXPECT_NE(line.find("\"max\":6"), std::string::npos);
    }
    if (line.find("\"name\":\"skiptree.split\"") != std::string::npos) {
      saw_mark = true;
      EXPECT_NE(line.find("\"type\":\"mark\""), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_count);
  EXPECT_TRUE(saw_value);
  EXPECT_TRUE(saw_mark);
  reg().reset();
}

TEST(Export, WriteJsonFileRoundTrips) {
  reg().reset();
  reg().count(ev::ebr_retires, 5);
  const std::string path = "test_telemetry_sidecar.jsonl";
  ASSERT_TRUE(write_file(path, to_json_lines(reg().capture())));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const std::string contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"ebr.retires\""), std::string::npos);
  in.close();
  std::remove(path.c_str());
  reg().reset();
}

// Minimal RFC 8259 recursive-descent parser, just enough to *strictly*
// validate the exporters' output (substring checks would accept broken
// quoting).  Accepts exactly one JSON value; rejects trailing bytes, bad
// escapes, bare control characters and malformed numbers.
namespace json8259 {

struct cursor {
  const std::string& s;
  std::size_t i = 0;
  bool eof() const { return i >= s.size(); }
  char peek() const { return s[i]; }
  bool eat(char c) {
    if (eof() || s[i] != c) return false;
    ++i;
    return true;
  }
  void ws() {
    while (!eof() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                      s[i] == '\r')) {
      ++i;
    }
  }
};

bool value(cursor& c);  // forward

bool string(cursor& c) {
  if (!c.eat('"')) return false;
  while (!c.eof()) {
    const unsigned char ch = static_cast<unsigned char>(c.s[c.i]);
    if (ch == '"') {
      ++c.i;
      return true;
    }
    if (ch < 0x20) return false;  // raw control char: must be escaped
    if (ch == '\\') {
      ++c.i;
      if (c.eof()) return false;
      const char e = c.s[c.i];
      if (e == '"' || e == '\\' || e == '/' || e == 'b' || e == 'f' ||
          e == 'n' || e == 'r' || e == 't') {
        ++c.i;
      } else if (e == 'u') {
        ++c.i;
        for (int k = 0; k < 4; ++k) {
          if (c.eof() || !std::isxdigit(static_cast<unsigned char>(c.peek())))
            return false;
          ++c.i;
        }
      } else {
        return false;
      }
    } else {
      ++c.i;
    }
  }
  return false;  // unterminated
}

bool number(cursor& c) {
  c.eat('-');
  if (c.eof() || !std::isdigit(static_cast<unsigned char>(c.peek())))
    return false;
  if (c.peek() == '0') {
    ++c.i;
  } else {
    while (!c.eof() && std::isdigit(static_cast<unsigned char>(c.peek())))
      ++c.i;
  }
  if (!c.eof() && c.peek() == '.') {
    ++c.i;
    if (c.eof() || !std::isdigit(static_cast<unsigned char>(c.peek())))
      return false;
    while (!c.eof() && std::isdigit(static_cast<unsigned char>(c.peek())))
      ++c.i;
  }
  if (!c.eof() && (c.peek() == 'e' || c.peek() == 'E')) {
    ++c.i;
    if (!c.eof() && (c.peek() == '+' || c.peek() == '-')) ++c.i;
    if (c.eof() || !std::isdigit(static_cast<unsigned char>(c.peek())))
      return false;
    while (!c.eof() && std::isdigit(static_cast<unsigned char>(c.peek())))
      ++c.i;
  }
  return true;
}

bool object(cursor& c) {
  if (!c.eat('{')) return false;
  c.ws();
  if (c.eat('}')) return true;
  while (true) {
    c.ws();
    if (!string(c)) return false;
    c.ws();
    if (!c.eat(':')) return false;
    c.ws();
    if (!value(c)) return false;
    c.ws();
    if (c.eat('}')) return true;
    if (!c.eat(',')) return false;
  }
}

bool array(cursor& c) {
  if (!c.eat('[')) return false;
  c.ws();
  if (c.eat(']')) return true;
  while (true) {
    c.ws();
    if (!value(c)) return false;
    c.ws();
    if (c.eat(']')) return true;
    if (!c.eat(',')) return false;
  }
}

bool literal(cursor& c, const char* lit) {
  const std::size_t n = std::char_traits<char>::length(lit);
  if (c.s.compare(c.i, n, lit) != 0) return false;
  c.i += n;
  return true;
}

bool value(cursor& c) {
  if (c.eof()) return false;
  switch (c.peek()) {
    case '{':
      return object(c);
    case '[':
      return array(c);
    case '"':
      return string(c);
    case 't':
      return literal(c, "true");
    case 'f':
      return literal(c, "false");
    case 'n':
      return literal(c, "null");
    default:
      return number(c);
  }
}

// True iff `line` is exactly one valid JSON value with nothing after it.
bool parses(const std::string& line) {
  cursor c{line};
  c.ws();
  if (!value(c)) return false;
  c.ws();
  return c.eof();
}

}  // namespace json8259

TEST(Export, ParserSelfCheck) {
  // The validator must be strict enough to matter.
  EXPECT_TRUE(json8259::parses(R"({"a":1,"b":[true,null,"x\n"],"c":-0.5e3})"));
  EXPECT_TRUE(json8259::parses(R"({"u":"\u00e9"})"));
  EXPECT_FALSE(json8259::parses(R"({"a":1)"));          // unterminated object
  EXPECT_FALSE(json8259::parses(R"({"a":01})"));        // leading zero
  EXPECT_FALSE(json8259::parses(R"({"a":1} trailing)"));
  EXPECT_FALSE(json8259::parses("{\"a\":\"\x01\"}"));   // raw control char
  EXPECT_FALSE(json8259::parses(R"({"a":"\q"})"));      // bad escape
  EXPECT_FALSE(json8259::parses(R"({"a" 1})"));         // missing colon
}

// Give every event in the table data: counters and marks, and three
// samples per sketch spread over the exact and log-spaced regions.
void populate_every_event() {
  for (std::size_t i = 0; i < kEventCount; ++i) {
    const ev e = static_cast<ev>(i);
    switch (kind_of(e)) {
      case kind::count: reg().count(e, i + 1); break;
      case kind::mark: reg().mark(e, i); break;
      case kind::value:
      case kind::span:
        for (const std::uint64_t v : {1ull, 100ull, 1ull << 20}) {
          reg().record(e, v);
        }
        break;
    }
  }
  reg().close_span(ev::harris_add, 10, 20, 1, 2);  // one ring span
}

TEST(Export, EveryJsonLineSurvivesAStrictParser) {
  reg().reset();
  populate_every_event();
  reg().sample_now();
  const snapshot snap = reg().capture();
  std::size_t lines = 0;
  for (const std::string& line : lines_of(to_json_lines(snap))) {
    ++lines;
    EXPECT_TRUE(json8259::parses(line))
        << "line " << lines << " is not valid JSON: " << line;
  }
  // One schema line, one per sample, one per event -- nothing elided,
  // nothing merged across newlines.
  EXPECT_EQ(lines, 1 + snap.samples.size() + kEventCount);
  EXPECT_TRUE(json8259::parses(to_perfetto(snap)));
  reg().reset();
}

TEST(Export, ThreeFormatsNameEveryEventAlike) {
  // One snapshot, three exports: every event it holds appears under its
  // table name in the JSON-lines and Perfetto documents, and as the
  // sanitized family lfst_<name> in the Prometheus text.
  reg().reset();
  populate_every_event();
  const snapshot snap = reg().capture();
  const std::string json = to_json_lines(snap);
  const std::string prom = to_prometheus(snap);
  const std::string perfetto = to_perfetto(snap);
  for (std::size_t i = 0; i < kEventCount; ++i) {
    const ev e = static_cast<ev>(i);
    ASSERT_GT(snap.total(e), 0u);
    const std::string quoted = "\"name\":\"" + std::string(name_of(e)) + "\"";
    EXPECT_NE(json.find(quoted), std::string::npos) << name_of(e);
    EXPECT_NE(perfetto.find(quoted), std::string::npos) << name_of(e);
    EXPECT_NE(prom.find("# TYPE " + prom_name(name_of(e)) + " "),
              std::string::npos)
        << name_of(e);
  }
  EXPECT_EQ(prom_name("storage.wal.fsync"), "lfst_storage_wal_fsync");
  reg().reset();
}

// --- sites -------------------------------------------------------------------

TEST(Macros, CompileInEveryConfiguration) {
  // Compiled-out sites discard their arguments; live ones record.
  reg().reset();
  LFST_COUNT(pool_hits);
  LFST_MARK(ebr_advance, 0);
  LFST_TALLY(tally);
  LFST_TALLY_INC(tally);
  LFST_VALUE(skiptree_cas_retries_per_op, tally);
  LFST_VALUE(wal_batch, 1);
  EXPECT_EQ(reg().sketch(ev::wal_batch).count, live(ev::wal_batch) ? 1u : 0u);
  EXPECT_EQ(reg().counter(ev::pool_hits), kMetricsBuild ? 1u : 0u);
  reg().reset();
}

TEST(Macros, CompileInEveryBuild) {
  reg().reset();
  {
    LFST_SPAN(harris_contains);
    LFST_RETRY();
    LFST_STEP();
  }
  {
    LFST_SPAN(checkpoint);
  }
  EXPECT_EQ(reg().sketch(ev::harris_contains).count, kMetricsBuild ? 1u : 0u);
  EXPECT_EQ(reg().sketch(ev::checkpoint).count, live(ev::checkpoint) ? 1u : 0u);
  reg().reset();
}

TEST(Conformance, InstrumentedStructuresRunInThisBuild) {
  // Exercise every instrumented hot path once; the sites must be
  // transparent to the structures' behaviour.
  skiptree::skip_tree<long> tree;
  skiplist::skip_list<long> sl;
  list::harris_list<long> hl;
  blinktree::blink_tree<long> bt;
  for (long k = 0; k < 200; ++k) {
    EXPECT_TRUE(tree.add(k));
    EXPECT_TRUE(sl.add(k));
    EXPECT_TRUE(hl.add(k));
    EXPECT_TRUE(bt.add(k));
  }
  for (long k = 0; k < 200; k += 2) {
    EXPECT_TRUE(tree.remove(k));
    EXPECT_TRUE(sl.remove(k));
    EXPECT_TRUE(hl.remove(k));
    EXPECT_TRUE(bt.remove(k));
  }
  EXPECT_TRUE(tree.contains(1));
  EXPECT_FALSE(tree.contains(0));
  EXPECT_GE(tree.stats().splits, 1u);
  reg().reset();
}

TEST(Validator, MetricsTextListsPerTreeCounters) {
  skiptree::skip_tree<long> tree;
  for (long k = 0; k < 300; ++k) tree.add(k);
  skiptree::skip_tree_inspector<long> inspector(tree);
  const std::string text = inspector.metrics_text();
  EXPECT_NE(text.find("cas_failures="), std::string::npos);
  EXPECT_NE(text.find("splits="), std::string::npos);
  // A healthy tree validates clean, so the report carries no metrics dump.
  const auto rep = inspector.validate();
  EXPECT_TRUE(rep.ok);
  EXPECT_TRUE(rep.metrics_text.empty());
  reg().reset();
}

}  // namespace
}  // namespace lfst::telemetry
