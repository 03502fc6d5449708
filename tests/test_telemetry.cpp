// The telemetry subsystem's contracts (DESIGN.md §12): log-scale
// histogram buckets quantize within 25%, concurrent per-slot recording
// merges deterministically, exported Chrome traces parse back
// losslessly, and — the load-bearing one — switching metrics + tracing
// on changes nothing about any engine client's execution (same identity
// matrix as test_sharding, via engine_cases.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "engine_cases.hpp"
#include "graph/generators.hpp"
#include "runtime/engine.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_reader.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

namespace tel = telemetry;

TEST(HistogramBuckets, LayoutTilesTheFullRange) {
  // Values 0..3 get exact buckets.
  for (std::uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(tel::bucket_of(v), v);
    EXPECT_EQ(tel::bucket_lo(static_cast<unsigned>(v)), v);
  }
  // Buckets tile: each bucket's exclusive hi is the next bucket's lo.
  for (unsigned b = 0; b + 1 < tel::kHistBuckets; ++b) {
    EXPECT_EQ(tel::bucket_hi(b), tel::bucket_lo(b + 1)) << "bucket " << b;
    EXPECT_LT(tel::bucket_lo(b), tel::bucket_hi(b)) << "bucket " << b;
  }
  // Every value lands in the bucket whose [lo, hi) contains it, and
  // sub-octave splitting bounds the bucket width to 25% of its lo.
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{3}, std::uint64_t{4},
        std::uint64_t{5}, std::uint64_t{7}, std::uint64_t{8},
        std::uint64_t{1000}, std::uint64_t{123456789},
        (std::uint64_t{1} << 40) + 17, ~std::uint64_t{0}}) {
    const unsigned b = tel::bucket_of(v);
    ASSERT_LT(b, tel::kHistBuckets) << v;
    EXPECT_GE(v, tel::bucket_lo(b)) << v;
    if (b + 1 < tel::kHistBuckets) {
      EXPECT_LT(v, tel::bucket_hi(b)) << v;
      if (v >= 4) {
        EXPECT_LE(tel::bucket_hi(b) - tel::bucket_lo(b),
                  tel::bucket_lo(b) / 4)
            << v;
      }
    }
  }
}

TEST(Histogram, PercentilesWithinQuantizationError) {
  tel::Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const tel::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.sum, 500500u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.mean(), 500.5);
  for (const double p : {10.0, 50.0, 90.0, 99.0}) {
    const double exact = p * 10.0;  // uniform 1..1000
    const double got = s.percentile(p);
    EXPECT_GE(got, 0.75 * exact) << "p" << p;
    EXPECT_LE(got, 1.25 * exact + 1.0) << "p" << p;
  }
  // p100 clamps to the observed max, not the bucket's upper bound.
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 1000.0);
}

TEST(Histogram, SingleValueIsExactUnderClamp) {
  tel::Histogram h;
  for (int i = 0; i < 100; ++i) h.record(7);
  const tel::HistogramSnapshot s = h.snapshot();
  // Interpolation inside bucket [7, 7.75) would overshoot; the clamp to
  // max pins every percentile to the one recorded value.
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(99.0), 7.0);
}

TEST(Histogram, ConcurrentRecordingMergesDeterministically) {
  // Per-slot atomics: the merged snapshot must equal the sequential
  // recording of the same multiset regardless of which thread/slot
  // recorded which value.
  tel::Histogram sequential;
  for (std::uint64_t v = 0; v < 4096; ++v) sequential.record(v * 37 % 5000);

  tel::Histogram concurrent;
  ThreadPool pool(4);
  pool.parallel_for_workers(
      0, 4096, 64, [&](unsigned worker, std::size_t b, std::size_t e) {
        for (std::size_t v = b; v < e; ++v) {
          concurrent.record(v * 37 % 5000, worker);
        }
      });

  const tel::HistogramSnapshot a = sequential.snapshot();
  const tel::HistogramSnapshot b = concurrent.snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.buckets, b.buckets);
}

TEST(Histogram, SnapshotDeltaSubtracts) {
  tel::Histogram h;
  h.record(10);
  h.record(100);
  const tel::HistogramSnapshot before = h.snapshot();
  h.record(1000);
  h.record(1000);
  tel::HistogramSnapshot delta = h.snapshot();
  delta -= before;
  EXPECT_EQ(delta.count, 2u);
  EXPECT_EQ(delta.sum, 2000u);
  EXPECT_GE(delta.percentile(50.0), 750.0);  // within bucket quantization
  EXPECT_LE(delta.percentile(50.0), 1000.0);
}

TEST(MetricsRegistry, InstrumentsAreStableNamedAndResettable) {
  tel::MetricsRegistry& reg = tel::MetricsRegistry::global();
  tel::Counter& c = reg.counter("test.telemetry.counter");
  EXPECT_EQ(&c, &reg.counter("test.telemetry.counter"));
  c.reset();
  c.add(5);
  c.add(7);
  EXPECT_EQ(c.value(), 12u);
  bool seen = false;
  for (const auto& [name, value] : reg.counters()) {
    if (name == "test.telemetry.counter") {
      seen = true;
      EXPECT_EQ(value, 12u);
    }
  }
  EXPECT_TRUE(seen);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(IndexedCounter, WatermarkAndOutOfRangeDrops) {
  tel::IndexedCounter ic;
  ic.add(3, 10);
  ic.add(0, 1);
  ic.add(3, 5);
  const std::vector<std::uint64_t> v = ic.values();
  ASSERT_EQ(v.size(), 4u);  // watermark = highest index + 1
  EXPECT_EQ(v[0], 1u);
  EXPECT_EQ(v[1], 0u);
  EXPECT_EQ(v[3], 15u);
  EXPECT_EQ(ic.dropped(), 0u);
  ic.add(tel::kIndexedCapacity + 5, 1);
  EXPECT_EQ(ic.dropped(), 1u);
  EXPECT_EQ(ic.values().size(), 4u);
}

TEST(Series, BoundedWithDropAccounting) {
  tel::Series s(4);
  for (std::uint64_t i = 0; i < 10; ++i) s.push(i);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.dropped(), 6u);
  const std::vector<std::uint64_t> tail = s.values_from(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0], 2u);
  EXPECT_EQ(tail[1], 3u);
  s.reset();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.dropped(), 0u);
}

TEST(Tracer, ChromeTraceRoundTrips) {
  tel::Tracer& tracer = tel::Tracer::global();
  tracer.reset();
  tracer.set_recording(true);
  tracer.set_thread_label("gtest-main");
  tracer.emit("unit.span", "test", 1000, 500,
              {{"alpha", 1.0}, {"beta", 2.5}});
  tracer.emit(tracer.intern(std::string("unit.") + "interned"), "test", 2000,
              250);
  tracer.set_recording(false);
  EXPECT_EQ(tracer.events(), 2u);

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  tel::TraceDoc doc;
  std::string error;
  ASSERT_TRUE(tel::load_chrome_trace(os.str(), doc, &error)) << error;
  tracer.reset();

  ASSERT_EQ(doc.spans.size(), 2u);
  bool found_span = false, found_interned = false;
  for (const tel::TraceSpan& s : doc.spans) {
    if (s.name == "unit.span") {
      found_span = true;
      EXPECT_EQ(s.ph, 'X');
      EXPECT_EQ(s.cat, "test");
      EXPECT_DOUBLE_EQ(s.dur_us, 0.5);  // 500 ns
      ASSERT_EQ(s.args.count("alpha"), 1u);
      EXPECT_DOUBLE_EQ(s.args.at("alpha"), 1.0);
      EXPECT_DOUBLE_EQ(s.args.at("beta"), 2.5);
    } else if (s.name == "unit.interned") {
      found_interned = true;
      // Rebase: earliest event (ts 1000 ns) maps to 0, so this one
      // lands at 1 us.
      EXPECT_DOUBLE_EQ(s.ts_us, 1.0);
    }
  }
  EXPECT_TRUE(found_span);
  EXPECT_TRUE(found_interned);
  bool labeled = false;
  for (const auto& [tid, name] : doc.thread_names) {
    if (name == "gtest-main") labeled = true;
  }
  EXPECT_TRUE(labeled);
}

TEST(Tracer, EngineSetupSpansCoverConstructionAndReset) {
  // Engine set-up is solve time too: construction and reset() each emit
  // one engine.setup span (category "engine", so coverage counts it),
  // and nothing while the tracer is off.
  tel::Tracer& tracer = tel::Tracer::global();
  tracer.reset();
  const Graph g = path_graph(50);
  { SyncNetwork<int> quiet(g, 1); quiet.reset(2); }
  EXPECT_EQ(tracer.events(), 0u);
  tracer.set_recording(true);
  {
    SyncNetwork<int> net(g, 1);
    net.reset(2);
  }
  tracer.set_recording(false);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  tracer.reset();
  tel::TraceDoc doc;
  std::string error;
  ASSERT_TRUE(tel::load_chrome_trace(os.str(), doc, &error)) << error;
  std::vector<double> reset_flags;
  for (const tel::TraceSpan& s : doc.spans) {
    if (s.name != "engine.setup") continue;
    EXPECT_EQ(s.cat, "engine");
    EXPECT_EQ(s.ph, 'X');
    EXPECT_DOUBLE_EQ(s.args.at("arcs"), 2.0 * g.num_edges());
    reset_flags.push_back(s.args.at("reset"));
  }
  EXPECT_EQ(reset_flags, (std::vector<double>{0.0, 1.0}));
}

TEST(Telemetry, EngineRecordsEveryPhasePerDeliveringRound) {
  // Every round that delivers messages records one exchange_p1 sample
  // and one engine.exchange.p1 span, and at least one sample of each
  // per-shard phase; the step loop records every round. Run on a
  // two-shard plan under a two-thread pool, so the shard-parallel
  // delivery path is the one timed.
  Rng rng(5);
  const Graph g = erdos_renyi(4096, 4.0 / 4096.0, rng);
  ThreadPool pool(2);
  SyncNetwork<int> net(g, 1, {}, {.pool = &pool, .shards = 2});
  ASSERT_GE(net.shard_plan().count, 2u);

  tel::EngineMetrics& em = tel::EngineMetrics::get();
  tel::Tracer& tracer = tel::Tracer::global();
  const bool prev_enabled = tel::enabled();
  const tel::HistogramSnapshot p1_0 = em.exchange_p1_ns.snapshot();
  const tel::HistogramSnapshot p2_0 = em.exchange_p2_ns.snapshot();
  const tel::HistogramSnapshot sort_0 = em.inbox_sort_ns.snapshot();
  const tel::HistogramSnapshot step_0 = em.step_ns.snapshot();
  tel::set_enabled(true);
  tracer.reset();
  tracer.set_recording(true);
  std::uint64_t delivering = 0;
  std::uint64_t rounds = 0;
  for (; rounds < 5; ++rounds) {
    net.run_round([](SyncNetwork<int>::Ctx& ctx) {
      if (ctx.round() < 3) ctx.send_all(static_cast<int>(ctx.round()));
    });
    if (net.last_round_deliveries() > 0) ++delivering;
  }
  tracer.set_recording(false);
  tel::set_enabled(prev_enabled);
  EXPECT_EQ(delivering, 3u);

  EXPECT_EQ(em.exchange_p1_ns.snapshot().count - p1_0.count, delivering);
  EXPECT_GE(em.exchange_p2_ns.snapshot().count - p2_0.count, delivering);
  EXPECT_GE(em.inbox_sort_ns.snapshot().count - sort_0.count, delivering);
  EXPECT_GE(em.step_ns.snapshot().count - step_0.count, rounds);

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  tracer.reset();
  tel::TraceDoc doc;
  std::string error;
  ASSERT_TRUE(tel::load_chrome_trace(os.str(), doc, &error)) << error;
  std::uint64_t p1_spans = 0;
  for (const tel::TraceSpan& s : doc.spans) {
    if (s.name == "engine.exchange.p1") ++p1_spans;
  }
  EXPECT_EQ(p1_spans, delivering);
}

TEST(TraceReader, RejectsMalformedDocuments) {
  tel::TraceDoc doc;
  std::string error;
  EXPECT_FALSE(tel::load_chrome_trace("{", doc, &error));
  EXPECT_FALSE(tel::load_chrome_trace("[]", doc, &error));  // root: object
  EXPECT_FALSE(tel::load_chrome_trace("{\"traceEvents\": 3}", doc, &error));
  EXPECT_FALSE(tel::load_chrome_trace(
      "{\"traceEvents\": [{\"ph\": \"X\", \"ts\": 0, \"dur\": 1}]}", doc,
      &error));  // missing name
  EXPECT_FALSE(tel::load_chrome_trace("{\"traceEvents\": []} trailing", doc,
                                      &error));
  // Numbers that overflow a double (non-finite ts/dur) and thread ids
  // that are not non-negative integers.
  EXPECT_FALSE(tel::load_chrome_trace(
      "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", \"ts\": 0, "
      "\"dur\": 1e400}]}",
      doc, &error));
  EXPECT_FALSE(tel::load_chrome_trace(
      "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", \"ts\": -1e400, "
      "\"dur\": 1}]}",
      doc, &error));
  EXPECT_FALSE(tel::load_chrome_trace(
      "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", \"ts\": 0, "
      "\"dur\": 1, \"tid\": -1}]}",
      doc, &error));
  EXPECT_FALSE(tel::load_chrome_trace(
      "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", \"ts\": 0, "
      "\"dur\": 1, \"tid\": 0.5}]}",
      doc, &error));
  EXPECT_TRUE(tel::is_count(0.0));
  EXPECT_TRUE(tel::is_count(9007199254740992.0));  // 2^53
  EXPECT_FALSE(tel::is_count(9007199254740994.0));
  EXPECT_FALSE(tel::is_count(-3.0));
  EXPECT_FALSE(tel::is_count(0.5));
  EXPECT_TRUE(tel::load_chrome_trace("{\"traceEvents\": []}", doc, &error))
      << error;
  EXPECT_TRUE(doc.spans.empty());
}

TEST(Telemetry, EngineClientsBitIdenticalWithTelemetryOn) {
  // The acceptance-critical contract: metrics + span recording change
  // nothing about any engine client's execution.
  tel::Tracer& tracer = tel::Tracer::global();
  const bool prev_enabled = tel::enabled();
  for (const test_support::ShardCase& c : test_support::kEngineCases) {
    const api::SolveResult base = test_support::solve_with(c, 0, nullptr);
    tel::set_enabled(true);
    tracer.reset();
    tracer.set_recording(true);
    const api::SolveResult traced = test_support::solve_with(c, 0, nullptr);
    tracer.set_recording(false);
    tel::set_enabled(prev_enabled);
    test_support::expect_identical(
        base, traced, std::string(c.solver) + " telemetry on vs off");
    EXPECT_GT(tracer.events(), 0u)
        << c.solver << " recorded no spans with tracing on";
  }
  tracer.reset();
}

}  // namespace
}  // namespace lps
