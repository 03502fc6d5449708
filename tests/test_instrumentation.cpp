// Characterization pin of the instrumentation stream: what metrics,
// spans and events an instrumented run records, independent of how the
// recording sites are written. Each leg turns every sink on, runs, and
// reduces the stream to its deterministic content:
//
//  * spans as (name, cat, args) — ts, dur and tid dropped;
//  * events as (kind, round, a, b, c) — ns dropped;
//  * the sample count of every EngineMetrics instrument (and of the
//    lca/dynamic/faults histograms on the run_one leg).
//
// Spans and events are compared as multisets (sorted canonical lines,
// FNV-1a digested) because shard-parallel delivery interleaves threads.
// The engine legs run israeli_itai on a two-thread pool over two shards,
// fault-free and under each message-fault family; the run_one leg adds
// the solve:*, lca.* and dynamic.* spans and the graph-fault events.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/runner.hpp"
#include "core/israeli_itai.hpp"
#include "graph/generators.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_reader.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

namespace tel = telemetry;

std::uint64_t fnv1a(const std::vector<std::string>& lines) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& line : lines) {
    for (const char c : line) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    h ^= '\n';
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// One leg's stream, reduced to its deterministic content.
struct Pinned {
  std::string span_counts;   // "name=count ..." in name order
  std::uint64_t span_digest = 0;
  std::string event_counts;  // "kind=count ..." in kind-name order
  std::uint64_t event_digest = 0;
  std::string samples;       // "instrument=samples ..." in fixed order
};

/// Clear every sink and switch all of them on.
void start_recording() {
  tel::MetricsRegistry::global().reset();
  tel::Tracer::global().reset();
  tel::EventLog::global().reset();
  tel::set_enabled(true);
  tel::Tracer::global().set_recording(true);
  tel::EventLog::global().set_recording(true);
}

Pinned stop_and_reduce(bool with_leg_histograms) {
  tel::set_enabled(false);
  tel::Tracer& tracer = tel::Tracer::global();
  tel::EventLog& elog = tel::EventLog::global();
  tracer.set_recording(false);
  elog.set_recording(false);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(elog.dropped(), 0u);

  Pinned out;
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  tel::TraceDoc doc;
  std::string error;
  EXPECT_TRUE(tel::load_chrome_trace(os.str(), doc, &error)) << error;
  std::vector<std::string> lines;
  std::map<std::string, std::uint64_t> by_name;
  for (const tel::TraceSpan& s : doc.spans) {
    std::string line = s.name + "|" + s.cat + "|" + s.ph;
    for (const auto& [k, v] : s.args) line += "|" + k + "=" + number(v);
    lines.push_back(std::move(line));
    ++by_name[s.name];
  }
  std::sort(lines.begin(), lines.end());
  out.span_digest = fnv1a(lines);
  for (const auto& [name, count] : by_name) {
    out.span_counts += name + "=" + std::to_string(count) + " ";
  }

  lines.clear();
  std::map<std::string, std::uint64_t> by_kind;
  for (const tel::Event& e : elog.snapshot()) {
    const std::string kind = tel::event_kind_name(e.kind);
    lines.push_back(kind + "|" + std::to_string(e.round) + "|" +
                    std::to_string(e.a) + "|" + std::to_string(e.b) + "|" +
                    std::to_string(e.c));
    ++by_kind[kind];
  }
  std::sort(lines.begin(), lines.end());
  out.event_digest = fnv1a(lines);
  for (const auto& [kind, count] : by_kind) {
    out.event_counts += kind + "=" + std::to_string(count) + " ";
  }

  tel::EngineMetrics& em = tel::EngineMetrics::get();
  const auto add = [&](const char* name, std::uint64_t samples) {
    out.samples += std::string(name) + "=" + std::to_string(samples) + " ";
  };
  add("rounds", em.rounds.value());
  add("messages_delivered", em.messages_delivered.value());
  add("round_ns", em.round_ns.snapshot().count);
  add("exchange_p1_ns", em.exchange_p1_ns.snapshot().count);
  add("exchange_p2_ns", em.exchange_p2_ns.snapshot().count);
  add("inbox_sort_ns", em.inbox_sort_ns.snapshot().count);
  add("step_ns", em.step_ns.snapshot().count);
  add("shard_exchange_ns", em.shard_exchange_ns.values().size());
  add("messages_per_round", em.messages_per_round.size());
  // Which pool threads pick up step chunks is a scheduling decision, so
  // only the bound is pinned: at most one busy slot per worker.
  const std::size_t busy_workers = em.worker_busy_ns.values().size();
  EXPECT_GE(busy_workers, 1u);
  EXPECT_LE(busy_workers, 2u);
  if (with_leg_histograms) {
    tel::MetricsRegistry& reg = tel::MetricsRegistry::global();
    add("lca.query_ns", reg.histogram("lca.query_ns").snapshot().count);
    add("dynamic.update_ns",
        reg.histogram("dynamic.update_ns").snapshot().count);
    add("faults.recovery_ns",
        reg.histogram("faults.recovery_ns").snapshot().count);
  }
  tracer.reset();
  elog.reset();
  return out;
}

Pinned israeli_itai_leg(const std::string& faults) {
  Rng rng(5);
  const Graph g = erdos_renyi(4096, 4.0 / 4096.0, rng);
  ThreadPool pool(2);
  IsraeliItaiOptions opts;
  opts.seed = 1;
  opts.exec = {.pool = &pool, .shards = 2};
  opts.faults = faults;
  start_recording();
  const DistMatchingResult r = israeli_itai(g, opts);
  EXPECT_GT(r.matching.size(), 0u);
  return stop_and_reduce(/*with_leg_histograms=*/false);
}

void expect_pinned(const Pinned& got, const Pinned& want,
                   const std::string& leg) {
  EXPECT_EQ(got.span_counts, want.span_counts) << leg;
  EXPECT_EQ(got.event_counts, want.event_counts) << leg;
  EXPECT_EQ(got.samples, want.samples) << leg;
  EXPECT_EQ(got.span_digest, want.span_digest)
      << leg << ": span multiset changed (0x" << std::hex << got.span_digest
      << ")";
  EXPECT_EQ(got.event_digest, want.event_digest)
      << leg << ": event multiset changed (0x" << std::hex
      << got.event_digest << ")";
}

TEST(InstrumentationPin, IsraeliItaiFaultFree) {
  expect_pinned(
      israeli_itai_leg(""),
      {.span_counts = "engine.exchange.p1=33 engine.exchange.p2=65 "
                      "engine.inbox.sort=65 engine.round=36 engine.setup=2 "
                      "engine.step=36 ",
       .span_digest = 0xa54ccb6c54026df9ull,
       .event_counts = "exchange=98 round=36 ",
       .event_digest = 0x186a6b9e71df2842ull,
       .samples = "rounds=36 messages_delivered=17457 round_ns=36 "
                  "exchange_p1_ns=33 exchange_p2_ns=65 inbox_sort_ns=65 "
                  "step_ns=36 shard_exchange_ns=2 messages_per_round=36 "},
      "fault-free");
}

TEST(InstrumentationPin, IsraeliItaiDrop10) {
  expect_pinned(
      israeli_itai_leg("drop10"),
      {.span_counts = "engine.exchange.p1=276 engine.exchange.p2=546 "
                      "engine.inbox.sort=546 engine.round=660 "
                      "engine.setup=2 engine.step=660 ",
       .span_digest = 0xe4e8e856857e9c72ull,
       .event_counts = "drop=4671 exchange=822 resync=3 round=660 ",
       .event_digest = 0x5c8a1e86f0595e3bull,
       .samples = "rounds=660 messages_delivered=42026 round_ns=660 "
                  "exchange_p1_ns=276 exchange_p2_ns=546 inbox_sort_ns=546 "
                  "step_ns=660 shard_exchange_ns=2 messages_per_round=660 "},
      "drop10");
}

TEST(InstrumentationPin, IsraeliItaiDup5) {
  expect_pinned(
      israeli_itai_leg("dup5"),
      {.span_counts = "engine.exchange.p1=33 engine.exchange.p2=65 "
                      "engine.inbox.sort=65 engine.round=36 engine.setup=2 "
                      "engine.step=36 ",
       .span_digest = 0xb1f9e664810df25full,
       .event_counts = "dup=882 exchange=98 round=36 ",
       .event_digest = 0xa5544d796ce7a37cull,
       .samples = "rounds=36 messages_delivered=18337 round_ns=36 "
                  "exchange_p1_ns=33 exchange_p2_ns=65 inbox_sort_ns=65 "
                  "step_ns=36 shard_exchange_ns=2 messages_per_round=36 "},
      "dup5");
}

TEST(InstrumentationPin, IsraeliItaiDelay4) {
  expect_pinned(
      israeli_itai_leg("delay4"),
      {.span_counts = "engine.exchange.p1=665 engine.exchange.p2=1307 "
                      "engine.inbox.sort=1307 engine.round=681 "
                      "engine.setup=2 engine.step=681 ",
       .span_digest = 0xd94c3d99800268f3ull,
       .event_counts = "delay=11811 exchange=1972 resync=4 round=681 ",
       .event_digest = 0xaad1ef94019b3c7bull,
       .samples = "rounds=681 messages_delivered=46977 round_ns=681 "
                  "exchange_p1_ns=665 exchange_p2_ns=1307 "
                  "inbox_sort_ns=1307 step_ns=681 shard_exchange_ns=2 "
                  "messages_per_round=681 "},
      "delay4");
}

TEST(InstrumentationPin, RunOneWithLcaAndDynamicLegs) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "lps_instrumentation_pin";
  std::filesystem::create_directories(dir);
  api::RunSpec spec;
  spec.generator = "er:n=512,deg=4";
  spec.solver = "israeli_itai";
  spec.oracle = "none";
  spec.threads = 1;
  spec.lca = "auto";
  spec.dynamic = "repair";
  spec.dynamic_stream = "churn:n=512,m0=1024,updates=256";
  spec.dynamic_config = "interval=128,rebuild=greedy_mcm,rebuild_frac=0.1";
  spec.dynamic_checkpoints = 2;
  spec.faults = "pin:flap=0.02,adversarial=0.05,epochs=2";
  spec.trace = (dir / "run.trace.json").string();
  spec.events = (dir / "run.events.jsonl").string();
  spec.ledger = "off";
  // run_one resets the tracer and event log and switches them on for
  // its window; metrics and both logs are read back after it returns.
  start_recording();
  const api::RunResult r = api::run_one(spec);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.trace_path, spec.trace);
  EXPECT_EQ(r.events_path, spec.events);
  expect_pinned(
      stop_and_reduce(/*with_leg_histograms=*/true),
      {.span_counts = "dynamic.rebuild=11 dynamic.repair=13 "
                      "engine.exchange.p1=21 engine.exchange.p2=21 "
                      "engine.inbox.sort=21 engine.round=24 engine.setup=2 "
                      "engine.step=24 lca.batch=1 lca.query=1058 "
                      "solve:greedy_mcm=13 solve:israeli_itai=1 ",
       .span_digest = 0x993da0523156c2f1ull,
       .event_counts = "crash=20 cut=18 exchange=42 rebuild=11 reinsert=94 "
                       "revive=20 round=24 ",
       .event_digest = 0x3d58d2e3b6164b32ull,
       .samples = "rounds=24 messages_delivered=2220 round_ns=24 "
                  "exchange_p1_ns=21 exchange_p2_ns=21 inbox_sort_ns=21 "
                  "step_ns=24 shard_exchange_ns=1 messages_per_round=24 "
                  "lca.query_ns=1058 dynamic.update_ns=1432 "
                  "faults.recovery_ns=3 "},
      "run_one");
}

}  // namespace
}  // namespace lps
