// The PR 9 observability contracts (DESIGN.md §14): the EventLog's
// closed vocabulary and JSONL shape, empty-histogram percentiles,
// per-run JSON omission of unmeasured percentile blocks, write_json
// collision ordinals, run-ledger appends, the stall watchdog's dump +
// distinct exit code, crash/revive pairing in the event log, and — the
// load-bearing one — that recording events + sampling the progress
// board changes nothing about any engine client's execution (same
// identity matrix as test_sharding/test_telemetry).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/ledger.hpp"
#include "api/runner.hpp"
#include "engine_cases.hpp"
#include "graph/generators.hpp"
#include "runtime/engine.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_reader.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

namespace tel = telemetry;

std::filesystem::path fresh_dir(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / ("lps_obs_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::string> read_lines(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(EventVocabulary, NamesAreClosedAndUnique) {
  std::set<std::string> names;
  for (unsigned k = 0; k < tel::kEventKinds; ++k) {
    const auto kind = static_cast<tel::EventKind>(k);
    const char* name = tel::event_kind_name(kind);
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(names.insert(name).second) << name;
    // Slot names pack to the front: a nullptr slot is never followed by
    // a named one (the JSONL writer stops naming at the first gap).
    const auto args = tel::event_arg_names(kind);
    for (int i = 1; i < 3; ++i) {
      if (args[i] != nullptr) {
        EXPECT_NE(args[i - 1], nullptr) << name;
      }
    }
  }
  EXPECT_EQ(names.size(), tel::kEventKinds);
  EXPECT_EQ(names.count("round"), 1u);
  EXPECT_EQ(names.count("crash"), 1u);
  EXPECT_EQ(names.count("revive"), 1u);
  EXPECT_EQ(names.count("watchdog"), 1u);
}

TEST(Histogram, EmptyPercentilesAreZero) {
  // Satellite (a): percentile on a never-recorded histogram is 0, not
  // garbage from an empty bucket walk.
  tel::Histogram h;
  const tel::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.percentile(50), 0.0);
  EXPECT_EQ(s.percentile(90), 0.0);
  EXPECT_EQ(s.percentile(99), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(EventLog, RecordsMergesAndSerializes) {
  tel::EventLog& elog = tel::EventLog::global();
  elog.reset();
  elog.set_recording(true);
  elog.emit(tel::EventKind::kRound, 1, 10, 12, 3);
  elog.emit(tel::EventKind::kCrash, 2, 17, 2);
  // A second thread's events land in its own buffer and still merge
  // into one (ns-sorted) timeline.
  std::thread other([&] { elog.emit(tel::EventKind::kRevive, 3, 17, 3); });
  other.join();
  elog.set_recording(false);
  EXPECT_EQ(elog.events(), 3u);
  EXPECT_EQ(elog.dropped(), 0u);

  const std::vector<tel::Event> merged = elog.snapshot();
  ASSERT_EQ(merged.size(), 3u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].ns, merged[i].ns);
  }
  const std::vector<tel::Event> last2 = elog.tail(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[0].ns, merged[1].ns);

  // JSONL: every line parses, carries ev/round/ns, and names the
  // per-kind payload slots.
  std::ostringstream os;
  elog.write_jsonl(os);
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    tel::JsonValue v;
    std::string error;
    ASSERT_TRUE(tel::parse_json(line, v, &error)) << line << ": " << error;
    ASSERT_TRUE(v.is_object());
    ASSERT_NE(v.find("ev"), nullptr);
    ASSERT_NE(v.find("round"), nullptr);
    ASSERT_NE(v.find("ns"), nullptr);
  }
  EXPECT_EQ(lines, 3u);

  const tel::Event crash{tel::EventKind::kCrash, 4, 99, 17, 4, 0};
  const std::string j = tel::EventLog::to_json_line(crash);
  EXPECT_NE(j.find("\"ev\":\"crash\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"vertex\":17"), std::string::npos) << j;
  EXPECT_NE(j.find("\"epoch\":4"), std::string::npos) << j;
  elog.reset();
}

TEST(EventLog, CapacityCapCountsDrops) {
  tel::EventLog& elog = tel::EventLog::global();
  elog.reset();
  elog.set_capacity(4);
  elog.set_recording(true);
  for (std::uint64_t i = 0; i < 10; ++i) {
    elog.emit(tel::EventKind::kRound, i, i);
  }
  elog.set_recording(false);
  EXPECT_EQ(elog.events(), 4u);
  EXPECT_EQ(elog.dropped(), 6u);
  EXPECT_EQ(elog.snapshot().size(), 4u);
  elog.set_capacity(std::size_t{1} << 20);
  elog.reset();
}

TEST(RunJson, OmitsPercentileBlocksWithoutRounds) {
  // Satellite (a), JSON half: a run with zero engine rounds (sequential
  // solver) reports no round/phase blocks — absent beats zeros that
  // read as measurements.
  api::RunSpec spec;
  spec.generator = "path:n=8";
  spec.solver = "greedy_mcm";
  spec.oracle = "none";
  spec.ledger = "off";
  const api::RunResult r = api::run_one(spec);
  ASSERT_TRUE(r.telemetry.enabled);
  EXPECT_EQ(r.telemetry.rounds, 0u);
  const std::string json = r.to_json();
  EXPECT_EQ(json.find("\"p99_ns\""), std::string::npos) << json;
  EXPECT_EQ(json.find("phase_mean_per_round"), std::string::npos);

  // And the blocks appear as soon as rounds were measured.
  api::RunResult synthetic = r;
  synthetic.telemetry.rounds = 3;
  synthetic.telemetry.round_ns_p99 = 5.0;
  const std::string with = synthetic.to_json();
  EXPECT_NE(with.find("\"p99_ns\""), std::string::npos);
  EXPECT_NE(with.find("phase_mean_per_round"), std::string::npos);
}

TEST(WriteJson, CollidingSpecsGetOrdinalSuffixes) {
  // Satellite (f): identical specs never overwrite each other's record.
  api::RunSpec spec;
  spec.generator = "path:n=8";
  spec.solver = "greedy_mcm";
  spec.oracle = "none";
  spec.ledger = "off";
  const api::RunResult r = api::run_one(spec);
  const std::filesystem::path dir = fresh_dir("write_json");
  const std::string p1 = api::write_json(r, dir.string());
  const std::string p2 = api::write_json(r, dir.string());
  const std::string p3 = api::write_json(r, dir.string());
  EXPECT_NE(p1, p2);
  EXPECT_NE(p2, p3);
  EXPECT_TRUE(std::filesystem::exists(p1));
  EXPECT_TRUE(std::filesystem::exists(p2));
  EXPECT_TRUE(std::filesystem::exists(p3));
  EXPECT_NE(p2.find("__r2.json"), std::string::npos) << p2;
  EXPECT_NE(p3.find("__r3.json"), std::string::npos) << p3;
}

TEST(Ledger, RunOneAppendsOneRecordPerRun) {
  const std::filesystem::path dir = fresh_dir("ledger");
  const std::filesystem::path ledger = dir / "ledger.jsonl";
  api::RunSpec spec;
  spec.generator = "path:n=8";
  spec.solver = "greedy_mcm";
  spec.oracle = "none";
  spec.ledger = ledger.string();
  api::run_one(spec);
  api::run_one(spec);
  const std::vector<std::string> lines = read_lines(ledger);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    tel::JsonValue v;
    std::string error;
    ASSERT_TRUE(tel::parse_json(line, v, &error)) << error;
    const tel::JsonValue* kind = v.find("kind");
    ASSERT_NE(kind, nullptr);
    EXPECT_EQ(kind->string, "run");
    const tel::JsonValue* config = v.find("config");
    ASSERT_NE(config, nullptr);
    EXPECT_NE(config->string.find("greedy_mcm"), std::string::npos);
    EXPECT_NE(v.find("metric"), nullptr);
    EXPECT_NE(v.find("value"), nullptr);
    EXPECT_NE(v.find("higher_is_better"), nullptr);
    EXPECT_NE(v.find("git_sha"), nullptr);
  }
}

TEST(Ledger, PathResolutionHonorsDisableTokens) {
  EXPECT_EQ(api::resolve_ledger_path("off"), "");
  EXPECT_EQ(api::resolve_ledger_path("0"), "");
  EXPECT_EQ(api::resolve_ledger_path("x/y.jsonl"), "x/y.jsonl");
  EXPECT_FALSE(api::append_ledger_line("", "{}"));  // disabled = no-op
}

TEST(Monitor, WatchdogDumpsTailAndCountersThenLatches) {
  tel::EventLog& elog = tel::EventLog::global();
  elog.reset();
  elog.set_recording(true);
  elog.emit(tel::EventKind::kRound, 7, 1, 1, 1);

  std::ostringstream sink;
  tel::MonitorOptions mo;
  mo.interval_ms = 10;
  mo.stall_timeout_ms = 60;
  mo.abort_on_stall = false;
  mo.out = &sink;
  tel::ProgressBoard::global().publish(7, 100, 5, tel::now_ns());
  tel::Monitor monitor(mo);
  // Nothing publishes after construction -> the deadline passes.
  for (int i = 0; i < 200 && !monitor.stalled(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  monitor.stop();
  elog.set_recording(false);
  EXPECT_TRUE(monitor.stalled());
  const std::string dump = sink.str();
  EXPECT_NE(dump.find("watchdog: stall detected"), std::string::npos) << dump;
  EXPECT_NE(dump.find("watchdog: event-log tail"), std::string::npos);
  EXPECT_NE(dump.find("\"ev\":\"round\""), std::string::npos);
  EXPECT_NE(dump.find("watchdog: shard_exchange_ns"), std::string::npos);
  EXPECT_NE(dump.find("watchdog: worker_busy_ns"), std::string::npos);
  EXPECT_NE(dump.find("watchdog: engine totals"), std::string::npos);
  // The dump itself lands in the event log (kWatchdog).
  bool saw_watchdog = false;
  for (const tel::Event& e : elog.snapshot()) {
    if (e.kind == tel::EventKind::kWatchdog) saw_watchdog = true;
  }
  EXPECT_TRUE(saw_watchdog);
  elog.reset();
}

// A genuinely stalled *engine*: rounds advance (the board heartbeats),
// then the step function wedges mid-run. The watchdog must dump and
// abort the process with its distinct exit code.
struct StallMsg {
  std::uint32_t x;
};
using StallNet = SyncNetwork<StallMsg, DefaultBitMeter<StallMsg>>;

TEST(MonitorDeathTest, StalledEngineAbortsWithDistinctExitCode) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        Rng rng(3);
        const Graph g = erdos_renyi(256, 4.0 / 256, rng);
        StallNet net(g, 1, {});
        tel::EventLog::global().reset();
        tel::EventLog::global().set_recording(true);
        tel::MonitorOptions mo;
        mo.interval_ms = 10;
        mo.stall_timeout_ms = 80;
        mo.abort_on_stall = true;
        mo.out = nullptr;  // dump goes to stderr for the EXPECT_EXIT regex
        tel::Monitor monitor(mo);
        for (int r = 0;; ++r) {
          net.run_round([](StallNet::Ctx& ctx) {
            if ((ctx.id() & 7u) == 0) {
              ctx.keep_active();
              for (const auto& inc : ctx.graph().neighbors(ctx.id())) {
                ctx.send(inc.edge, StallMsg{ctx.id()});
                break;
              }
            }
          });
          if (r == 3) {  // wedge: no further rounds complete
            std::this_thread::sleep_for(std::chrono::seconds(30));
          }
        }
      },
      testing::ExitedWithCode(tel::kWatchdogExitCode),
      "watchdog: stall detected");
}

TEST(FaultEvents, EveryCrashHasAMatchingRevive) {
  const std::filesystem::path dir = fresh_dir("fault_events");
  api::RunSpec spec;
  spec.generator = "er:n=256,deg=4";
  spec.solver = "greedy_mcm";
  spec.oracle = "none";
  spec.dynamic = "greedy";
  spec.dynamic_stream = "churn:n=256,m0=512,updates=256";
  spec.dynamic_checkpoints = 0;
  spec.faults = "flap1";
  spec.events = (dir / "events.jsonl").string();
  spec.ledger = "off";
  const api::RunResult r = api::run_one(spec);
  ASSERT_EQ(r.events_path, spec.events);
  ASSERT_GT(r.fault_crashed, 0u);
  EXPECT_EQ(r.fault_crashed, r.fault_revived);

  std::map<std::uint64_t, std::int64_t> down;
  std::uint64_t crashes = 0;
  for (const std::string& line : read_lines(spec.events)) {
    tel::JsonValue v;
    std::string error;
    ASSERT_TRUE(tel::parse_json(line, v, &error)) << error;
    const tel::JsonValue* ev = v.find("ev");
    ASSERT_NE(ev, nullptr);
    if (ev->string != "crash" && ev->string != "revive") continue;
    const tel::JsonValue* vert = v.find("vertex");
    ASSERT_NE(vert, nullptr) << line;
    const auto vid = static_cast<std::uint64_t>(vert->number);
    down[vid] += ev->string == "crash" ? 1 : -1;
    EXPECT_GE(down[vid], 0) << "revive before crash for vertex " << vid;
    if (ev->string == "crash") ++crashes;
  }
  EXPECT_EQ(crashes, r.fault_crashed);
  for (const auto& [vid, outstanding] : down) {
    EXPECT_EQ(outstanding, 0) << "vertex " << vid << " still down";
  }
}

TEST(ObservabilityIdentity, EventLogAndMonitorChangeNoExecution) {
  tel::EventLog& elog = tel::EventLog::global();
  for (const auto& c : test_support::kEngineCases) {
    const api::SolveResult base = test_support::solve_with(c, 0, nullptr);

    elog.reset();
    elog.set_recording(true);
    std::size_t events = 0;
    {
      tel::MonitorOptions mo;
      mo.interval_ms = 20;
      mo.out = nullptr;  // silent sampling; no watchdog
      tel::Monitor monitor(mo);
      const api::SolveResult observed = test_support::solve_with(c, 0, nullptr);
      monitor.stop();
      test_support::expect_identical(base, observed,
                                     std::string("observed ") + c.solver);
    }
    elog.set_recording(false);
    events = elog.events();
    EXPECT_GT(events, 0u) << c.solver;
    elog.reset();
  }
}

}  // namespace
}  // namespace lps
