// trace_summary: fold a Chrome-trace JSON (written by --trace on the
// runner/benches) into a text report, or validate it for CI. With
// --events the input is a structured event log (JSONL written by
// --events on the runner / EventLog::write_jsonl) instead of a trace.
//
//   trace_summary out.json              # report: top spans, round
//                                       # percentiles, shard imbalance
//   trace_summary --check out.json      # validate structure; exit 0/1
//   trace_summary --events ev.jsonl     # per-kind counts + timeline
//   trace_summary --check --events ev.jsonl  # validate; also enforces
//                                       # crash/revive pairing
//
// Both trace modes first validate the document: well-formed Chrome
// JSON with finite, non-negative ts/dur, non-empty names, and `shard` /
// `round` args that are non-negative integers ≤ 2^53. The report
// additionally understands the engine span taxonomy (engine.round /
// engine.exchange.p2 with shard args) when present. Event-log
// validation enforces the closed vocabulary of telemetry/event_log.hpp,
// integer `round`/`ns` and payload fields (the same ≤ 2^53 bound),
// non-decreasing ns stamps, and — the recovery invariant — that every
// `crash` vertex has a later `revive`.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "telemetry/event_log.hpp"
#include "telemetry/trace_reader.hpp"

namespace {

using lps::telemetry::is_count;
using lps::telemetry::TraceDoc;
using lps::telemetry::TraceSpan;

double percentile(std::vector<double>& sorted_values, double p) {
  if (sorted_values.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(sorted_values.size() - 1) + 0.5);
  return sorted_values[std::min(rank, sorted_values.size() - 1)];
}

int report(const TraceDoc& doc, const std::string& path) {
  std::printf("trace: %s\n", path.c_str());
  std::printf("events: %zu (%zu threads named)\n\n", doc.spans.size(),
              doc.thread_names.size());

  // Top spans by total duration.
  struct Agg {
    std::size_t count = 0;
    double total_us = 0.0;
    double max_us = 0.0;
  };
  std::map<std::string, Agg> by_name;
  for (const TraceSpan& s : doc.spans) {
    if (s.ph != 'X') continue;
    Agg& a = by_name[s.name];
    ++a.count;
    a.total_us += s.dur_us;
    a.max_us = std::max(a.max_us, s.dur_us);
  }
  std::vector<std::pair<std::string, Agg>> ranked(by_name.begin(),
                                                  by_name.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });
  std::printf("%-24s %10s %14s %12s %12s\n", "span", "count", "total_ms",
              "mean_us", "max_us");
  for (std::size_t i = 0; i < ranked.size() && i < 12; ++i) {
    const auto& [name, a] = ranked[i];
    std::printf("%-24s %10zu %14.3f %12.2f %12.2f\n", name.c_str(), a.count,
                a.total_us / 1000.0,
                a.total_us / static_cast<double>(a.count), a.max_us);
  }

  // Round-time percentiles from engine.round spans.
  std::vector<double> rounds;
  for (const TraceSpan& s : doc.spans) {
    if (s.name == "engine.round") rounds.push_back(s.dur_us);
  }
  if (!rounds.empty()) {
    std::sort(rounds.begin(), rounds.end());
    double total = 0.0;
    for (const double r : rounds) total += r;
    std::printf(
        "\nengine rounds: %zu  mean %.2f us  p50 %.2f  p90 %.2f  p99 %.2f  "
        "max %.2f\n",
        rounds.size(), total / static_cast<double>(rounds.size()),
        percentile(rounds, 50), percentile(rounds, 90), percentile(rounds, 99),
        rounds.back());
  }

  // Per-shard imbalance from engine.exchange.p2 spans' shard arg.
  std::map<std::uint64_t, double> shard_us;
  for (const TraceSpan& s : doc.spans) {
    if (s.name != "engine.exchange.p2") continue;
    const auto it = s.args.find("shard");
    if (it == s.args.end()) continue;
    shard_us[static_cast<std::uint64_t>(it->second)] += s.dur_us;
  }
  if (!shard_us.empty()) {
    double total = 0.0;
    double max_us = 0.0;
    std::uint64_t hottest = 0;
    for (const auto& [shard, us] : shard_us) {
      total += us;
      if (us > max_us) {
        max_us = us;
        hottest = shard;
      }
    }
    const double mean = total / static_cast<double>(shard_us.size());
    std::printf(
        "shard exchange: %zu shards  mean %.2f us  hottest #%llu %.2f us  "
        "imbalance %.2fx\n",
        shard_us.size(), mean, static_cast<unsigned long long>(hottest),
        max_us, mean > 0.0 ? max_us / mean : 0.0);
  }
  return 0;
}

/// Structure is already validated by the loader (which also rejects
/// non-finite numbers); enforce the invariants the writer guarantees on
/// top of bare well-formedness. False after printing a diagnostic.
bool validate(const TraceDoc& doc, const std::string& path) {
  for (std::size_t i = 0; i < doc.spans.size(); ++i) {
    const TraceSpan& s = doc.spans[i];
    const char* bad = nullptr;
    if (s.ts_us < 0.0 || (s.ph == 'X' && s.dur_us < 0.0)) {
      bad = "has negative ts/dur";
    } else if (s.name.empty()) {
      bad = "has empty name";
    }
    for (const char* key : {"shard", "round"}) {
      const auto it = s.args.find(key);
      if (bad == nullptr && it != s.args.end() && !is_count(it->second)) {
        bad = "has a shard/round arg that is not a non-negative integer";
      }
    }
    if (bad != nullptr) {
      std::fprintf(stderr, "trace_summary: %s: event %zu %s\n", path.c_str(),
                   i, bad);
      return false;
    }
  }
  return true;
}

/// Validate (and optionally summarize) an event-log JSONL file. Exit
/// codes match the trace path: 0 ok, 1 any violation.
int events_mode(const std::string& path, bool check_only) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_summary: cannot open '%s'\n", path.c_str());
    return 1;
  }
  // Wire name -> kind, for the closed vocabulary and its payload names.
  std::map<std::string, lps::telemetry::EventKind> known;
  for (unsigned k = 0; k < lps::telemetry::kEventKinds; ++k) {
    const auto kind = static_cast<lps::telemetry::EventKind>(k);
    known.emplace(lps::telemetry::event_kind_name(kind), kind);
  }

  std::map<std::string, std::size_t> counts;
  // vertex -> outstanding crashes (a flapping vertex can crash again
  // after a revive; the invariant is crashes(v) == revives(v) overall).
  std::map<std::uint64_t, std::int64_t> down;
  std::string line;
  std::size_t line_no = 0;
  std::size_t total = 0;
  double prev_ns = -1.0;
  double first_ns = 0.0;
  double last_ns = 0.0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    lps::telemetry::JsonValue v;
    std::string error;
    if (!lps::telemetry::parse_json(line, v, &error)) {
      std::fprintf(stderr, "trace_summary: %s:%zu: not JSON: %s\n",
                   path.c_str(), line_no, error.c_str());
      return 1;
    }
    if (!v.is_object()) {
      std::fprintf(stderr, "trace_summary: %s:%zu: event is not an object\n",
                   path.c_str(), line_no);
      return 1;
    }
    const lps::telemetry::JsonValue* ev = v.find("ev");
    const lps::telemetry::JsonValue* round = v.find("round");
    const lps::telemetry::JsonValue* ns = v.find("ns");
    if (ev == nullptr || !ev->is_string() || round == nullptr ||
        !round->is_number() || ns == nullptr || !ns->is_number()) {
      std::fprintf(stderr,
                   "trace_summary: %s:%zu: missing ev/round/ns fields\n",
                   path.c_str(), line_no);
      return 1;
    }
    if (known.count(ev->string) == 0) {
      std::fprintf(stderr, "trace_summary: %s:%zu: unknown event kind '%s'\n",
                   path.c_str(), line_no, ev->string.c_str());
      return 1;
    }
    if (!is_count(ns->number) || !is_count(round->number)) {
      std::fprintf(stderr,
                   "trace_summary: %s:%zu: ns/round is not a non-negative "
                   "integer <= 2^53\n",
                   path.c_str(), line_no);
      return 1;
    }
    for (const char* slot :
         lps::telemetry::event_arg_names(known.at(ev->string))) {
      const lps::telemetry::JsonValue* field =
          slot != nullptr ? v.find(slot) : nullptr;
      if (field != nullptr &&
          !(field->is_number() && is_count(field->number))) {
        std::fprintf(stderr,
                     "trace_summary: %s:%zu: %s is not a non-negative "
                     "integer <= 2^53\n",
                     path.c_str(), line_no, slot);
        return 1;
      }
    }
    if (ns->number < prev_ns) {
      std::fprintf(stderr,
                   "trace_summary: %s:%zu: ns stamps not sorted "
                   "(%.0f after %.0f)\n",
                   path.c_str(), line_no, ns->number, prev_ns);
      return 1;
    }
    prev_ns = ns->number;
    if (total == 0) first_ns = ns->number;
    last_ns = ns->number;
    ++total;
    ++counts[ev->string];
    if (ev->string == "crash" || ev->string == "revive") {
      const lps::telemetry::JsonValue* vert = v.find("vertex");
      if (vert == nullptr || !vert->is_number()) {
        std::fprintf(stderr,
                     "trace_summary: %s:%zu: %s event lacks a vertex\n",
                     path.c_str(), line_no, ev->string.c_str());
        return 1;
      }
      // A count: the payload check above vetted the vertex field.
      const auto vid = static_cast<std::uint64_t>(vert->number);
      down[vid] += ev->string == "crash" ? 1 : -1;
      if (down[vid] < 0) {
        std::fprintf(stderr,
                     "trace_summary: %s:%zu: revive of vertex %llu "
                     "without a preceding crash\n",
                     path.c_str(), line_no,
                     static_cast<unsigned long long>(vid));
        return 1;
      }
    }
  }
  // The recovery invariant: every crash eventually paired with a revive
  // (FaultSession's terminal heal guarantees this on a complete run).
  for (const auto& [vid, outstanding] : down) {
    if (outstanding != 0) {
      std::fprintf(stderr,
                   "trace_summary: %s: vertex %llu crashed without a "
                   "matching revive (%lld outstanding)\n",
                   path.c_str(), static_cast<unsigned long long>(vid),
                   static_cast<long long>(outstanding));
      return 1;
    }
  }
  if (check_only) {
    std::printf("%s: ok (%zu events, crash/revive balanced)\n", path.c_str(),
                total);
    return 0;
  }
  std::printf("event log: %s\n", path.c_str());
  std::printf("events: %zu  span: %.3f ms\n\n", total,
              (last_ns - first_ns) / 1e6);
  std::printf("%-12s %10s\n", "kind", "count");
  for (const auto& [kind, count] : counts) {
    std::printf("%-12s %10zu\n", kind.c_str(), count);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool check_only = false;
  bool events = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      check_only = true;
    } else if (arg == "--events") {
      events = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: trace_summary [--check] [--events] <trace.json|log.jsonl>\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "trace_summary: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "trace_summary: more than one input file\n");
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(
        stderr,
        "usage: trace_summary [--check] [--events] <trace.json|log.jsonl>\n");
    return 2;
  }
  if (events) return events_mode(path, check_only);
  TraceDoc doc;
  std::string error;
  if (!lps::telemetry::load_chrome_trace_file(path, doc, &error)) {
    std::fprintf(stderr, "trace_summary: %s: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  if (!validate(doc, path)) return 1;
  if (!check_only) return report(doc, path);
  std::printf("%s: ok (%zu events)\n", path.c_str(), doc.spans.size());
  return 0;
}
