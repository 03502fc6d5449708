// perf_diff: regression analytics over the run ledger
// (bench/ledger.jsonl — see src/api/ledger.hpp for the record schema).
//
//   perf_diff                               # report on the default ledger
//   perf_diff --ledger L.jsonl --last 8     # trend window of 8 runs
//   perf_diff --check --ledger L.jsonl      # verdict lines only
//
// Per (config, metric) group the tool reports the latest value, the
// median of the prior K runs, the delta between them, and a coarse
// trend direction. A group regresses when the latest value is worse
// than the prior median by more than --threshold percent, in the
// direction each record's own higher_is_better declares. Every
// comparison is within one ledger, so against runs on the same host.
//
// Exit codes (pinned): 0 = no regression, 1 = regression verdict
// (offending configs named on stderr), 2 = usage / IO / parse error,
// an unknown flag or a malformed number among them.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "api/ledger.hpp"
#include "telemetry/trace_reader.hpp"
#include "util/options.hpp"

namespace {

using lps::telemetry::JsonValue;

struct LedgerRecord {
  std::string config;
  std::string metric;
  double value = 0.0;
  bool higher_is_better = false;
};

struct Group {
  std::vector<LedgerRecord> records;  // ledger order == chronological
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Signed "how much worse is `latest` than `ref`", as a fraction of
/// `ref`. Positive = worse, in the metric's own direction.
double worse_frac(double latest, double ref, bool higher_is_better) {
  if (ref == 0.0) return 0.0;
  const double delta = (latest - ref) / std::fabs(ref);
  return higher_is_better ? -delta : delta;
}

const char* trend_of(const std::vector<double>& window, bool higher_better) {
  if (window.size() < 4) return "n/a";
  const std::size_t half = window.size() / 2;
  const double older = median({window.begin(), window.begin() +
                                                   static_cast<std::ptrdiff_t>(
                                                       window.size() - half)});
  const double newer =
      median({window.end() - static_cast<std::ptrdiff_t>(half), window.end()});
  if (older == 0.0) return "flat";
  const double rel = (newer - older) / std::fabs(older);
  if (std::fabs(rel) < 0.05) return "flat";
  const bool improving = higher_better ? rel > 0.0 : rel < 0.0;
  return improving ? "improving" : "degrading";
}

bool load_ledger(const std::string& path,
                 std::map<std::string, Group>& groups, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open '" + path + "'";
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    JsonValue v;
    std::string perr;
    if (!lps::telemetry::parse_json(line, v, &perr)) {
      *error = path + ":" + std::to_string(line_no) + ": " + perr;
      return false;
    }
    const JsonValue* config = v.find("config");
    const JsonValue* metric = v.find("metric");
    const JsonValue* value = v.find("value");
    const JsonValue* hib = v.find("higher_is_better");
    if (config == nullptr || !config->is_string() || metric == nullptr ||
        !metric->is_string() || value == nullptr || !value->is_number() ||
        hib == nullptr || hib->kind != JsonValue::Kind::Bool) {
      *error = path + ":" + std::to_string(line_no) +
               ": record lacks config/metric/value/higher_is_better";
      return false;
    }
    LedgerRecord rec;
    rec.config = config->string;
    rec.metric = metric->string;
    rec.value = value->number;
    rec.higher_is_better = hib->boolean;
    groups[rec.config + " :: " + rec.metric].records.push_back(
        std::move(rec));
  }
  return true;
}

void usage() {
  std::printf(
      "usage: perf_diff [options]\n"
      "  --ledger PATH     ledger to analyze (default bench/ledger.jsonl,\n"
      "                    or LPS_LEDGER)\n"
      "  --last K          trend/median window (default 8)\n"
      "  --threshold PCT   regression threshold in percent (default 20)\n"
      "  --check           terse output: verdict lines only\n"
      "exit codes: 0 ok, 1 regression (configs named), 2 usage/IO error\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string ledger_path;
  std::size_t last_k = 8;
  double threshold_pct = 20.0;
  bool check_only = false;
  try {
    const lps::Args args(argc, argv);
    if (args.get_bool("help", false)) {
      usage();
      return 0;
    }
    ledger_path = args.get("ledger", "");
    last_k = std::max<std::size_t>(1, args.get_count("last", 8, SIZE_MAX));
    threshold_pct = args.get_double("threshold", 20.0);
    check_only = args.get_bool("check", false);
    args.check_all_used();
  } catch (const std::invalid_argument& e) {
    return lps::reject_input("perf_diff", e);
  }
  if (ledger_path.empty()) {
    ledger_path = lps::api::resolve_ledger_path();
    if (ledger_path.empty()) {
      std::fprintf(stderr,
                   "perf_diff: ledger disabled via LPS_LEDGER; pass "
                   "--ledger PATH\n");
      return 2;
    }
  }

  std::map<std::string, Group> groups;
  std::string error;
  if (!load_ledger(ledger_path, groups, &error)) {
    std::fprintf(stderr, "perf_diff: %s\n", error.c_str());
    return 2;
  }
  if (groups.empty()) {
    std::printf("perf_diff: %s: empty ledger, nothing to compare\n",
                ledger_path.c_str());
    return 0;
  }

  const double threshold = threshold_pct / 100.0;
  std::vector<std::string> regressions;
  if (!check_only) {
    std::printf("perf_diff: %s (%zu config groups, window %zu, threshold "
                "%.0f%%)\n\n",
                ledger_path.c_str(), groups.size(), last_k, threshold_pct);
    std::printf("%-56s %12s %12s %8s %-10s\n", "config :: metric", "latest",
                "median", "delta", "trend");
  }
  for (const auto& [key, group] : groups) {
    const LedgerRecord& latest = group.records.back();
    // Prior window: up to last_k records before the latest one.
    std::vector<double> prior;
    const std::size_t nrec = group.records.size();
    const std::size_t begin = nrec > last_k + 1 ? nrec - last_k - 1 : 0;
    for (std::size_t i = begin; i + 1 < nrec; ++i) {
      prior.push_back(group.records[i].value);
    }
    std::vector<double> window = prior;
    window.push_back(latest.value);

    // A config's first record has no history: it is its own reference.
    const double ref = prior.empty() ? latest.value : median(prior);
    const double worse =
        worse_frac(latest.value, ref, latest.higher_is_better);
    const bool regressed = !prior.empty() && worse > threshold;
    if (!check_only) {
      std::printf("%-56s %12.3f %12.3f %7.1f%% %-10s%s\n", key.c_str(),
                  latest.value, ref, worse * 100.0,
                  trend_of(window, latest.higher_is_better),
                  regressed ? "  << REGRESSION" : "");
    }
    if (regressed) regressions.push_back(key);
  }
  if (!regressions.empty()) {
    for (const std::string& r : regressions) {
      std::fprintf(stderr, "perf_diff: regression: %s exceeds %.0f%%\n",
                   r.c_str(), threshold_pct);
    }
    std::fprintf(stderr, "perf_diff: verdict: REGRESSED (%zu of %zu groups)\n",
                 regressions.size(), groups.size());
    return 1;
  }
  std::printf("%sperf_diff: verdict: ok (%zu groups)\n",
              check_only ? "" : "\n", groups.size());
  return 0;
}
