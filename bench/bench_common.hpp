// Shared helpers for the experiment benches: every bench prints its
// results as markdown tables to stdout.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>

#include "graph/generators.hpp"
#include "graph/matching.hpp"
#include "graph/weights.hpp"
#include "seq/greedy.hpp"
#include "telemetry/telemetry.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace lps::bench {

/// RAII --trace=PATH support for the experiment benches: construction
/// turns on metrics + span recording when the flag is present,
/// destruction stops recording and writes the Chrome trace. Inactive
/// without the flag.
class TraceGuard {
 public:
  explicit TraceGuard(const Options& opts) : path_(opts.get("trace", "")) {
    if (path_.empty()) return;
    telemetry::set_enabled(true);
    telemetry::Tracer::global().reset();
    telemetry::Tracer::global().set_recording(true);
  }
  ~TraceGuard() {
    if (path_.empty()) return;
    telemetry::Tracer& tracer = telemetry::Tracer::global();
    tracer.set_recording(false);
    telemetry::set_enabled(false);
    if (tracer.write_chrome_trace(path_)) {
      std::fprintf(stderr, "trace written to %s (%zu events)\n",
                   path_.c_str(), tracer.events());
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", path_.c_str());
    }
  }
  TraceGuard(const TraceGuard&) = delete;
  TraceGuard& operator=(const TraceGuard&) = delete;

 private:
  const std::string path_;
};

inline void print_header(const std::string& title, const std::string& claim) {
  std::cout << "\n## " << title << "\n\n";
  if (!claim.empty()) std::cout << "Paper claim: " << claim << "\n\n";
}

inline void print_table(const Table& t) {
  t.print_markdown(std::cout);
  std::cout << "\n" << std::flush;
}

/// Fixed-point cell formatting (Table::cell(double) prints %g).
inline std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// Certified upper bound on w(M*) usable at any scale: the greedy
/// matching is a 1/2-MWM, so w(M*) <= 2 * w(greedy).
inline double mwm_upper_bound(const WeightedGraph& wg) {
  return 2.0 * greedy_mwm(wg).weight(wg);
}

}  // namespace lps::bench
