#include "api/solver.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/options.hpp"

namespace lps::api {

Instance Instance::unweighted(Graph g) {
  Instance out;
  out.wg_.graph = std::move(g);
  return out;
}

Instance Instance::weighted(WeightedGraph wg) {
  if (wg.weights.size() != wg.graph.num_edges()) {
    throw std::invalid_argument("Instance::weighted: weight count mismatch");
  }
  Instance out;
  out.wg_ = std::move(wg);
  out.weighted_ = true;
  return out;
}

Instance& Instance::with_side(std::vector<std::uint8_t> side) {
  if (side.size() != wg_.graph.num_nodes()) {
    throw std::invalid_argument("Instance::with_side: size mismatch");
  }
  side_ = std::move(side);
  return *this;
}

const WeightedGraph& Instance::weighted_graph() const {
  if (!has_weights()) {
    throw std::logic_error("Instance: weighted_graph() on unweighted instance");
  }
  return wg_;
}

std::optional<std::vector<std::uint8_t>> Instance::bipartition() const {
  if (side_.has_value()) return side_;
  return wg_.graph.bipartition();
}

bool Instance::is_bipartite() const {
  return side_.has_value() || wg_.graph.bipartition().has_value();
}

SolverConfig SolverConfig::parse(const std::string& spec) {
  SolverConfig out;
  for (auto& [key, value] : parse_kv_list(spec)) out.set(key, value);
  return out;
}

SolverConfig& SolverConfig::set(const std::string& key,
                                const std::string& value) {
  if (key == "seed") {
    seed(parse_count_value(key, value, UINT64_MAX));
  } else if (key == "shards") {
    shards(static_cast<unsigned>(
        parse_count_value(key, value, std::numeric_limits<unsigned>::max())));
  } else {
    values_[key] = value;
  }
  return *this;
}

bool SolverConfig::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::string SolverConfig::get(const std::string& key,
                              const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t SolverConfig::get_int(const std::string& key,
                                   std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_int_value(key, it->second);
}

std::uint64_t SolverConfig::get_count(const std::string& key,
                                     std::uint64_t fallback,
                                     std::uint64_t max) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_count_value(key, it->second, max);
}

double SolverConfig::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_double_value(key, it->second);
}

bool SolverConfig::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_bool_value(key, it->second);
}

std::string SolverConfig::to_string() const {
  std::string out;
  for (const auto& [key, value] : values_) {
    if (!out.empty()) out += ',';
    out += key + '=' + value;
  }
  if (!out.empty()) out += ',';
  out += "seed=" + std::to_string(seed_);
  if (exec_.shards != 0) out += ",shards=" + std::to_string(exec_.shards);
  return out;
}

void MatchingSolver::validate_config(const SolverConfig& config) const {
  const std::vector<std::string> known = config_keys();
  for (const auto& [key, value] : config.entries()) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw std::invalid_argument("solver '" + name() +
                                  "': unknown config key '" + key + "'");
    }
  }
}

void MatchingSolver::validate(const Instance& instance,
                              const SolverConfig& config) const {
  validate_config(config);
  const Capabilities caps = capabilities();
  if (caps.weighted && !instance.has_weights()) {
    throw std::invalid_argument("solver '" + name() +
                                "' requires edge weights");
  }
  if (!caps.general && !instance.is_bipartite()) {
    throw std::invalid_argument("solver '" + name() +
                                "' requires a bipartite instance");
  }
}

SolveResult MatchingSolver::solve(const Instance& instance,
                                  const SolverConfig& config) const {
  validate(instance, config);
  const telemetry::Probe probe;
  const auto start = std::chrono::steady_clock::now();
  SolveResult result = run(instance, config);
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  probe.end(nullptr,
            probe.on(telemetry::kTrace)
                ? telemetry::Tracer::global().intern("solve:" + name())
                : nullptr,
            "api",
            {{"n", static_cast<double>(instance.graph().num_nodes())},
             {"m", static_cast<double>(instance.graph().num_edges())},
             {"rounds", static_cast<double>(result.stats.rounds)}});
  return result;
}

}  // namespace lps::api
