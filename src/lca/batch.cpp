#include "lca/batch.hpp"

#include <chrono>
#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace lps::lca {

BatchEngine::BatchEngine(const OracleFactory& factory, ThreadPool* pool)
    : pool_(pool) {
  const std::size_t workers =
      pool_ != nullptr && pool_->num_threads() > 1 ? pool_->num_threads() : 1;
  oracles_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    oracles_.push_back(factory());
    if (!oracles_.back()) {
      throw std::invalid_argument("BatchEngine: factory returned null");
    }
  }
  free_list_.reserve(workers);
  for (auto& oracle : oracles_) free_list_.push_back(oracle.get());
}

OracleStats BatchEngine::total_stats() const {
  OracleStats total;
  for (const auto& oracle : oracles_) total += oracle->stats();
  return total;
}

BatchStats BatchEngine::run(
    std::size_t count,
    const std::function<void(MatchingOracle&, std::size_t, std::size_t)>&
        fn) {
  BatchStats out;
  const OracleStats before = total_stats();
  const telemetry::Probe probe;
  const auto t0 = std::chrono::steady_clock::now();
  if (pool_ != nullptr && pool_->num_threads() > 1 && count > 0) {
    // Chunks small enough that every worker stays busy, large enough
    // that free-list churn stays negligible next to query cost.
    const std::size_t grain =
        std::max<std::size_t>(1, count / (4 * oracles_.size()));
    pool_->parallel_for(0, count, grain,
                        [&](std::size_t begin, std::size_t end) {
                          MatchingOracle* oracle = nullptr;
                          {
                            std::lock_guard<std::mutex> lock(free_mutex_);
                            oracle = free_list_.back();
                            free_list_.pop_back();
                          }
                          fn(*oracle, begin, end);
                          std::lock_guard<std::mutex> lock(free_mutex_);
                          free_list_.push_back(oracle);
                        });
  } else {
    fn(*oracles_.front(), 0, count);
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.oracle = total_stats();
  out.oracle -= before;
  probe.end(nullptr, "lca.batch", "lca",
            {{"queries", static_cast<double>(count)},
             {"probes", static_cast<double>(out.oracle.probes)}});
  return out;
}

namespace {

/// Per-query instrumentation shared by the edge/node batch loops, from
/// the batch's one sink read: an lca.query_ns sample and an lca.query
/// span tagged with the oracle's probe delta (no event, so the event
/// and progress sinks are masked off).
struct QueryProbe {
  unsigned sinks =
      telemetry::sinks() & (telemetry::kMetrics | telemetry::kTrace);
  telemetry::Histogram& query_ns =
      telemetry::MetricsRegistry::global().histogram("lca.query_ns");

  template <typename Query>
  void operator()(MatchingOracle& oracle, double key,
                  const Query& query) const {
    const telemetry::Probe probe(sinks);
    const bool traced = probe.on(telemetry::kTrace);
    const std::uint64_t before = traced ? oracle.stats().probes : 0;
    query();
    probe.end(&query_ns, "lca.query", "lca",
              {{"key", key},
               {"probes", traced ? static_cast<double>(
                                       oracle.stats().probes - before)
                                 : 0.0}});
  }
};

}  // namespace

EdgeBatchResult BatchEngine::query_edges(const std::vector<EdgeId>& edges) {
  EdgeBatchResult out;
  out.in_matching.assign(edges.size(), 0);
  const QueryProbe instrumented;
  out.stats = run(edges.size(), [&](MatchingOracle& oracle,
                                    std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      instrumented(oracle, static_cast<double>(edges[i]), [&] {
        out.in_matching[i] = oracle.in_matching(edges[i]) ? 1 : 0;
      });
    }
  });
  return out;
}

NodeBatchResult BatchEngine::query_nodes(const std::vector<NodeId>& nodes) {
  NodeBatchResult out;
  out.matched_to.assign(nodes.size(), kInvalidNode);
  const QueryProbe instrumented;
  out.stats = run(nodes.size(), [&](MatchingOracle& oracle,
                                    std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      instrumented(oracle, static_cast<double>(nodes[i]), [&] {
        out.matched_to[i] = oracle.matched_to(nodes[i]);
      });
    }
  });
  return out;
}

}  // namespace lps::lca
