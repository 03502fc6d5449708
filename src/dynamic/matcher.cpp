#include "dynamic/matcher.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "api/registry.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/telemetry.hpp"
#include "util/options.hpp"

namespace lps::dynamic {

namespace {

/// Resolved once (static ref), recorded per update when metrics are on.
telemetry::Histogram& update_ns_histogram() {
  static telemetry::Histogram& h =
      telemetry::MetricsRegistry::global().histogram("dynamic.update_ns");
  return h;
}

}  // namespace

// ------------------------------------------------------ DynamicMatcher --

DynamicMatcher::DynamicMatcher(DynamicGraph g)
    : g_(std::move(g)), match_(g_.node_slots(), kInvalidEdge) {}

void DynamicMatcher::raw_match(EdgeId e) {
  const Edge ed = g_.edge(e);
  if (match_[ed.u] != kInvalidEdge || match_[ed.v] != kInvalidEdge) {
    throw std::logic_error("DynamicMatcher: matching a covered vertex");
  }
  match_[ed.u] = e;
  match_[ed.v] = e;
  ++size_;
}

void DynamicMatcher::raw_unmatch(EdgeId e) {
  const Edge ed = g_.edge(e);
  if (match_[ed.u] != e || match_[ed.v] != e) {
    throw std::logic_error("DynamicMatcher: unmatching a non-matched edge");
  }
  match_[ed.u] = kInvalidEdge;
  match_[ed.v] = kInvalidEdge;
  --size_;
}

void DynamicMatcher::match(EdgeId e) {
  raw_match(e);
  ++stats_.recourse;
}

void DynamicMatcher::unmatch(EdgeId e) {
  raw_unmatch(e);
  ++stats_.recourse;
}

void DynamicMatcher::apply(const Update& up) {
  const telemetry::Probe probe(telemetry::sinks() & telemetry::kMetrics);
  switch (up.kind) {
    case UpdateKind::kInsertEdge: {
      const EdgeId e = g_.insert_edge(up.u, up.v, up.weight);
      on_insert(e);
      break;
    }
    case UpdateKind::kDeleteEdge: {
      const EdgeId e = g_.find_edge(up.u, up.v);
      if (e == kInvalidEdge) {
        throw std::invalid_argument(
            "DynamicMatcher: delete of absent edge (" + std::to_string(up.u) +
            ", " + std::to_string(up.v) + ")");
      }
      const bool was_matched = in_matching(e);
      if (was_matched) unmatch(e);
      const Edge ed = g_.edge(e);
      g_.delete_edge(e);
      on_deleted(ed.u, ed.v, was_matched);
      break;
    }
    case UpdateKind::kAddVertex: {
      g_.add_vertex();
      match_.push_back(kInvalidEdge);
      break;
    }
    case UpdateKind::kRemoveVertex: {
      if (!g_.node_alive(up.u)) {
        throw std::invalid_argument("DynamicMatcher: remove of dead vertex " +
                                    std::to_string(up.u));
      }
      NodeId former_mate = kInvalidNode;
      if (match_[up.u] != kInvalidEdge) {
        former_mate = g_.other_endpoint(match_[up.u], up.u);
        unmatch(match_[up.u]);
      }
      g_.remove_vertex(up.u);
      on_vertex_removed(up.u, former_mate);
      break;
    }
    case UpdateKind::kSetWeight: {
      const EdgeId e = g_.find_edge(up.u, up.v);
      if (e == kInvalidEdge) {
        throw std::invalid_argument(
            "DynamicMatcher: reweight of absent edge (" +
            std::to_string(up.u) + ", " + std::to_string(up.v) + ")");
      }
      g_.set_weight(e, up.weight);
      break;
    }
    case UpdateKind::kReviveVertex: {
      g_.revive_vertex(up.u);  // throws on live/unallocated ids
      on_vertex_revived(up.u);
      break;
    }
  }
  ++stats_.updates;
  after_update();
  probe.end(&update_ns_histogram());
}

void DynamicMatcher::apply_trace(const UpdateTrace& trace) {
  const telemetry::Probe probe;
  for (const Update& up : trace) apply(up);
  probe.end(nullptr, "dynamic.apply_trace", "dynamic",
            {{"updates", static_cast<double>(trace.size())}});
}

void DynamicMatcher::adopt_registry_solution(const std::string& solver,
                                             std::uint64_t seed) {
  ++stats_.rebuilds;
  const telemetry::Probe probe;
  const std::size_t size_before = size_;
  const Snapshot snap = g_.snapshot();
  api::SolverConfig config;
  config.seed(seed);
  const api::SolveResult solved = api::SolverRegistry::global().at(solver).solve(
      api::Instance::unweighted(snap.graph), config);
  std::vector<std::uint8_t> keep(g_.edge_slots(), 0);
  for (const EdgeId e : solved.matching.edge_ids(snap.graph)) {
    keep[snap.edge_to_dynamic[e]] = 1;
  }
  for (const EdgeId e : matching_edges()) {
    if (!keep[e]) unmatch(e);
  }
  for (EdgeId se = 0; se < snap.edge_to_dynamic.size(); ++se) {
    const EdgeId e = snap.edge_to_dynamic[se];
    if (keep[e] && !in_matching(e)) match(e);
  }
  probe.end(nullptr, "dynamic.rebuild", "dynamic",
            {{"edges", static_cast<double>(snap.graph.num_edges())},
             {"size_before", static_cast<double>(size_before)},
             {"size_after", static_cast<double>(size_)}},
            {telemetry::EventKind::kRebuild, stats_.rebuilds, size_before,
             size_});
}

std::vector<EdgeId> DynamicMatcher::matching_edges() const {
  std::vector<EdgeId> out;
  out.reserve(size_);
  for (NodeId v = 0; v < match_.size(); ++v) {
    const EdgeId e = match_[v];
    if (e != kInvalidEdge && g_.edge(e).u == v) out.push_back(e);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void DynamicMatcher::check_matching() const {
  const auto fail = [](const std::string& what) {
    throw std::logic_error("DynamicMatcher::check_matching: " + what);
  };
  if (match_.size() != g_.node_slots()) fail("match table size");
  std::size_t covered = 0;
  for (NodeId v = 0; v < match_.size(); ++v) {
    const EdgeId e = match_[v];
    if (e == kInvalidEdge) continue;
    if (!g_.node_alive(v)) fail("dead vertex " + std::to_string(v) + " matched");
    if (!g_.edge_alive(e)) {
      fail("matched edge " + std::to_string(e) + " is dead");
    }
    const Edge ed = g_.edge(e);
    if (ed.u != v && ed.v != v) {
      fail("vertex " + std::to_string(v) + " matched to a non-incident edge");
    }
    const NodeId other = ed.u == v ? ed.v : ed.u;
    if (match_[other] != e) {
      fail("endpoints of edge " + std::to_string(e) + " disagree");
    }
    ++covered;
  }
  if (covered != 2 * size_) fail("size inconsistent with match table");
}

// ------------------------------------------------- GreedyDynamicMatcher --

GreedyDynamicMatcher::GreedyDynamicMatcher(DynamicGraph g)
    : DynamicMatcher(std::move(g)) {
  // Establish maximality over whatever edges the seed graph carries.
  for (NodeId v = 0; v < graph().node_slots(); ++v) {
    if (graph().node_alive(v) && is_free(v)) rematch_scan(v);
  }
}

void GreedyDynamicMatcher::on_insert(EdgeId e) {
  const Edge ed = graph().edge(e);
  if (is_free(ed.u) && is_free(ed.v)) match(e);
}

void GreedyDynamicMatcher::on_deleted(NodeId u, NodeId v, bool was_matched) {
  // Deleting an unmatched edge cannot break maximality; deleting a
  // matched one frees both endpoints, each of which may now have a free
  // neighbor.
  if (!was_matched) return;
  rematch_scan(u);
  rematch_scan(v);
}

void GreedyDynamicMatcher::on_vertex_removed(NodeId /*v*/, NodeId former_mate) {
  if (former_mate != kInvalidNode) rematch_scan(former_mate);
}

void GreedyDynamicMatcher::rematch_scan(NodeId v) {
  if (!is_free(v)) return;
  for (const Arc a : graph().neighbors(v)) {
    if (is_free(a.to)) {
      match(a.edge);
      return;
    }
  }
}

// ------------------------------------------------- RepairDynamicMatcher --

RepairDynamicMatcher::RepairDynamicMatcher(DynamicGraph g, Options options)
    : DynamicMatcher(std::move(g)), options_(options) {
  if (!(options_.eps > 0.0) || options_.eps >= 1.0) {
    throw std::invalid_argument("repair: eps must be in (0, 1)");
  }
  if (options_.interval == 0) {
    throw std::invalid_argument("repair: interval must be >= 1");
  }
  // No augmenting path of length <= 2k-1 implies a k/(k+1) = (1-eps)
  // approximation; eps picks k = ceil(1/eps) - 1.
  const int k = std::max(1, static_cast<int>(std::ceil(1.0 / options_.eps)) - 1);
  path_cap_ = 2 * k - 1;
  dirty_flag_.assign(graph().node_slots(), 0);
  stamp_.assign(graph().node_slots(), 0);
  // Seed edges are handled like a burst of inserts that was never
  // repaired: greedy-match what's cheap, mark the rest dirty.
  for (NodeId v = 0; v < graph().node_slots(); ++v) {
    if (!graph().node_alive(v)) continue;
    if (is_free(v)) {
      for (const Arc a : graph().neighbors(v)) {
        if (is_free(a.to)) {
          match(a.edge);
          break;
        }
      }
    }
    if (is_free(v) && graph().degree(v) > 0) mark_dirty(v);
  }
}

void RepairDynamicMatcher::mark_dirty(NodeId v) {
  if (v >= dirty_flag_.size()) dirty_flag_.resize(v + 1, 0);
  if (dirty_flag_[v]) return;
  dirty_flag_[v] = 1;
  dirty_.push_back(v);
}

void RepairDynamicMatcher::on_insert(EdgeId e) {
  const Edge ed = graph().edge(e);
  if (is_free(ed.u) && is_free(ed.v)) {
    match(e);
    return;
  }
  // The new edge may open an augmenting path through its endpoints.
  mark_dirty(ed.u);
  mark_dirty(ed.v);
}

void RepairDynamicMatcher::on_deleted(NodeId u, NodeId v, bool was_matched) {
  if (!was_matched) return;
  mark_dirty(u);
  mark_dirty(v);
}

void RepairDynamicMatcher::on_vertex_removed(NodeId /*v*/, NodeId former_mate) {
  if (former_mate != kInvalidNode) mark_dirty(former_mate);
}

void RepairDynamicMatcher::on_vertex_revived(NodeId v) {
  // The vertex comes back isolated, but the recovery protocol is about
  // to re-insert its edges: seed the dirty set so the next repair pass
  // searches from here (and escalates to a rebuild if a crash batch
  // dirtied more than rebuild_frac of the graph).
  mark_dirty(v);
}

void RepairDynamicMatcher::after_update() {
  if (++since_repair_ >= options_.interval) repair();
}

void RepairDynamicMatcher::repair() {
  since_repair_ = 0;
  if (dirty_.empty()) return;
  ++stats_.repairs;
  const telemetry::Probe probe;
  const std::uint64_t augs_before = stats_.augmentations;
  const std::size_t dirty_count = dirty_.size();
  stamp_.resize(graph().node_slots(), 0);
  if (!options_.rebuild.empty() &&
      graph().num_live_nodes() > 0 &&
      static_cast<double>(dirty_.size()) >
          options_.rebuild_frac *
              static_cast<double>(graph().num_live_nodes())) {
    rebuild_via_registry();
  } else {
    for (const NodeId v : dirty_) {
      if (!graph().node_alive(v) || !is_free(v)) continue;
      ++stamp_cur_;
      const int len = augment_from(v, path_cap_);
      if (len > 0) {
        stats_.recourse += static_cast<std::uint64_t>(len);
        ++stats_.augmentations;
      }
    }
  }
  for (const NodeId v : dirty_) {
    if (v < dirty_flag_.size()) dirty_flag_[v] = 0;
  }
  dirty_.clear();
  probe.end(nullptr, "dynamic.repair", "dynamic",
            {{"dirty", static_cast<double>(dirty_count)},
             {"augmentations",
              static_cast<double>(stats_.augmentations - augs_before)}});
}

int RepairDynamicMatcher::augment_from(NodeId u, int remaining) {
  stamp_[u] = stamp_cur_;
  // Length-1 endings first: a free neighbor completes the path.
  for (const Arc a : graph().neighbors(u)) {
    if (stamp_[a.to] == stamp_cur_) continue;
    if (is_free(a.to)) {
      raw_match(a.edge);
      return 1;
    }
  }
  if (remaining < 3) return -1;
  // Otherwise step unmatched edge -> matched vertex, release its mate,
  // and recurse from the mate with two fewer edges of budget.
  for (const Arc a : graph().neighbors(u)) {
    const NodeId x = a.to;
    if (stamp_[x] == stamp_cur_ || is_free(x)) continue;
    const EdgeId matched = matched_edge(x);
    const NodeId w = graph().other_endpoint(matched, x);
    if (stamp_[w] == stamp_cur_) continue;
    stamp_[x] = stamp_cur_;
    raw_unmatch(matched);
    const int tail = augment_from(w, remaining - 2);
    if (tail >= 0) {
      raw_match(a.edge);
      return tail + 2;
    }
    raw_match(matched);  // dead end: restore and keep scanning
  }
  return -1;
}

void RepairDynamicMatcher::rebuild_via_registry() {
  adopt_registry_solution(options_.rebuild, 1);
}

// ------------------------------------------------- ScratchRematchMatcher --

ScratchRematchMatcher::ScratchRematchMatcher(DynamicGraph g, std::string solver,
                                             std::uint64_t seed)
    : DynamicMatcher(std::move(g)), solver_(std::move(solver)), seed_(seed) {
  const api::MatchingSolver& s = api::SolverRegistry::global().at(solver_);
  if (s.capabilities().primitive || s.capabilities().weighted) {
    throw std::invalid_argument(
        "scratch: solver must be a cardinality matching solver");
  }
  resolve();
}

void ScratchRematchMatcher::on_insert(EdgeId /*e*/) { resolve(); }
void ScratchRematchMatcher::on_deleted(NodeId, NodeId, bool) { resolve(); }
void ScratchRematchMatcher::on_vertex_removed(NodeId, NodeId) { resolve(); }

void ScratchRematchMatcher::resolve() { adopt_registry_solution(solver_, seed_); }

// ----------------------------------------------------------- factory --

std::unique_ptr<DynamicMatcher> make_matcher(
    const std::string& name, DynamicGraph g,
    const std::map<std::string, std::string>& config) {
  const Args args("maintainer '" + name + "'", config);
  if (name == "greedy") {
    args.check_all_used();
    return std::make_unique<GreedyDynamicMatcher>(std::move(g));
  }
  if (name == "repair") {
    RepairDynamicMatcher::Options options;
    options.eps = args.get_double("eps", 0.2);
    options.interval = args.get_count("interval", 32, UINT64_MAX);
    options.rebuild = args.get("rebuild", "");
    options.rebuild_frac = args.get_double("rebuild_frac", 0.25);
    args.check_all_used();
    return std::make_unique<RepairDynamicMatcher>(std::move(g), options);
  }
  if (name == "scratch") {
    const std::string solver = args.get("solver", "greedy_mcm");
    const std::uint64_t seed = args.get_count("seed", 1, UINT64_MAX);
    args.check_all_used();
    return std::make_unique<ScratchRematchMatcher>(std::move(g), solver, seed);
  }
  throw std::invalid_argument("make_matcher: unknown maintainer '" + name +
                              "' (greedy | repair | scratch)");
}

}  // namespace lps::dynamic
