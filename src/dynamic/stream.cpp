#include "dynamic/stream.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "dynamic/matcher.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

namespace lps::dynamic {

const char* to_string(UpdateKind k) {
  switch (k) {
    case UpdateKind::kInsertEdge: return "insert_edge";
    case UpdateKind::kDeleteEdge: return "delete_edge";
    case UpdateKind::kAddVertex: return "add_vertex";
    case UpdateKind::kRemoveVertex: return "remove_vertex";
    case UpdateKind::kSetWeight: return "set_weight";
    case UpdateKind::kReviveVertex: return "revive_vertex";
  }
  return "?";
}

namespace {

std::uint64_t pair_key(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// Generator-side mirror of the graph a consumer will reconstruct from
/// the trace: guarantees every emitted update is applicable (inserts of
/// absent edges between live vertices, deletes of live edges) and
/// supports the uniform random picks the families need.
class Shadow {
 public:
  explicit Shadow(NodeId n) : g_(n) {
    live_nodes_.reserve(n);
    node_pos_.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
      node_pos_.push_back(live_nodes_.size());
      live_nodes_.push_back(v);
    }
  }

  const DynamicGraph& graph() const { return g_; }
  std::size_t live_edge_count() const { return live_.size(); }
  std::size_t live_node_count() const { return live_nodes_.size(); }

  NodeId random_live_node(Rng& rng) const {
    return live_nodes_[rng.below(live_nodes_.size())];
  }

  Edge random_live_edge(Rng& rng) const {
    return live_[rng.below(live_.size())];
  }

  /// Uniformly random absent edge between live vertices, or nullopt
  /// when `attempts` rejection draws all collide (dense graph).
  std::optional<Edge> random_absent_edge(Rng& rng, int attempts = 64) const {
    if (live_nodes_.size() < 2) return std::nullopt;
    for (int i = 0; i < attempts; ++i) {
      const NodeId u = random_live_node(rng);
      const NodeId v = random_live_node(rng);
      if (u == v || g_.find_edge(u, v) != kInvalidEdge) continue;
      return Edge{std::min(u, v), std::max(u, v)};
    }
    return std::nullopt;
  }

  void insert(NodeId u, NodeId v, double w) {
    g_.insert_edge(u, v, w);
    index_[pair_key(u, v)] = live_.size();
    live_.push_back({std::min(u, v), std::max(u, v)});
  }

  void erase(NodeId u, NodeId v) {
    g_.delete_edge(g_.find_edge(u, v));
    drop_from_live(u, v);
  }

  NodeId add_vertex() {
    const NodeId v = g_.add_vertex();
    node_pos_.push_back(live_nodes_.size());
    live_nodes_.push_back(v);
    return v;
  }

  /// Removes the vertex; returns its former incident edges (the trace
  /// consumer implicitly deletes them too, so the shadow must).
  std::vector<Edge> remove_vertex(NodeId v) {
    std::vector<Edge> incident;
    for (const Arc a : g_.neighbors(v)) {
      incident.push_back({std::min(v, a.to), std::max(v, a.to)});
    }
    g_.remove_vertex(v);
    for (const Edge& e : incident) drop_from_live(e.u, e.v);
    // Swap-with-back through the position index (same O(1) scheme as
    // drop_from_live uses for edges).
    const std::size_t pos = node_pos_[v];
    live_nodes_[pos] = live_nodes_.back();
    node_pos_[live_nodes_[pos]] = pos;
    live_nodes_.pop_back();
    return incident;
  }

 private:
  void drop_from_live(NodeId u, NodeId v) {
    const auto it = index_.find(pair_key(u, v));
    const std::size_t pos = it->second;
    index_.erase(it);
    if (pos + 1 != live_.size()) {
      live_[pos] = live_.back();
      index_[pair_key(live_[pos].u, live_[pos].v)] = pos;
    }
    live_.pop_back();
  }

  DynamicGraph g_;
  std::vector<Edge> live_;                            // live edges, unordered
  std::unordered_map<std::uint64_t, std::size_t> index_;  // key -> live_ pos
  std::vector<NodeId> live_nodes_;
  std::vector<std::size_t> node_pos_;  // node id -> live_nodes_ position
};

struct WeightModel {
  double lo = 1.0;
  double hi = 1.0;
  double draw(Rng& rng) const {
    return lo == hi ? lo : lo + (hi - lo) * rng.uniform01();
  }
};

/// A vertex count that fits the 32-bit node ids.
NodeId node_count(const Args& args, const char* key) {
  return static_cast<NodeId>(args.require_count(key, kInvalidNode - 1));
}

/// Bound on m0, updates and window, so that m0 + updates cannot wrap.
constexpr std::uint64_t kMaxLength = kInvalidEdge - 1;

WeightModel weight_model(const Args& args) {
  WeightModel w;
  w.lo = args.get_double("wlo", 1.0);
  w.hi = args.get_double("whi", w.lo);
  if (!(w.lo > 0.0) || w.hi < w.lo) {
    throw std::invalid_argument("update stream: need 0 < wlo <= whi");
  }
  return w;
}

void emit_insert(StreamSpec& out, Shadow& shadow, NodeId u, NodeId v,
                 double w) {
  shadow.insert(u, v, w);
  out.trace.push_back({UpdateKind::kInsertEdge, std::min(u, v),
                       std::max(u, v), w});
}

void emit_delete(StreamSpec& out, Shadow& shadow, NodeId u, NodeId v) {
  shadow.erase(u, v);
  out.trace.push_back(
      {UpdateKind::kDeleteEdge, std::min(u, v), std::max(u, v), 1.0});
}

/// `m0` initial inserts shared by churn/adversarial.
void build_initial(StreamSpec& out, Shadow& shadow, std::uint64_t m0,
                   const WeightModel& w, Rng& rng) {
  for (std::uint64_t i = 0; i < m0; ++i) {
    const auto e = shadow.random_absent_edge(rng);
    if (!e.has_value()) {
      throw std::invalid_argument(
          "update stream: m0 too dense for the vertex count");
    }
    emit_insert(out, shadow, e->u, e->v, w.draw(rng));
  }
}

StreamSpec churn_stream(const Args& args, Rng& rng) {
  const NodeId n = node_count(args, "n");
  const std::uint64_t m0 = args.get_count("m0", 0, kMaxLength);
  const std::uint64_t updates = args.require_count("updates", kMaxLength);
  const double insert_frac = args.get_double("insert", 0.5);
  const double vertex_frac = args.get_double("vertex", 0.0);
  const double reweight_frac = args.get_double("reweight", 0.0);
  const WeightModel w = weight_model(args);
  args.check_all_used();
  if (n < 2) throw std::invalid_argument("churn: need n >= 2");

  StreamSpec out;
  out.initial_nodes = n;
  out.trace.reserve(m0 + updates);
  Shadow shadow(n);
  build_initial(out, shadow, m0, w, rng);
  out.bootstrap = out.trace.size();
  for (std::uint64_t i = 0; i < updates; ++i) {
    const double roll = rng.uniform01();
    if (roll < vertex_frac) {
      // Split vertex ops evenly between add and remove; removals keep a
      // floor of live vertices so edge ops stay feasible.
      if (rng.coin() || shadow.live_node_count() <= std::max<NodeId>(4, n / 4)) {
        shadow.add_vertex();
        out.trace.push_back({UpdateKind::kAddVertex});
      } else {
        const NodeId v = shadow.random_live_node(rng);
        shadow.remove_vertex(v);
        out.trace.push_back({UpdateKind::kRemoveVertex, v});
      }
      continue;
    }
    if (roll < vertex_frac + reweight_frac && shadow.live_edge_count() > 0) {
      const Edge e = shadow.random_live_edge(rng);
      out.trace.push_back({UpdateKind::kSetWeight, e.u, e.v, w.draw(rng)});
      continue;
    }
    const bool do_insert =
        shadow.live_edge_count() == 0 || rng.uniform01() < insert_frac;
    if (do_insert) {
      const auto e = shadow.random_absent_edge(rng);
      if (e.has_value()) {
        emit_insert(out, shadow, e->u, e->v, w.draw(rng));
        continue;
      }
      // Graph saturated: fall through to a delete.
    }
    const Edge e = shadow.random_live_edge(rng);
    emit_delete(out, shadow, e.u, e.v);
  }
  return out;
}

StreamSpec window_stream(const Args& args, Rng& rng) {
  const NodeId n = node_count(args, "n");
  const std::uint64_t updates = args.require_count("updates", kMaxLength);
  const std::uint64_t window = args.require_count("window", kMaxLength);
  const WeightModel w = weight_model(args);
  args.check_all_used();
  if (n < 2 || window == 0) {
    throw std::invalid_argument("window: need n >= 2 and window >= 1");
  }
  StreamSpec out;
  out.initial_nodes = n;
  Shadow shadow(n);
  std::deque<Edge> fifo;
  for (std::uint64_t i = 0; i < updates; ++i) {
    const auto e = shadow.random_absent_edge(rng);
    if (e.has_value()) {
      emit_insert(out, shadow, e->u, e->v, w.draw(rng));
      fifo.push_back(*e);
    }
    while (fifo.size() > window) {
      const Edge old = fifo.front();
      fifo.pop_front();
      emit_delete(out, shadow, old.u, old.v);
    }
  }
  return out;
}

StreamSpec pa_stream(const Args& args, Rng& rng) {
  const NodeId n0 = node_count(args, "n0");
  const std::uint64_t updates = args.require_count("updates", kMaxLength);
  const int attach = static_cast<int>(
      args.get_count("attach", 2, std::numeric_limits<int>::max()));
  const WeightModel w = weight_model(args);
  args.check_all_used();
  if (n0 < 2 || attach < 1) {
    throw std::invalid_argument("pa: need n0 >= 2 and attach >= 1");
  }
  StreamSpec out;
  out.initial_nodes = n0;
  Shadow shadow(n0);
  // Endpoint pool for degree+1-proportional sampling: every vertex once
  // (the +1 smoothing) plus each edge endpoint once per incidence.
  std::vector<NodeId> pool;
  for (NodeId v = 0; v < n0; ++v) pool.push_back(v);
  for (std::uint64_t i = 0; i < updates; ++i) {
    const NodeId v = shadow.add_vertex();
    out.trace.push_back({UpdateKind::kAddVertex});
    pool.push_back(v);
    for (int a = 0; a < attach; ++a) {
      NodeId target = kInvalidNode;
      for (int tries = 0; tries < 32; ++tries) {
        const NodeId cand = pool[rng.below(pool.size())];
        if (cand != v && shadow.graph().node_alive(cand) &&
            shadow.graph().find_edge(v, cand) == kInvalidEdge) {
          target = cand;
          break;
        }
      }
      if (target == kInvalidNode) continue;
      emit_insert(out, shadow, v, target, w.draw(rng));
      pool.push_back(v);
      pool.push_back(target);
    }
  }
  return out;
}

StreamSpec adversarial_stream(const Args& args, Rng& rng) {
  const NodeId n = node_count(args, "n");
  const std::uint64_t m0 = args.get_count("m0", 0, kMaxLength);
  const std::uint64_t updates = args.require_count("updates", kMaxLength);
  const double insert_frac = args.get_double("insert", 0.5);
  const WeightModel w = weight_model(args);
  args.check_all_used();
  if (n < 2) throw std::invalid_argument("adversarial: need n >= 2");

  StreamSpec out;
  out.initial_nodes = n;
  Shadow shadow(n);
  // The adversary watches a shadow greedy maintainer and aims every
  // delete at an edge the maintainer currently has matched — the move
  // that forces an O(deg) repair, and repeated, the worst case for
  // recourse. (Maintainers under test are seeded identically, so the
  // greedy one really does hold these edges when the delete lands.)
  GreedyDynamicMatcher victim{DynamicGraph(n)};
  const auto forward = [&](const Update& up) { victim.apply(up); };
  build_initial(out, shadow, m0, w, rng);
  out.bootstrap = out.trace.size();
  for (std::size_t i = 0; i < out.trace.size(); ++i) forward(out.trace[i]);
  for (std::uint64_t i = 0; i < updates; ++i) {
    const bool do_insert =
        shadow.live_edge_count() == 0 || rng.uniform01() < insert_frac;
    if (do_insert) {
      const auto e = shadow.random_absent_edge(rng);
      if (e.has_value()) {
        emit_insert(out, shadow, e->u, e->v, w.draw(rng));
        forward(out.trace.back());
        continue;
      }
    }
    // Pick a matched victim edge by rejection over random live vertices;
    // fall back to any live edge when the matching is tiny.
    Edge target = shadow.random_live_edge(rng);
    for (int tries = 0; tries < 32; ++tries) {
      const NodeId v = shadow.random_live_node(rng);
      if (!victim.is_free(v)) {
        const Edge ed = victim.graph().edge(victim.matched_edge(v));
        target = ed;
        break;
      }
    }
    emit_delete(out, shadow, target.u, target.v);
    forward(out.trace.back());
  }
  return out;
}

}  // namespace

StreamSpec make_update_stream(const std::string& spec, std::uint64_t seed) {
  const auto colon = spec.find(':');
  const std::string family = spec.substr(0, colon);
  const std::string kv =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  const Args args("update stream '" + family + "'", kv);
  Rng rng(seed);
  if (family == "churn") return churn_stream(args, rng);
  if (family == "window") return window_stream(args, rng);
  if (family == "pa") return pa_stream(args, rng);
  if (family == "adversarial") return adversarial_stream(args, rng);
  throw std::invalid_argument("unknown update stream family '" + family +
                              "' in spec '" + spec +
                              "' (churn | window | pa | adversarial)");
}

}  // namespace lps::dynamic
