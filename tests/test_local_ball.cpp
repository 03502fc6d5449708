// Dedicated coverage for Algorithm 2's neighborhood exchange
// (core/local_ball): radius-0/1/k view contents against a BFS
// reference, matched-edge labeling, and pool-vs-sequential
// bit-identical views and stats. Previously only covered indirectly
// through the solvers that consume it.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <set>
#include <tuple>
#include <vector>

#include "core/local_ball.hpp"
#include "graph/generators.hpp"
#include "runtime/thread_pool.hpp"
#include "seq/greedy.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

std::vector<int> bfs_distances(const Graph& g, NodeId src) {
  std::vector<int> dist(g.num_nodes(), -1);
  std::queue<NodeId> queue;
  dist[src] = 0;
  queue.push(src);
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop();
    for (const Graph::Incidence& inc : g.neighbors(v)) {
      if (dist[inc.to] == -1) {
        dist[inc.to] = dist[v] + 1;
        queue.push(inc.to);
      }
    }
  }
  return dist;
}

using LabeledSet = std::set<std::tuple<NodeId, NodeId, bool>>;

LabeledSet as_set(const std::vector<LabeledEdge>& view) {
  LabeledSet out;
  for (const LabeledEdge& le : view) out.insert({le.u, le.v, le.matched});
  return out;
}

/// The contract from local_ball.hpp: after `radius` rounds, v's view is
/// every edge with an endpoint within distance `radius` of v, labeled
/// with its matched status.
LabeledSet expected_view(const Graph& g, const Matching& m, NodeId v,
                         int radius) {
  const std::vector<int> dist = bfs_distances(g, v);
  LabeledSet out;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    const int du = dist[ed.u];
    const int dv = dist[ed.v];
    if ((du != -1 && du <= radius) || (dv != -1 && dv <= radius)) {
      out.insert({ed.u, ed.v, m.contains(g, e)});
    }
  }
  return out;
}

void expect_views_match_reference(const Graph& g, const Matching& m,
                                  int radius) {
  const BallViews views = collect_balls(g, m, radius);
  ASSERT_EQ(views.view.size(), g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    // No duplicates in a view: the delta gossip dedups on arrival.
    EXPECT_EQ(as_set(views.view[v]).size(), views.view[v].size())
        << "radius " << radius << " node " << v;
    EXPECT_EQ(as_set(views.view[v]), expected_view(g, m, v, radius))
        << "radius " << radius << " node " << v;
  }
}

TEST(CollectBalls, RadiusZeroIsTheIncidentEdgeSetWithNoRounds) {
  Rng rng(5);
  const Graph g = erdos_renyi(30, 0.12, rng);
  const Matching m = greedy_mcm(g);
  const BallViews views = collect_balls(g, m, 0);
  EXPECT_EQ(views.stats.rounds, 0u);
  EXPECT_EQ(views.stats.messages, 0u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    LabeledSet incident;
    for (const Graph::Incidence& inc : g.neighbors(v)) {
      const Edge& ed = g.edge(inc.edge);
      incident.insert({ed.u, ed.v, m.contains(g, inc.edge)});
    }
    EXPECT_EQ(as_set(views.view[v]), incident) << v;
  }
}

TEST(CollectBalls, RadiusOneAndKMatchTheBfsReference) {
  Rng rng(7);
  const Graph g = erdos_renyi(40, 0.08, rng);
  const Matching m = greedy_mcm(g);
  for (const int radius : {1, 2, 3}) {
    expect_views_match_reference(g, m, radius);
  }
}

TEST(CollectBalls, PathEndpointSeesExactlyItsPrefix) {
  // On a path the ball content is easy to state exactly: the endpoint's
  // radius-r view is the first r+1 edges.
  const Graph g = path_graph(12);
  const Matching empty(12);
  for (const int radius : {0, 1, 4}) {
    const BallViews views = collect_balls(g, empty, radius);
    EXPECT_EQ(views.view[0].size(),
              std::min<std::size_t>(radius + 1, g.num_edges()))
        << radius;
  }
}

TEST(CollectBalls, DiameterRadiusCoversTheWholeComponent) {
  const Graph g = cycle_graph(12);  // diameter 6
  const Matching m = greedy_mcm(g);
  const BallViews views = collect_balls(g, m, 6);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(views.view[v].size(), g.num_edges()) << v;
  }
}

TEST(CollectBalls, MatchedLabelsReflectTheCollectionTimeMatching) {
  Rng rng(11);
  const Graph g = erdos_renyi(24, 0.2, rng);
  const Matching m = greedy_mcm(g);
  const BallViews views = collect_balls(g, m, 2);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const LabeledEdge& le : views.view[v]) {
      const EdgeId e = g.find_edge(le.u, le.v);
      ASSERT_NE(e, kInvalidEdge);
      EXPECT_EQ(le.matched, m.contains(g, e));
    }
  }
}

TEST(CollectBalls, PoolAndSequentialAreBitIdentical) {
  Rng rng(13);
  const Graph g = erdos_renyi(60, 0.07, rng);
  const Matching m = greedy_mcm(g);
  ThreadPool pool(4);
  for (const int radius : {1, 3}) {
    const BallViews seq = collect_balls(g, m, radius);
    const BallViews par = collect_balls(g, m, radius, {.pool = &pool});
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(seq.view[v].size(), par.view[v].size()) << v;
      for (std::size_t i = 0; i < seq.view[v].size(); ++i) {
        EXPECT_EQ(seq.view[v][i].u, par.view[v][i].u);
        EXPECT_EQ(seq.view[v][i].v, par.view[v][i].v);
        EXPECT_EQ(seq.view[v][i].matched, par.view[v][i].matched);
      }
    }
    EXPECT_EQ(seq.stats.rounds, par.stats.rounds) << radius;
    EXPECT_EQ(seq.stats.messages, par.stats.messages) << radius;
    EXPECT_EQ(seq.stats.total_bits, par.stats.total_bits) << radius;
    EXPECT_EQ(seq.stats.max_message_bits, par.stats.max_message_bits)
        << radius;
  }
}

}  // namespace
}  // namespace lps
