// Tests for the synchronous message-passing runtime: delivery semantics
// (the model of the paper's Section 2), channel exclusivity, bit
// metering, determinism, thread-pool equivalence, the epoch-stamped
// mailbox / active-set scheduler introduced in DESIGN.md §9, and the
// set-up lifecycle of DESIGN.md §11 (linear slot pass, reset(seed)).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <sstream>
#include <tuple>

#include "core/israeli_itai.hpp"
#include "faults/injector.hpp"
#include "graph/generators.hpp"
#include "runtime/engine.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_reader.hpp"
#include "util/rng.hpp"

namespace lps {

/// Moves a network's epoch base, so the stamp re-fill at the 32-bit wrap
/// runs within a few rounds instead of 2^32.
struct SyncNetworkTestAccess {
  template <typename Net>
  static void set_epoch(Net& net, std::uint32_t epoch) {
    net.epoch_base_ = epoch - static_cast<std::uint32_t>(net.round_);
  }
  template <typename Net>
  static std::uint32_t epoch(const Net& net) {
    return net.epoch();
  }
};

namespace {

struct IntMsg {
  int value;
};

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(0, 100, 9, [&](std::size_t b, std::size_t e) {
      std::size_t local = 0;
      for (std::size_t i = b; i < e; ++i) local += i;
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  int counter = 0;
  pool.parallel_for(0, 10, 3, [&](std::size_t b, std::size_t e) {
    counter += static_cast<int>(e - b);
  });
  EXPECT_EQ(counter, 10);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { FAIL(); });
}

TEST(SyncNetwork, OneRoundDeliveryDelay) {
  Graph g = path_graph(2);
  SyncNetwork<IntMsg> net(g, 1);
  std::vector<int> received_at_round(2, -1);
  auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
    if (ctx.round() == 0 && ctx.id() == 0) {
      ctx.send(0, IntMsg{42});
    }
    for (const auto& in : ctx.inbox()) {
      EXPECT_EQ(in.payload->value, 42);
      EXPECT_EQ(in.from, 0u);
      received_at_round[ctx.id()] = static_cast<int>(ctx.round());
    }
  };
  net.run_round(step);
  EXPECT_EQ(received_at_round[1], -1);  // not yet delivered
  net.run_round(step);
  EXPECT_EQ(received_at_round[1], 1);  // delivered exactly one round later
  EXPECT_EQ(received_at_round[0], -1);  // sender got nothing
}

TEST(SyncNetwork, DoubleSendOnChannelThrows) {
  Graph g = path_graph(2);
  SyncNetwork<IntMsg> net(g, 1);
  auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
    if (ctx.id() == 0) {
      ctx.send(0, IntMsg{1});
      EXPECT_THROW(ctx.send(0, IntMsg{2}), std::logic_error);
    }
  };
  net.run_round(step);
}

TEST(SyncNetwork, NonEndpointSendThrows) {
  Graph g = path_graph(3);  // edges 0:0-1, 1:1-2
  SyncNetwork<IntMsg> net(g, 1);
  auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
    if (ctx.id() == 0) {
      EXPECT_THROW(ctx.send(1, IntMsg{1}), std::logic_error);
    }
  };
  net.run_round(step);
}

TEST(SyncNetwork, OppositeDirectionsShareEdgeFine) {
  Graph g = path_graph(2);
  SyncNetwork<IntMsg> net(g, 1);
  int delivered = 0;
  auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
    if (ctx.round() == 0) ctx.send(0, IntMsg{static_cast<int>(ctx.id())});
    for (const auto& in : ctx.inbox()) {
      ++delivered;
      EXPECT_EQ(in.payload->value, static_cast<int>(in.from));
    }
  };
  net.run_round(step);
  net.run_round(step);
  EXPECT_EQ(delivered, 2);
}

TEST(SyncNetwork, BitMeteringAndStats) {
  Graph g = star_graph(5);
  auto meter = [](const IntMsg& m) {
    return static_cast<std::uint64_t>(m.value);
  };
  SyncNetwork<IntMsg> net(g, 1, meter);
  auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
    if (ctx.round() == 0 && ctx.id() == 0) {
      int bits = 10;
      for (const auto& inc : ctx.graph().neighbors(0)) {
        ctx.send(inc.edge, IntMsg{bits});
        bits += 10;
      }
    }
  };
  net.run_round(step);
  EXPECT_EQ(net.stats().rounds, 1u);
  EXPECT_EQ(net.stats().messages, 4u);
  EXPECT_EQ(net.stats().total_bits, 10u + 20 + 30 + 40);
  EXPECT_EQ(net.stats().max_message_bits, 40u);
}

TEST(SyncNetwork, RunStopsWhenSilent) {
  Graph g = path_graph(4);
  SyncNetwork<IntMsg> net(g, 1);
  // A wave: node 0 sends once; everyone forwards right, then silence.
  auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
    if (ctx.round() == 0 && ctx.id() == 0) {
      ctx.send(0, IntMsg{1});
      return;
    }
    for (const auto& in : ctx.inbox()) {
      for (const auto& inc : ctx.graph().neighbors(ctx.id())) {
        if (inc.to > ctx.id()) ctx.send(inc.edge, IntMsg{in.payload->value});
      }
    }
  };
  const std::uint64_t rounds = net.run(100, /*stop_when_silent=*/true, step);
  // Wave takes 3 hops (0->1,1->2,2->3), then one silent round detection.
  EXPECT_LE(rounds, 5u);
  EXPECT_GE(rounds, 3u);
}

TEST(SyncNetwork, RngSubstreamsIndependentOfExecutionOrder) {
  // The per-(node, round) substream must not depend on which nodes ran
  // first; we capture draws across two runs and compare.
  Graph g = complete_graph(6);
  std::vector<std::uint64_t> draws_a(6), draws_b(6);
  {
    SyncNetwork<IntMsg> net(g, 99);
    net.run_round([&](SyncNetwork<IntMsg>::Ctx& ctx) {
      draws_a[ctx.id()] = ctx.rng()();
    });
  }
  {
    SyncNetwork<IntMsg> net(g, 99);
    net.run_round([&](SyncNetwork<IntMsg>::Ctx& ctx) {
      draws_b[ctx.id()] = ctx.rng()();
    });
  }
  EXPECT_EQ(draws_a, draws_b);
  // Different rounds give different draws.
  SyncNetwork<IntMsg> net(g, 99);
  std::vector<std::uint64_t> round0(6), round1(6);
  net.run_round([&](SyncNetwork<IntMsg>::Ctx& ctx) {
    round0[ctx.id()] = ctx.rng()();
  });
  net.run_round([&](SyncNetwork<IntMsg>::Ctx& ctx) {
    round1[ctx.id()] = ctx.rng()();
  });
  EXPECT_NE(round0, round1);
}

TEST(SyncNetwork, ParallelEqualsSequential) {
  // A small gossip protocol; node states must match across thread counts.
  Rng rng(17);
  Graph g = erdos_renyi(120, 0.05, rng);
  auto run_with = [&](ThreadPool* pool) {
    std::vector<std::uint64_t> state(g.num_nodes(), 0);
    SyncNetwork<IntMsg> net(g, 5, {}, {.pool = pool});
    auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
      const NodeId v = ctx.id();
      for (const auto& in : ctx.inbox()) {
        state[v] = state[v] * 31 + static_cast<std::uint64_t>(
                                       in.payload->value);
      }
      const int draw = static_cast<int>(ctx.rng().below(1000));
      state[v] += static_cast<std::uint64_t>(draw);
      if (ctx.round() < 6) {
        for (const auto& inc : ctx.graph().neighbors(v)) {
          if ((draw + inc.to) % 3 == 0) ctx.send(inc.edge, IntMsg{draw});
        }
      }
    };
    for (int r = 0; r < 8; ++r) net.run_round(step);
    return std::make_pair(state, net.stats());
  };
  const auto [seq_state, seq_stats] = run_with(nullptr);
  ThreadPool pool(4);
  const auto [par_state, par_stats] = run_with(&pool);
  EXPECT_EQ(seq_state, par_state);
  EXPECT_EQ(seq_stats.messages, par_stats.messages);
  EXPECT_EQ(seq_stats.total_bits, par_stats.total_bits);
  EXPECT_EQ(seq_stats.max_message_bits, par_stats.max_message_bits);
}

TEST(SyncNetwork, InFlightMessagesSurviveSilentSenders) {
  // stop_when_silent must not cut off messages already in flight: the
  // engine stops only after a round in which nothing was sent, by which
  // time everything previously sent has been delivered.
  Graph g = path_graph(5);
  SyncNetwork<IntMsg> net(g, 1);
  std::vector<int> got(5, -1);
  auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
    for (const auto& in : ctx.inbox()) {
      got[ctx.id()] = in.payload->value;
      // Forward right with the hop count; the original sender stays
      // silent from round 1 on, so there is always exactly one message
      // in flight until the wave hits node 4.
      for (const auto& inc : ctx.graph().neighbors(ctx.id())) {
        if (inc.to > ctx.id()) {
          ctx.send(inc.edge, IntMsg{in.payload->value + 1});
        }
      }
    }
    if (ctx.round() == 0 && ctx.id() == 0) ctx.send(0, IntMsg{1});
  };
  const std::uint64_t rounds = net.run(100, /*stop_when_silent=*/true, step);
  EXPECT_EQ(got[1], 1);
  EXPECT_EQ(got[2], 2);
  EXPECT_EQ(got[3], 3);
  EXPECT_EQ(got[4], 4);  // the last in-flight hop was delivered, not dropped
  EXPECT_EQ(rounds, 5u);  // 4 forwarding rounds + 1 silent detection round
  EXPECT_EQ(net.stats().messages, 4u);
}

TEST(SyncNetwork, InboxIsInIncidenceOrder) {
  // The mailbox's counting-sort delivery must present each inbox in the
  // receiver's incidence order — the invariant protocols and the lca
  // re-executor rely on for RNG-draw determinism.
  Rng rng(3);
  Graph g = erdos_renyi(40, 0.3, rng);
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SyncNetwork<IntMsg> net(g, 1, {}, {.pool = p});
    auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
      if (ctx.round() == 0) {
        ctx.send_all(IntMsg{static_cast<int>(ctx.id())});
        return;
      }
      const auto nbrs = ctx.graph().neighbors(ctx.id());
      ASSERT_EQ(ctx.inbox().size(), nbrs.size());
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        EXPECT_EQ(ctx.inbox()[i].from, nbrs[i].to);
        EXPECT_EQ(ctx.inbox()[i].edge, nbrs[i].edge);
      }
    };
    net.run_round(step);
    net.run_round(step);
  }
}

TEST(SyncNetwork, ActiveSetStepsOnlyReceiversKeepersAndActivated) {
  Graph g = path_graph(6);
  SyncNetwork<IntMsg> net(g, 1);
  net.restrict_initial_active();
  net.activate(2);
  std::vector<int> steps(6, 0);
  auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
    ++steps[ctx.id()];
    if (ctx.round() == 0) {
      // Node 2 messages its right neighbor and keeps itself alive.
      ctx.send(ctx.graph().find_edge(2, 3), IntMsg{7});
      ctx.keep_active();
    }
  };
  net.run_round(step);
  EXPECT_EQ(net.last_round_stepped(), 1u);  // only the activated node
  EXPECT_EQ(steps, (std::vector<int>{0, 0, 1, 0, 0, 0}));
  net.run_round(step);
  // Round 1: receiver (3) plus the keep_active caller (2), nobody else.
  EXPECT_EQ(net.last_round_stepped(), 2u);
  EXPECT_EQ(steps, (std::vector<int>{0, 0, 2, 1, 0, 0}));
  net.run_round(step);
  EXPECT_EQ(net.last_round_stepped(), 0u);  // everyone went dormant
}

TEST(SyncNetwork, StepAllNodesRestoresFullSweep) {
  Graph g = path_graph(6);
  SyncNetwork<IntMsg> net(g, 1);
  net.step_all_nodes();
  int stepped = 0;
  auto step = [&](SyncNetwork<IntMsg>::Ctx&) { ++stepped; };
  net.run_round(step);
  net.run_round(step);
  EXPECT_EQ(stepped, 12);
  EXPECT_EQ(net.last_round_stepped(), 6u);
}

TEST(SyncNetwork, KeepActiveForKRounds) {
  // keep_active(k) wakes the caller k rounds later and not in between;
  // reset() drops wakes still due; under step_all_nodes() the call is a
  // no-op; k outside [1, kMaxWakeDelay] throws.
  using Net = SyncNetwork<IntMsg>;
  Graph g = path_graph(6);
  std::vector<int> steps(6, 0);
  auto wake_2_in = [&](unsigned k) {
    return [&steps, k](Net::Ctx& ctx) {
      ++steps[ctx.id()];
      if (ctx.round() == 0 && ctx.id() == 2) ctx.keep_active(k);
    };
  };
  for (const unsigned k : {1u, 3u, Net::kMaxWakeDelay}) {
    SCOPED_TRACE(testing::Message() << "k " << k);
    Net net(g, 1);
    net.restrict_initial_active();
    net.activate(2);
    std::fill(steps.begin(), steps.end(), 0);
    for (unsigned r = 0; r <= Net::kMaxWakeDelay + 1; ++r) {
      net.run_round(wake_2_in(k));
      EXPECT_EQ(net.last_round_stepped(), r == 0 || r == k ? 1u : 0u)
          << "round " << r;
    }
    EXPECT_EQ(steps, (std::vector<int>{0, 0, 2, 0, 0, 0}));
  }

  // A wake still due when reset() runs is dropped.
  Net reused(g, 1);
  reused.restrict_initial_active();
  reused.activate(2);
  reused.run_round(wake_2_in(3));
  reused.reset(1);
  reused.restrict_initial_active();
  for (int r = 0; r < 5; ++r) {
    reused.run_round([](Net::Ctx&) {});
    EXPECT_EQ(reused.last_round_stepped(), 0u) << "round " << r;
  }

  // Under step_all_nodes() nothing is staged: once the network returns
  // to active-set scheduling, the wake asked for in round 0 is absent.
  Net all(g, 1);
  all.step_all_nodes();
  all.run_round(wake_2_in(3));
  EXPECT_EQ(all.last_round_stepped(), 6u);
  all.step_all_nodes(false);
  for (int r = 1; r < 5; ++r) {
    all.run_round([](Net::Ctx&) {});
    EXPECT_EQ(all.last_round_stepped(), 0u) << "round " << r;
  }

  for (const unsigned bad : {0u, Net::kMaxWakeDelay + 1}) {
    Net net(g, 1);
    EXPECT_THROW(net.run_round([bad](Net::Ctx& ctx) { ctx.keep_active(bad); }),
                 std::logic_error)
        << "k " << bad;
  }
}

void expect_same_run(const Graph& g, const DistMatchingResult& a,
                     const DistMatchingResult& b) {
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.resyncs, b.resyncs);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.total_bits, b.stats.total_bits);
  EXPECT_EQ(a.stats.max_message_bits, b.stats.max_message_bits);
  ASSERT_EQ(a.matching.num_nodes(), b.matching.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(a.matching.matched_edge(v), b.matching.matched_edge(v)) << v;
  }
}

/// About a quarter of g's edges, chosen by `salt`.
std::vector<char> sparse_mask(const Graph& g, std::uint64_t salt) {
  std::vector<char> mask(g.num_edges(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    mask[e] = (splitmix64(salt ^ e) & 3) == 0 ? 1 : 0;
  }
  return mask;
}

/// A greedy matching over every fifth edge.
Matching partial_matching(const Graph& g) {
  std::vector<char> used(g.num_nodes(), 0);
  std::vector<EdgeId> ids;
  for (EdgeId e = 0; e < g.num_edges(); e += 5) {
    const Edge& ed = g.edge(e);
    if (used[ed.u] || used[ed.v]) continue;
    used[ed.u] = used[ed.v] = 1;
    ids.push_back(e);
  }
  return Matching::from_edges(g, ids);
}

TEST(SyncNetwork, ActiveSetMatchesStepAllOnIsraeliItai) {
  // israeli_itai wakes every node for every round in which it could act
  // without mail, so active-set scheduling must reproduce the
  // step-everything execution bit for bit: same matching, same rounds,
  // same message/bit meters. A subgraph run also restricts round 0 to
  // the active edges' endpoints; that must not change the execution
  // either, with or without an initial matching. The 4096-vertex leg
  // runs on a 2-thread pool over several shards, where each shard's
  // active set is assembled by its own delivery task.
  ThreadPool pool(2);
  ASSERT_GE(plan_shards(4096, 4).count, 2u);
  const ExecContext sequential;
  const ExecContext sharded{.pool = &pool, .shards = 4};
  for (const NodeId n : {NodeId{400}, NodeId{4096}}) {
    SCOPED_TRACE(testing::Message() << "n " << n);
    Rng rng(21);
    const Graph g = erdos_renyi(n, 8.0 / n, rng);
    IsraeliItaiOptions whole;
    whole.seed = 5;
    whole.exec = n == 400 ? sequential : sharded;
    IsraeliItaiOptions masked = whole;
    masked.active_edges = sparse_mask(g, 77);
    IsraeliItaiOptions masked_from_initial = masked;
    masked_from_initial.initial = partial_matching(g);
    ASSERT_GT(masked_from_initial.initial->size(), 0u);
    for (const IsraeliItaiOptions& active :
         {whole, masked, masked_from_initial}) {
      IsraeliItaiOptions all = active;
      all.step_all_nodes = true;
      expect_same_run(g, israeli_itai(g, active), israeli_itai(g, all));
    }
  }
}

TEST(IsraeliItai, StepsOnlyNodesThatCanAct) {
  // The work the active set saves, as a count that repeats exactly: the
  // nodes stepped over a whole solve on a fixed instance (the sum of the
  // engine.step spans' `stepped` argument). Stages 1 and 2 step only
  // receivers, and a free node with a candidate sleeps from one stage 0
  // to the next. Stepping every free node in every stage took 31,523.
  Rng rng(61);
  const Graph g = erdos_renyi(4096, 4.0 / 4096, rng);
  IsraeliItaiOptions opts;
  opts.seed = 3;
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  tracer.reset();
  tracer.set_recording(true);
  const DistMatchingResult run = israeli_itai(g, opts);
  tracer.set_recording(false);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  tracer.reset();
  telemetry::TraceDoc doc;
  std::string error;
  ASSERT_TRUE(telemetry::load_chrome_trace(os.str(), doc, &error)) << error;
  std::uint64_t rounds = 0;
  double stepped = 0;
  for (const telemetry::TraceSpan& s : doc.spans) {
    if (s.name != "engine.step") continue;
    ++rounds;
    stepped += s.args.at("stepped");
  }
  EXPECT_TRUE(run.converged);
  EXPECT_EQ(rounds, run.stats.rounds);
  EXPECT_EQ(static_cast<std::uint64_t>(stepped), 23589u);
}

TEST(IsraeliItai, InitialMatchingEqualsMaskingItsVertices) {
  // Initially matched vertices never act, and their neighbors must see
  // them as taken from round 0 on. So a run from matching M equals a
  // run without M over the edges between M-free vertices: same draws,
  // same announcements (sent on every incident edge either way), and
  // the same matching once M is added back.
  Rng rng(51);
  const Graph g = erdos_renyi(500, 6.0 / 500, rng);
  IsraeliItaiOptions from_initial;
  from_initial.seed = 8;
  from_initial.initial = partial_matching(g);
  IsraeliItaiOptions masked;
  masked.seed = 8;
  masked.active_edges.assign(g.num_edges(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    masked.active_edges[e] = from_initial.initial->is_free(ed.u) &&
                             from_initial.initial->is_free(ed.v);
  }
  const DistMatchingResult a = israeli_itai(g, from_initial);
  const DistMatchingResult b = israeli_itai(g, masked);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.total_bits, b.stats.total_bits);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const EdgeId expect = from_initial.initial->is_free(v)
                              ? b.matching.matched_edge(v)
                              : from_initial.initial->matched_edge(v);
    EXPECT_EQ(a.matching.matched_edge(v), expect) << v;
  }
}

TEST(IsraeliItaiRunner, ReuseMatchesFreshRuns) {
  // One runner, one network, many runs: each must equal a fresh
  // israeli_itai on the same options — across masks, seeds, an initial
  // matching, and a faulted run whose injector and held-back messages
  // must not leak into the fault-free run after it. Runners are built
  // on a pool under several shard plans (shards are at least 1024
  // vertices wide, so n = 3000 gives a network up to 3 of them); the
  // fresh runs are sequential on the auto plan.
  Rng rng(41);
  const Graph g = erdos_renyi(3000, 6.0 / 3000, rng);
  ThreadPool pool(4);
  std::vector<IsraeliItaiOptions> runs(6);
  runs[0].active_edges = sparse_mask(g, 1);
  runs[1].active_edges = sparse_mask(g, 2);
  runs[2].initial = partial_matching(g);
  runs[3].active_edges = sparse_mask(g, 3);
  runs[3].faults = "drop10";
  runs[4].active_edges = runs[3].active_edges;
  runs[5].active_edges = sparse_mask(g, 4);
  runs[5].initial = partial_matching(g);
  for (const unsigned shards : {0u, 4u, 2u}) {
    IsraeliItaiRunner runner(g, {.pool = &pool, .shards = shards});
    for (std::size_t i = 0; i < runs.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "shards " << shards << " run " << i);
      runs[i].seed = 100 + i;
      const DistMatchingResult reused = runner.run(runs[i]);
      expect_same_run(g, reused, israeli_itai(g, runs[i]));
    }
  }
}

TEST(SyncNetwork, PoolBitIdenticalToSequentialAt8Threads) {
  // Active-set execution with per-worker send lists and stat slots must
  // stay a pure function of the seed across thread counts.
  Rng rng(31);
  Graph g = erdos_renyi(500, 0.02, rng);
  auto run_with = [&](ThreadPool* pool) {
    std::vector<std::uint64_t> state(g.num_nodes(), 0);
    SyncNetwork<IntMsg> net(g, 12, {}, {.pool = pool});
    auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
      const NodeId v = ctx.id();
      for (const auto& in : ctx.inbox()) {
        state[v] = state[v] * 31 +
                   static_cast<std::uint64_t>(in.payload->value);
      }
      const int draw = static_cast<int>(ctx.rng().below(1000));
      state[v] += static_cast<std::uint64_t>(draw);
      if (ctx.round() < 10 && draw % 4 != 0) {
        ctx.keep_active();
        for (const auto& inc : ctx.graph().neighbors(v)) {
          if ((draw + inc.to) % 3 == 0) ctx.send(inc.edge, IntMsg{draw});
        }
      }
    };
    for (int r = 0; r < 12; ++r) net.run_round(step);
    return std::make_pair(state, net.stats());
  };
  const auto [seq_state, seq_stats] = run_with(nullptr);
  ThreadPool pool(8);
  const auto [par_state, par_stats] = run_with(&pool);
  EXPECT_EQ(seq_state, par_state);
  EXPECT_EQ(seq_stats.rounds, par_stats.rounds);
  EXPECT_EQ(seq_stats.messages, par_stats.messages);
  EXPECT_EQ(seq_stats.total_bits, par_stats.total_bits);
  EXPECT_EQ(seq_stats.max_message_bits, par_stats.max_message_bits);
}

// ------------------------------------------------- set-up lifecycle ----

TEST(SyncNetwork, SlotIsSenderRankInReceiverRow) {
  // The linear slot pass must give every arc the sender's position in
  // the receiver's sorted row. Cases: a random graph; a star whose hub
  // row spans several 1024-node shards; isolated vertices; and an
  // induced subgraph (renumbered ids, dropped edges).
  Rng rng(41);
  std::vector<Graph> graphs;
  graphs.push_back(erdos_renyi(300, 0.05, rng));
  graphs.push_back(star_graph(5000));
  graphs.push_back(Graph(12, {{0, 5}, {5, 9}, {9, 2}, {2, 11}, {0, 11}}));
  const Graph big = erdos_renyi(400, 0.03, rng);
  std::vector<char> keep_node(big.num_nodes(), 1);
  for (NodeId v = 0; v < big.num_nodes(); v += 3) keep_node[v] = 0;
  std::vector<char> keep_edge(big.num_edges(), 1);
  for (EdgeId e = 0; e < big.num_edges(); e += 4) keep_edge[e] = 0;
  graphs.push_back(induced_subgraph(big, keep_node, keep_edge).graph);

  for (const Graph& g : graphs) {
    // The narrowest shards: 1024 nodes each.
    SyncNetwork<IntMsg> net(g, 1, {}, {.shards = 4096});
    std::uint64_t checked = 0;
    auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
      if (ctx.round() == 0) {
        ctx.send_all(IntMsg{static_cast<int>(ctx.id())});
        return;
      }
      const auto nbrs = ctx.graph().neighbors(ctx.id());
      ASSERT_EQ(ctx.inbox().size(), nbrs.size());
      for (const auto& in : ctx.inbox()) {
        // The payload names the sender independently of the slot (from
        // and edge are derived from the slot, so they cannot).
        const auto sender = static_cast<NodeId>(in.payload->value);
        std::uint32_t rank = 0;
        while (nbrs[rank].to != sender) ++rank;
        EXPECT_EQ(in.slot, rank);
        EXPECT_EQ(in.from, sender);
        ++checked;
      }
    };
    net.run_round(step);
    net.run_round(step);
    EXPECT_EQ(checked, 2 * std::uint64_t{g.num_edges()});
  }
}

/// One delivered message or RNG draw, as a reset-equivalence record.
using Record = std::tuple<std::uint64_t, NodeId, NodeId, EdgeId, std::uint32_t,
                          int>;

/// A client that draws, sends on a draw-dependent subset of its row and
/// keeps itself alive; returns every node's log of (round, node, from,
/// edge, slot, payload) deliveries and draws (from = kInvalidNode).
std::vector<std::vector<Record>> run_client(SyncNetwork<IntMsg>& net,
                                            int rounds) {
  std::vector<std::vector<Record>> log(net.shard_plan().n);
  auto step = [&](SyncNetwork<IntMsg>::Ctx& ctx) {
    const NodeId v = ctx.id();
    for (const auto& in : ctx.inbox()) {
      log[v].emplace_back(ctx.round(), v, in.from, in.edge, in.slot,
                          in.payload->value);
    }
    const int draw = static_cast<int>(ctx.rng().below(1000));
    log[v].emplace_back(ctx.round(), v, kInvalidNode, kInvalidEdge, 0, draw);
    if (draw % 5 != 0) {
      ctx.keep_active();
      for (const auto& inc : ctx.graph().neighbors(v)) {
        if ((draw + inc.to) % 2 == 0) ctx.send(inc.edge, IntMsg{draw});
      }
    }
  };
  for (int r = 0; r < rounds; ++r) net.run_round(step);
  return log;
}

void expect_same_stats(const NetStats& a, const NetStats& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.total_bits, b.total_bits);
  EXPECT_EQ(a.max_message_bits, b.max_message_bits);
}

TEST(SyncNetwork, SendSlotEqualsSendByEdge) {
  // Sending on incidence i is sending on edge neighbors(v)[i].edge: the
  // same inboxes (sender, edge, slot, payload) and the same meters. A
  // second send on one channel still throws, whichever way either send
  // names it, and a slot past the degree throws.
  using Net = SyncNetwork<IntMsg>;
  Rng rng(53);
  const Graph g = erdos_renyi(3000, 6.0 / 3000, rng);
  ThreadPool pool(2);
  auto run = [&](bool by_slot) {
    Net net(g, 9, {}, {.pool = &pool, .shards = 2});
    std::vector<std::vector<Record>> log(g.num_nodes());
    auto step = [&](Net::Ctx& ctx) {
      const NodeId v = ctx.id();
      for (const auto& in : ctx.inbox()) {
        log[v].emplace_back(ctx.round(), v, in.from, in.edge, in.slot,
                            in.payload->value);
      }
      const int draw = static_cast<int>(ctx.rng().below(1000));
      const auto nbrs = ctx.graph().neighbors(v);
      for (std::uint32_t i = 0; i < nbrs.size(); ++i) {
        if ((draw + nbrs[i].to) % 3 != 0) continue;
        if (by_slot) {
          ctx.send_slot(i, IntMsg{draw});
        } else {
          ctx.send(nbrs[i].edge, IntMsg{draw});
        }
      }
    };
    for (int r = 0; r < 6; ++r) net.run_round(step);
    return std::make_pair(log, net.stats());
  };
  const auto [by_edge, edge_stats] = run(false);
  const auto [by_slot, slot_stats] = run(true);
  EXPECT_EQ(by_slot, by_edge);
  expect_same_stats(slot_stats, edge_stats);
  EXPECT_GT(slot_stats.messages, 0u);

  const Graph p = path_graph(3);  // node 1: slot 0 -> 0, slot 1 -> 2
  Net net(p, 1);
  net.run_round([](Net::Ctx& ctx) {
    if (ctx.id() != 1) return;
    ctx.send_slot(1, IntMsg{1});
    EXPECT_THROW(ctx.send_slot(1, IntMsg{2}), std::logic_error);
    EXPECT_THROW(ctx.send(ctx.graph().find_edge(1, 2), IntMsg{3}),
                 std::logic_error);
    ctx.send(ctx.graph().find_edge(1, 0), IntMsg{4});
    EXPECT_THROW(ctx.send_slot(0, IntMsg{5}), std::logic_error);
    EXPECT_THROW(ctx.send_slot(2, IntMsg{6}), std::logic_error);
  });
  EXPECT_EQ(net.stats().messages, 2u);
}

TEST(SyncNetwork, ResetEqualsFreshNetwork) {
  // Run k rounds under one seed with leftovers of every kind (staged
  // sends, a pending activation, the restrict and step-all flags),
  // reset to s' and run again: deliveries, draws and NetStats must
  // equal a fresh network seeded with s' — sequentially and on a pool,
  // with the second run starting from every node or from a chosen few.
  Rng rng(43);
  const Graph g = erdos_renyi(600, 0.015, rng);
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (const bool restricted : {false, true}) {
      const auto start = [&](SyncNetwork<IntMsg>& net) {
        if (!restricted) return;
        net.restrict_initial_active();
        for (NodeId v = 0; v < g.num_nodes(); v += 7) net.activate(v);
      };
      SyncNetwork<IntMsg> fresh(g, 77, {}, {.pool = p});
      start(fresh);
      const auto want = run_client(fresh, 9);

      SyncNetwork<IntMsg> reused(g, 5, {}, {.pool = p});
      if (restricted) {
        reused.step_all_nodes();
      } else {
        reused.restrict_initial_active();
        reused.activate(3);
      }
      run_client(reused, 7);
      reused.activate(4);  // dropped by reset
      reused.reset(77);
      EXPECT_EQ(reused.round(), 0u);
      EXPECT_EQ(reused.stats().messages, 0u);
      start(reused);
      const auto got = run_client(reused, 9);
      EXPECT_EQ(got, want) << "restricted=" << restricted;
      expect_same_stats(reused.stats(), fresh.stats());
    }
  }
}

TEST(SyncNetwork, ResetDropsDelayedMessages) {
  // Under a delay-fault injector a finished run leaves held-back
  // messages in the delayed queue; reset must drop them, so the next run
  // equals a fresh network with the same plan.
  faults::FaultPlan plan;
  plan.delay_p = 0.5;
  plan.delay_rounds = 4;
  Rng rng(47);
  const Graph g = erdos_renyi(300, 0.03, rng);

  // The first run does leave delayed messages: keep stepping a probe
  // copy silently past the staged round and count late deliveries.
  faults::MessageFaultInjector probe_faults(plan, 9);
  SyncNetwork<IntMsg> probe(g, 5);
  probe.set_message_faults(&probe_faults);
  run_client(probe, 6);
  probe.run_round([](SyncNetwork<IntMsg>::Ctx&) {});  // staged sends land
  std::uint64_t late = 0;
  for (std::uint32_t r = 0; r < plan.delay_rounds; ++r) {
    probe.run_round([](SyncNetwork<IntMsg>::Ctx&) {});
    late += probe.last_round_deliveries();
  }
  ASSERT_GT(late, 0u);

  faults::MessageFaultInjector fresh_faults(plan, 9);
  SyncNetwork<IntMsg> fresh(g, 31);
  fresh.set_message_faults(&fresh_faults);
  const auto want = run_client(fresh, 10);

  faults::MessageFaultInjector reused_faults(plan, 9);
  SyncNetwork<IntMsg> reused(g, 5);
  reused.set_message_faults(&reused_faults);
  run_client(reused, 6);
  reused.reset(31);
  const auto got = run_client(reused, 10);
  EXPECT_EQ(got, want);
  expect_same_stats(reused.stats(), fresh.stats());
}

TEST(SyncNetwork, StampRefillAtEpochWrap) {
  // Runs that cross the 32-bit epoch wrap must re-fill the stamps: with
  // stale stamps left behind, epochs after the wrap would alias them and
  // the client's single sends would trip the double-send check or land
  // in stale inboxes. Both a fresh network started just below the wrap
  // and a reset one must equal an ordinary fresh run.
  Rng rng(53);
  const Graph g = erdos_renyi(400, 0.02, rng);
  constexpr std::uint32_t kNear = static_cast<std::uint32_t>(-1) - 3;
  SyncNetwork<IntMsg> plain(g, 11);
  const auto want = run_client(plain, 12);

  SyncNetwork<IntMsg> high(g, 11);
  SyncNetworkTestAccess::set_epoch(high, kNear);
  EXPECT_EQ(run_client(high, 12), want);
  expect_same_stats(high.stats(), plain.stats());
  EXPECT_EQ(SyncNetworkTestAccess::epoch(high), 12u - 3u);  // re-based

  SyncNetwork<IntMsg> reused(g, 2);
  run_client(reused, 12);
  SyncNetworkTestAccess::set_epoch(reused, kNear);
  reused.reset(11);
  EXPECT_EQ(SyncNetworkTestAccess::epoch(reused), kNear);
  EXPECT_EQ(run_client(reused, 12), want);
  expect_same_stats(reused.stats(), plain.stats());
}

TEST(NetStats, MergeAndScaledMerge) {
  NetStats a;
  a.rounds = 10;
  a.note_message(100);
  NetStats b;
  b.rounds = 4;
  b.note_message(50);
  b.note_message(30);
  NetStats merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.rounds, 14u);
  EXPECT_EQ(merged.messages, 3u);
  EXPECT_EQ(merged.total_bits, 180u);
  EXPECT_EQ(merged.max_message_bits, 100u);
  NetStats scaled = a;
  scaled.merge_scaled_rounds(b, 5);
  EXPECT_EQ(scaled.rounds, 10u + 20u);
}

TEST(NetStats, BulkNoteEqualsRepeatedNote) {
  // Start from a non-empty meter whose max sits between the two widths,
  // so a zero-count bulk note of a wider message visibly must not move it.
  for (const std::uint64_t bits : {std::uint64_t{3}, std::uint64_t{40}}) {
    for (const std::uint64_t count : {0u, 1u, 1000u}) {
      NetStats bulk;
      bulk.note_message(17);
      NetStats repeated = bulk;
      bulk.note_messages(count, bits);
      for (std::uint64_t i = 0; i < count; ++i) repeated.note_message(bits);
      EXPECT_EQ(bulk.messages, repeated.messages) << count << "x" << bits;
      EXPECT_EQ(bulk.total_bits, repeated.total_bits) << count << "x" << bits;
      EXPECT_EQ(bulk.max_message_bits, repeated.max_message_bits)
          << count << "x" << bits;
      EXPECT_EQ(bulk.rounds, repeated.rounds);
    }
  }
  NetStats empty;
  empty.note_messages(0, 64);
  EXPECT_EQ(empty.max_message_bits, 0u);
}

TEST(NetStats, NodeIdBitsNamesEveryIdPlusNone) {
  // n ids plus a "none" value need ceil(log2(n + 1)) bits, at least 1.
  EXPECT_EQ(node_id_bits(0), 1u);
  EXPECT_EQ(node_id_bits(1), 1u);
  EXPECT_EQ(node_id_bits(2), 2u);
  EXPECT_EQ(node_id_bits(3), 2u);
  EXPECT_EQ(node_id_bits(4), 3u);
  EXPECT_EQ(node_id_bits(65535), 16u);
  EXPECT_EQ(node_id_bits(65536), 17u);
}

}  // namespace
}  // namespace lps
