// SyncNetwork<M>: the synchronous message-passing model of the paper's
// Section 2, executable.
//
//   "in each time step, processors send (possibly different) messages to
//    neighbors, receive messages from neighbors, and perform some local
//    computation."
//
// Faithfulness points:
//  * Lock-step rounds. A message sent in round r is delivered at the
//    start of round r+1, and nothing else is ever delivered.
//  * One message per edge per direction per round (sending twice on the
//    same channel in one round throws): this is the model under which
//    the paper's CONGEST bit bounds are stated.
//  * Every message is metered in bits via a caller-supplied measure, so
//    LOCAL-vs-CONGEST claims (O(|V|+|E|) vs O(log n) bits) become
//    measurable quantities in `stats()`.
//  * Per-(node, round) RNG substreams: the execution is a deterministic
//    function of the seed, independent of node iteration order — which
//    also makes thread-pool execution AND any shard count bit-identical
//    to sequential single-shard execution.
//
// Cost model of the implementation (not of the simulated protocols): a
// round costs O(stepped nodes + messages in flight), NOT O(n + m), and
// the constant stays flat as n grows because all per-round work is
// confined to cache-sized vertex shards (DESIGN.md §11):
//
//  * Epoch-stamped channels. Each directed channel (edge, direction) has
//    a round-stamp instead of a std::optional slot; "two sends on one
//    channel in one round" is a stamp comparison and there is no
//    O(m) per-round reset sweep.
//  * Structure-of-arrays message staging (DESIGN.md §15). A message in
//    flight is not a struct: its receiver, its receiver-side incidence
//    position (the inbox sort key), and its payload ride in parallel
//    typed columns — in a per-(worker, destination shard) bin at send
//    time, then in the receiver-grouped delivery columns. Sender id and
//    edge id are never stored at all — an
//    inbox entry's key names the arc offsets[to] + key, whose adj_to /
//    adj_edge entries are exactly the sender and the edge, so the
//    InboxView proxy re-derives both from the receiver's own (cache-
//    hot) CSR row at read time. The counting-sort passes therefore move
//    8–12 bytes + sizeof(M) per message instead of a 32-byte-plus
//    struct, and the inbox scan is a linear sweep over two contiguous
//    typed arrays.
//  * Sharded mailbox delivery. Vertices are partitioned into contiguous
//    power-of-two shards sized to the L2 cache (runtime/shard.hpp). A
//    send lands directly in its worker's bin for the receiver's shard,
//    so no pass ever regroups a round's traffic by shard. Delivery then
//    counting-sorts each shard's bins by receiver and puts each inbox
//    into the receiver's incidence order. All vertex-indexed
//    bookkeeping accesses fall inside one shard's contiguous range, so
//    they stay L2-resident at any graph size. Inbox construction
//    touches only real messages, never the whole graph.
//  * Active-set scheduling. A node is stepped in a round iff it has
//    incoming messages, woke itself for the round with
//    ctx.keep_active(k) k rounds earlier (k = 1: the next round), or
//    was activated for the round (activate(); the first round defaults
//    to every node unless restrict_initial_active() was called). Wakes
//    and activations are staged like sends: in the worker's bin for
//    the node's shard, in a small ring of slots indexed by due round.
//    Each shard's delivery task assembles that shard's active set from
//    its receivers and its due wakes, so no serial pass over the
//    round's traffic builds it; active nodes are then stepped shard by
//    shard, so node state and CSR rows are walked in shard order.
//    Protocols whose spontaneous sends cannot be expressed this way opt
//    out with step_all_nodes(), restoring the exact old
//    every-node-every-round semantics. Because nodes draw from
//    per-(node, round) substreams and an unstepped node would neither
//    send nor mutate state, an execution under active-set scheduling is
//    bit-identical to a step_all_nodes() execution whenever the protocol
//    wakes every node for every round in which it might act without an
//    incoming message.
//
// A node program is any callable `void step(Ctx& ctx)`; persistent node
// state lives in arrays owned by the algorithm object (indexed by node
// id). During a parallel round a node may only touch its own state and
// its own outgoing channels; all algorithms in src/core follow this.
//
// M must be default-constructible and movable. The bit meter is a
// template parameter so protocol meters (usually a constant or a small
// struct) are statically dispatched; the default falls back to
// std::function for ad-hoc lambdas.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "faults/injector.hpp"
#include "graph/graph.hpp"
#include "runtime/exec_context.hpp"
#include "runtime/round_stats.hpp"
#include "runtime/shard.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace lps {

/// Fallback meter when none is supplied: every message costs its wire
/// width, sizeof(M) * 8 bits.
template <typename M>
struct DefaultBitMeter {
  std::uint64_t operator()(const M&) const noexcept {
    return std::uint64_t{sizeof(M) * 8};
  }
};

/// Defined by the engine tests only: reaches the epoch base, so the
/// stamp re-fill at the 2^32 wrap is testable without 2^32 rounds.
struct SyncNetworkTestAccess;

template <typename M, typename Meter = std::function<std::uint64_t(const M&)>>
class SyncNetwork {
 public:
  /// A delivered message: sender, the edge it traveled on, payload, and
  /// the arrival edge's position in the receiver's incidence list
  /// (`slot` — so handlers can index per-slot state directly instead of
  /// scanning their row for the edge). The payload pointer is valid for
  /// the round the message is delivered in.
  struct Incoming {
    NodeId from;
    EdgeId edge;
    const M* payload;
    std::uint32_t slot;
  };

  /// Proxy over one receiver's slice of the delivery columns: `keys`
  /// (incidence positions, ascending) and `payloads`. `from` and `edge`
  /// are not stored anywhere — each is re-derived from the receiver's
  /// CSR row at the arc the key names, so iteration materializes
  /// Incoming values on the fly from contiguous typed arrays.
  class InboxView {
   public:
    InboxView() = default;
    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }
    Incoming operator[](std::size_t i) const noexcept {
      const std::uint32_t k = keys_[i];
      return Incoming{row_to_[k], row_edge_[k], payloads_ + i, k};
    }

    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = Incoming;
      using difference_type = std::ptrdiff_t;
      using pointer = const Incoming*;
      using reference = Incoming;
      iterator() = default;
      Incoming operator*() const noexcept { return (*view_)[i_]; }
      iterator& operator++() noexcept {
        ++i_;
        return *this;
      }
      iterator operator++(int) noexcept {
        iterator t = *this;
        ++i_;
        return t;
      }
      bool operator==(const iterator& o) const noexcept { return i_ == o.i_; }
      bool operator!=(const iterator& o) const noexcept { return i_ != o.i_; }

     private:
      friend class InboxView;
      iterator(const InboxView* v, std::size_t i) : view_(v), i_(i) {}
      const InboxView* view_ = nullptr;
      std::size_t i_ = 0;
    };
    iterator begin() const noexcept { return iterator(this, 0); }
    iterator end() const noexcept { return iterator(this, size_); }

    /// Raw column access, for handlers that want the linear sweep.
    const std::uint32_t* keys() const noexcept { return keys_; }
    const M* payloads() const noexcept { return payloads_; }

   private:
    friend class SyncNetwork;
    InboxView(const std::uint32_t* keys, const M* payloads,
              const NodeId* row_to, const EdgeId* row_edge, std::size_t n)
        : keys_(keys),
          payloads_(payloads),
          row_to_(row_to),
          row_edge_(row_edge),
          size_(n) {}
    const std::uint32_t* keys_ = nullptr;
    const M* payloads_ = nullptr;
    const NodeId* row_to_ = nullptr;    // receiver's adj_to row base
    const EdgeId* row_edge_ = nullptr;  // receiver's adj_edge row base
    std::size_t size_ = 0;
  };

  using BitMeter = std::function<std::uint64_t(const M&)>;

  /// The furthest round ahead ctx.keep_active(k) can wake a node.
  static constexpr unsigned kMaxWakeDelay = 3;

 private:
  struct PerWorker;  // defined below; Ctx holds a pointer to its worker

 public:
  /// Per-node, per-round execution context.
  class Ctx {
   public:
    NodeId id() const noexcept { return id_; }
    std::uint64_t round() const noexcept { return net_->round_; }
    const Graph& graph() const noexcept { return *net_->graph_; }
    /// The node's per-(node, round) substream, derived on first use —
    /// steps that never draw (most receivers, most rounds of most
    /// protocols) skip the hash entirely; the stream is the same either
    /// way, so laziness cannot perturb an execution.
    Rng& rng() noexcept {
      if (!rng_ready_) {
        rng_ = Rng::substream(net_->seed_, std::uint64_t{id_}, net_->round_);
        rng_ready_ = true;
      }
      return rng_;
    }
    const InboxView& inbox() const noexcept { return inbox_; }

    /// Send along edge e to the other endpoint (delivered next round).
    /// Finds e by scanning the sender's row; send_slot() skips the scan.
    void send(EdgeId e, M msg) {
      net_->enqueue(id_, e, std::move(msg), *worker_);
    }

    /// Send along the node's i-th incidence (graph().neighbors(id())[i],
    /// the same position as an inbox entry's `slot`): no arc scan.
    void send_slot(std::uint32_t i, M msg) {
      net_->enqueue_slot(id_, i, std::move(msg), *worker_);
    }

    /// Send a copy of msg to every neighbor (one row walk, no per-edge
    /// arc lookup).
    void send_all(const M& msg) { net_->enqueue_all(id_, msg, *worker_); }

    /// Be stepped in round round() + k even without incoming messages
    /// (k = 1: the next round), skipping the rounds in between unless
    /// mail arrives. Call it whenever this node might act spontaneously
    /// in that round; 1 <= k <= kMaxWakeDelay, else logic_error. A no-op
    /// under step_all_nodes().
    void keep_active(unsigned k = 1) {
      if (k == 0 || k > kMaxWakeDelay) {
        throw std::logic_error(
            "SyncNetwork::keep_active: k outside [1, kMaxWakeDelay]");
      }
      if (!net_->step_all_) net_->stage_wake(*worker_, id_, net_->round_ + k);
    }

   private:
    friend class SyncNetwork;
    SyncNetwork* net_ = nullptr;
    NodeId id_ = kInvalidNode;
    Rng rng_{0};
    bool rng_ready_ = false;
    InboxView inbox_;
    PerWorker* worker_ = nullptr;
  };

  /// `exec` fixes the network's thread pool and shard plan for its
  /// lifetime; any context gives a bit-identical execution.
  SyncNetwork(const Graph& g, std::uint64_t seed, Meter meter = Meter{},
              const ExecContext& exec = {})
      : graph_(&g), seed_(seed), meter_(std::move(meter)), pool_(exec.pool) {
    if constexpr (std::is_same_v<Meter, BitMeter>) {
      if (!meter_) meter_ = DefaultBitMeter<M>{};
    }
    const std::uint64_t t0 = setup_span_start();
    const NodeId n = g.num_nodes();
    plan_ = plan_shards(n, exec.shards);
    shard_active_.resize(plan_.count);
    active_off_.resize(plan_.count + 1);
    arc_meta_.assign(2 * static_cast<std::size_t>(g.num_edges()),
                     ArcMeta{kNeverEpoch, 0});
    inbox_meta_.assign(n, InboxMeta{kNeverEpoch, 0, 0, 0});
    active_bits_.assign((std::size_t{n} + 63) / 64, 0);
    // Directed channels are indexed by CSR *arc*: the channel on which v
    // sends along its i-th incidence is arc offsets[v] + i. Senders then
    // stamp and read channel state at positions inside their own row —
    // shard-local by construction — instead of at edge-table positions
    // that are random relative to vertex order. Precompute, per arc
    // v -> to, the position of v in to's row (the receiver-side
    // incidence position: the canonical inbox sort key); it shares a
    // cache line with the channel's send stamp, so the send path reads
    // one per-arc location, not two.
    //
    // Rows are sorted by neighbor id and simple (GraphStore rejects
    // self-loops and parallel edges), so walking senders in ascending id
    // order meets each receiver's neighbors in that receiver's row order:
    // one cursor per receiver gives every slot in a single linear pass.
    // The receivers' inbox counts serve as the cursors; they are dead
    // until a round stamps the receiver, which zeroes them.
    const GraphStore& s = g.store();
    for (NodeId v = 0; v < n; ++v) {
      for (std::uint64_t a = s.offsets[v]; a < s.offsets[v + 1]; ++a) {
        arc_meta_[a].slot = inbox_meta_[s.adj_to[a]].cnt++;
      }
    }
    setup_span_end(t0, /*is_reset=*/false);
  }

  /// Restart the network at round 0 under `seed`, as if freshly
  /// constructed on the same graph, keeping every allocation (arc and
  /// inbox metadata, delivery columns, worker buffers). Everything a
  /// run leaves behind is dropped: staged sends, delayed and duplicate
  /// fault records, pending activations, stats, and the per-run
  /// step_all_nodes() / restrict_initial_active() flags. The thread
  /// pool, shard plan and fault injector stay attached. Stamps are not
  /// touched: the epoch base moves past every stamp the run wrote.
  void reset(std::uint64_t seed) {
    const std::uint64_t t0 = setup_span_start();
    epoch_base_ = epoch();  // past the last round's stamps
    seed_ = seed;
    round_ = 0;
    for (PerWorker& w : workers_) {
      for (Bin& b : w.bins) {
        b.clear();
        for (std::vector<NodeId>& slot : b.wake) slot.clear();
      }
      w.stats = NetStats{};
      w.busy_ns = 0;
    }
    step_all_ = false;
    initial_restricted_ = false;
    delayed_.clear();
    dup_buf_.clear();
    pending_ = 0;
    delivered_last_round_ = 0;
    delivered_total_ = 0;
    stepped_last_round_ = 0;
    stats_ = NetStats{};
    setup_span_end(t0, /*is_reset=*/true);
  }

  /// The vertex shards the mailbox and scheduler operate on.
  const ShardPlan& shard_plan() const noexcept { return plan_; }

  /// Opt out of active-set scheduling: step every node every round, the
  /// exact semantics of the original engine. For protocols whose
  /// spontaneous sends cannot be expressed with keep_active()/activate().
  void step_all_nodes(bool on = true) noexcept { step_all_ = on; }

  /// Queue v for the next run_round's active set (on top of message
  /// receivers and keep_active callers). Callable between rounds only.
  void activate(NodeId v) {
    ensure_workers();
    stage_wake(workers_[0], v, round_);
  }

  /// Drop the first round's every-node default: round 0 then steps only
  /// activate()d nodes (plus receivers — vacuous in round 0).
  void restrict_initial_active() noexcept { initial_restricted_ = true; }

  /// Attach a message-fault injector (nullptr = fault-free, the
  /// default; the injector is not owned and must outlive the network).
  /// Faults apply at the channel exchange: sends still succeed and are
  /// metered, but delivery may drop, duplicate, or delay the message.
  /// Fates are a pure function of (injector seed, channel, round), so
  /// executions stay bit-identical across thread and shard counts.
  void set_message_faults(faults::MessageFaultInjector* injector) noexcept {
    faults_ = injector;
    seq_on_ = injector != nullptr && injector->message_faults();
    // The seq column is maintained only while message faults are on; if
    // the injector is attached between rounds with sends still staged,
    // backfill their seqs (all were sent in the round just executed).
    if (seq_on_) {
      const auto sent_round =
          static_cast<std::uint32_t>(round_ == 0 ? 0 : round_ - 1);
      for (PerWorker& w : workers_) {
        for (Bin& b : w.bins) b.seq.resize(b.to.size(), sent_round);
      }
    }
  }

  const NetStats& stats() const noexcept { return stats_; }
  std::uint64_t round() const noexcept { return round_; }

  /// Messages delivered in the most recent round.
  std::uint64_t last_round_deliveries() const noexcept {
    return delivered_last_round_;
  }

  /// Nodes stepped in the most recent round (== n when stepping all).
  std::uint64_t last_round_stepped() const noexcept {
    return stepped_last_round_;
  }

  /// Execute one synchronous round: deliver everything sent last round,
  /// step the round's active set (or every node), collect sends for the
  /// next round.
  template <typename Step>
  void run_round(Step&& step) {
    const Graph& g = *graph_;
    ensure_workers();
    if (epoch() == kNeverEpoch) rebase_epochs();
    ++stats_.rounds;

    // Telemetry gates, resolved once per round: two relaxed loads.
    const bool tmetrics = telemetry::enabled();
    telemetry::Tracer& tracer = telemetry::Tracer::global();
    const bool ttrace = tracer.recording();
    const bool tel = tmetrics || ttrace;
    const std::uint64_t this_round = round_;
    const std::uint64_t t_round = tel ? telemetry::now_ns() : 0;

    const bool all = step_all_ || (round_ == 0 && !initial_restricted_);
    build_inboxes(tmetrics, ttrace, all);
    delivered_last_round_ = dlv_key_.size();

    // The shards' active sets, concatenated in shard order, are the
    // step loop's index space: the loop walks node state and CSR rows
    // one cache-sized shard at a time, and nothing flattens them.
    std::size_t count = g.num_nodes();
    if (!all) {
      count = 0;
      for (unsigned s = 0; s < plan_.count; ++s) {
        active_off_[s] = count;
        count += shard_active_[s].size();
      }
      active_off_[plan_.count] = count;
    }
    stepped_last_round_ = count;

    const std::uint64_t t_step = tel ? telemetry::now_ns() : 0;
    auto process = [&](unsigned worker, std::size_t begin, std::size_t end) {
      PerWorker& pw = workers_[worker];
      const std::uint64_t t_chunk = tel ? telemetry::now_ns() : 0;
      // One Ctx per chunk, reset per node: constructing the embedded Rng
      // runs the xoshiro seeding expansion, pure waste for steps that
      // never draw (rng() re-seeds from the substream on first use).
      Ctx ctx;
      ctx.net_ = this;
      ctx.worker_ = &pw;
      // The last shard starting at or before `begin` holds index begin.
      unsigned s = all ? 0
                       : static_cast<unsigned>(
                             std::upper_bound(active_off_.begin(),
                                              active_off_.end(), begin) -
                             active_off_.begin() - 1);
      for (std::size_t i = begin; i < end; ++i) {
        NodeId node = static_cast<NodeId>(i);
        if (!all) {
          while (i >= active_off_[s + 1]) ++s;
          node = shard_active_[s][i - active_off_[s]];
        }
        ctx.id_ = node;
        ctx.rng_ready_ = false;
        ctx.inbox_ = inbox_of(node);
        step(ctx);
      }
      if (tel) pw.busy_ns += telemetry::now_ns() - t_chunk;
    };
    if (pool_ != nullptr && pool_->num_threads() > 1) {
      pool_->parallel_for_workers(0, count, 256, process);
    } else {
      process(0, 0, count);
    }
    const std::uint64_t t_step_end = tel ? telemetry::now_ns() : 0;

    // One stat merge per round (per-worker slots; no mutex anywhere).
    std::uint64_t sent = 0;
    std::uint64_t bits = 0;
    for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
      PerWorker& w = workers_[wi];
      sent += w.stats.messages;
      bits += w.stats.total_bits;
      stats_.max_message_bits =
          std::max(stats_.max_message_bits, w.stats.max_message_bits);
      w.stats = NetStats{};
      if (tmetrics && w.busy_ns != 0) {
        telemetry::EngineMetrics::get().worker_busy_ns.add(wi, w.busy_ns);
      }
      w.busy_ns = 0;  // unconditional: no stale carry if telemetry toggles
    }
    stats_.messages += sent;
    stats_.total_bits += bits;
    pending_ = sent;
    // Held-back messages count as in flight: run(stop_when_silent) must
    // not declare the network silent while deliveries are still due.
    pending_ += delayed_.size();
    delivered_total_ += delivered_last_round_;
    ++round_;

    // Structured round-boundary event + live progress snapshot. Both
    // paths only observe engine state (never feed back into it), so
    // executions stay bit-identical with them on or off.
    telemetry::EventLog& elog = telemetry::EventLog::global();
    if (elog.recording()) {
      elog.emit(telemetry::EventKind::kRound, this_round,
                delivered_last_round_, sent, stepped_last_round_);
    }
    telemetry::ProgressBoard& board = telemetry::ProgressBoard::global();
    if (board.publishing()) {
      board.publish(round_, delivered_total_, stepped_last_round_,
                    telemetry::now_ns());
    }

    if (tel) {
      const std::uint64_t t_end = telemetry::now_ns();
      if (tmetrics) {
        telemetry::EngineMetrics& em = telemetry::EngineMetrics::get();
        em.rounds.add(1);
        em.messages_delivered.add(delivered_last_round_);
        em.round_ns.record(t_end - t_round);
        em.step_ns.record(t_step_end - t_step);
        em.messages_per_round.push(delivered_last_round_);
      }
      if (ttrace) {
        const auto r = static_cast<double>(this_round);
        tracer.emit("engine.step", "engine", t_step, t_step_end - t_step,
                    {{"round", r},
                     {"stepped", static_cast<double>(stepped_last_round_)}});
        tracer.emit(
            "engine.round", "engine", t_round, t_end - t_round,
            {{"round", r},
             {"delivered", static_cast<double>(delivered_last_round_)},
             {"sent", static_cast<double>(sent)}});
      }
    }
  }

  /// Run up to max_rounds; with stop_when_silent, stop after a round in
  /// which no node sent any message AND nothing is pending (for purely
  /// message-driven protocols further rounds are no-ops). Returns the
  /// number of rounds executed.
  template <typename Step>
  std::uint64_t run(std::uint64_t max_rounds, bool stop_when_silent,
                    Step&& step) {
    std::uint64_t executed = 0;
    for (; executed < max_rounds; ++executed) {
      run_round(step);
      if (stop_when_silent && pending_ == 0) {
        ++executed;
        break;
      }
    }
    return executed;
  }

 private:
  friend struct SyncNetworkTestAccess;

  // Round stamps in the hot bookkeeping are 32-bit epochs, base + round
  // (mod 2^32); reset() moves the base past the finished run, so stamps
  // never need clearing between runs. kNeverEpoch doubles as "never
  // touched": the round whose epoch would reach it re-fills every stamp
  // with kNeverEpoch and rebases to epoch 0 (rebase_epochs), so no live
  // stamp ever aliases it or a stamp from before the wrap. 32-bit
  // stamps halve the footprint of the per-arc and per-receiver
  // metadata.
  static constexpr std::uint32_t kNeverEpoch =
      static_cast<std::uint32_t>(-1);
  std::uint32_t epoch() const noexcept {
    return epoch_base_ + static_cast<std::uint32_t>(round_);
  }

  /// Start of the stamp cycle: forget every stamp, then make the current
  /// round epoch 0. Only stamps equal to the current epoch carry
  /// meaning within a round, so nothing older needs to survive.
  void rebase_epochs() {
    for (ArcMeta& am : arc_meta_) am.stamp = kNeverEpoch;
    for (InboxMeta& im : inbox_meta_) im.stamp = kNeverEpoch;
    epoch_base_ = -static_cast<std::uint32_t>(round_);
  }

  /// engine.setup span over construction or reset, behind the tracer
  /// gate: the start stamp is 0 when the tracer is not recording.
  static std::uint64_t setup_span_start() {
    return telemetry::Tracer::global().recording() ? telemetry::now_ns() : 0;
  }
  void setup_span_end(std::uint64_t t0, bool is_reset) const {
    if (t0 == 0) return;
    telemetry::Tracer::global().emit(
        "engine.setup", "engine", t0, telemetry::now_ns() - t0,
        {{"arcs", static_cast<double>(arc_meta_.size())},
         {"reset", is_reset ? 1.0 : 0.0}});
  }

  /// Per-arc channel metadata, packed so the send path touches one
  /// 8-byte record per arc: the round of the channel's last send
  /// (double-send detection) and the receiver-side incidence position
  /// (the inbox sort key).
  struct ArcMeta {
    std::uint32_t stamp;
    std::uint32_t slot;
  };

  /// Per-receiver inbox bookkeeping, packed into 16 bytes so the
  /// exchange's counting passes and inbox_of() touch one cache line
  /// fragment per receiver instead of four separate arrays. `off` and
  /// `cur` index the delivery columns: per-round deliveries must fit in
  /// 32 bits (≥ 4.2B messages/round is far beyond the 2m channel bound
  /// for any graph this engine addresses).
  struct InboxMeta {
    std::uint32_t stamp;
    std::uint32_t cnt;
    std::uint32_t off;
    std::uint32_t cur;
  };

  /// One worker's outbound sends to one destination shard, as parallel
  /// columns fully resolved at enqueue time: `to[i]` is message i's
  /// receiver, `key[i]` the receiver-side incidence position of its
  /// arrival arc (which also determines sender and edge — see
  /// InboxView), `msg[i]` the payload. `seq` (the send round, the inbox
  /// tiebreak when fault injection lands two messages from one channel
  /// in one round) is populated only while message faults are active:
  /// fault-free inboxes never repeat a key, so the column would be dead
  /// weight in the delivery sweeps. `wake[r % kMaxWakeDelay]` lists the
  /// shard's nodes this worker woke (keep_active) or queued (activate;
  /// worker 0 only) for round r: the slot of round r is drained when
  /// round r assembles its active set, before any step can refill it
  /// with round r + kMaxWakeDelay. Cache-line aligned: shard-parallel
  /// delivery clears neighbouring bins of one worker concurrently.
  struct alignas(64) Bin {
    std::vector<NodeId> to;
    std::vector<std::uint32_t> key;
    std::vector<std::uint32_t> seq;
    std::vector<M> msg;
    std::vector<NodeId> wake[kMaxWakeDelay];

    std::size_t size() const noexcept { return to.size(); }
    void clear() noexcept {
      to.clear();
      key.clear();
      seq.clear();
      msg.clear();
    }
  };

  /// Per-worker accumulators, cache-line separated. During the step
  /// loop only the owning worker touches the struct; during delivery
  /// shard s's task alone touches bins[s] of every worker.
  struct alignas(64) PerWorker {
    std::vector<Bin> bins;  // one per destination shard
    NetStats stats;
    std::uint64_t busy_ns = 0;  // step-loop time this round (telemetry)
  };

  void enqueue(NodeId from, EdgeId e, M msg, PerWorker& w) {
    // Resolve the arc (from, e) by scanning the sender's own row — the
    // step function was just iterating it, so it is cache-hot, and the
    // resulting channel index is local to the sender's shard.
    const GraphStore& s = graph_->store();
    const std::uint64_t end = s.offsets[from + 1];
    std::uint64_t arc = s.offsets[from];
    while (arc < end && s.adj_edge[arc] != e) ++arc;
    if (arc == end) {
      throw std::logic_error("SyncNetwork::send: sender not an endpoint");
    }
    enqueue_arc(arc, std::move(msg), w);
  }

  void enqueue_slot(NodeId from, std::uint32_t i, M msg, PerWorker& w) {
    const GraphStore& s = graph_->store();
    const std::uint64_t arc = s.offsets[from] + i;
    if (arc >= s.offsets[from + 1]) {
      throw std::logic_error("SyncNetwork::send_slot: slot past the degree");
    }
    enqueue_arc(arc, std::move(msg), w);
  }

  /// send_all: one pass over the sender's row, no per-edge arc lookup.
  void enqueue_all(NodeId from, const M& msg, PerWorker& w) {
    const GraphStore& s = graph_->store();
    const std::uint64_t end = s.offsets[from + 1];
    for (std::uint64_t arc = s.offsets[from]; arc < end; ++arc) {
      enqueue_arc(arc, msg, w);
    }
  }

  /// Send on the channel of CSR arc `arc`: stamp it (rejecting a second
  /// send this round), meter the message, and stage it in w's bin for
  /// the receiver's shard.
  void enqueue_arc(std::uint64_t arc, M msg, PerWorker& w) {
    ArcMeta& am = arc_meta_[arc];
    if (am.stamp == epoch()) {
      throw std::logic_error(
          "SyncNetwork::send: two messages on one channel in one round");
    }
    am.stamp = epoch();
    w.stats.note_message(meter_(msg));
    const NodeId to = graph_->store().adj_to[arc];
    Bin& b = w.bins[plan_.shard_of(to)];
    b.to.push_back(to);
    b.key.push_back(am.slot);
    if (seq_on_) b.seq.push_back(static_cast<std::uint32_t>(round_));
    b.msg.push_back(std::move(msg));
  }

  /// Stage v's wake for round `due` in w's bin for v's shard.
  void stage_wake(PerWorker& w, NodeId v, std::uint64_t due) {
    w.bins[plan_.shard_of(v)].wake[due % kMaxWakeDelay].push_back(v);
  }

  void ensure_workers() {
    const std::size_t want =
        (pool_ != nullptr && pool_->num_threads() > 1) ? pool_->num_threads()
                                                       : 1;
    if (workers_.size() < want) {
      workers_.resize(want);
      for (PerWorker& w : workers_) w.bins.resize(plan_.count);
    }
  }

  /// A message pulled out of the normal flow by a fault (delayed, or a
  /// duplicate awaiting re-injection). Cold path, so a plain struct.
  struct PendingRec {
    std::uint64_t due;  // round at whose exchange it re-enters
    NodeId to;
    std::uint32_t key;
    std::uint32_t seq;
    M msg;
  };

  void push_pending(PendingRec&& rec) {
    Bin& b = workers_[0].bins[plan_.shard_of(rec.to)];
    b.to.push_back(rec.to);
    b.key.push_back(rec.key);
    b.seq.push_back(rec.seq);
    b.msg.push_back(std::move(rec.msg));
  }

  /// Apply message fates to last round's sends, serially, before the
  /// counting-sort phases see them. Each message is decided exactly once
  /// (at its first delivery attempt); a delayed message is re-injected
  /// verbatim in its due round. Re-injected and duplicated records ride
  /// in worker 0's bin for their receiver's shard — which worker carries
  /// a record never matters, because the per-inbox (key, seq) sort fixes
  /// the final order. The fate is keyed on (edge, sender, round); both
  /// derive from the receiver-side arc named by the message's key.
  void inject_message_faults() {
    const GraphStore& s = graph_->store();
    telemetry::EventLog& elog = telemetry::EventLog::global();
    const bool tevents = elog.recording();
    for (PerWorker& w : workers_) {
      for (Bin& b : w.bins) {
        const std::size_t n_sends = b.size();
        std::size_t out = 0;
        for (std::size_t i = 0; i < n_sends; ++i) {
          const NodeId to = b.to[i];
          const std::uint32_t key = b.key[i];
          const std::uint64_t arc = s.offsets[to] + key;
          const EdgeId edge = s.adj_edge[arc];
          const NodeId from = s.adj_to[arc];
          const faults::MessageFate fate =
              faults_->decide(edge, from, round_);
          if (fate.drop) {
            if (tevents) {
              elog.emit(telemetry::EventKind::kFaultDrop, round_, edge, from);
            }
            continue;
          }
          if (fate.delay > 0) {
            if (tevents) {
              elog.emit(telemetry::EventKind::kFaultDelay, round_, edge,
                        from, fate.delay);
            }
            delayed_.push_back(PendingRec{round_ + fate.delay, to, key,
                                          b.seq[i], std::move(b.msg[i])});
            continue;
          }
          if (fate.dup) {
            if constexpr (std::is_copy_constructible_v<M>) {
              if (tevents) {
                elog.emit(telemetry::EventKind::kFaultDup, round_, edge,
                          from);
              }
              dup_buf_.push_back(
                  PendingRec{round_, to, key, b.seq[i], b.msg[i]});
            }
          }
          if (out != i) {
            b.to[out] = to;
            b.key[out] = key;
            b.seq[out] = b.seq[i];
            b.msg[out] = std::move(b.msg[i]);
          }
          ++out;
        }
        b.to.resize(out);
        b.key.resize(out);
        b.seq.resize(out);
        b.msg.resize(out);
      }
    }
    for (PendingRec& rec : dup_buf_) push_pending(std::move(rec));
    dup_buf_.clear();
    if (!delayed_.empty()) {
      std::size_t keep = 0;
      for (PendingRec& d : delayed_) {
        if (d.due <= round_) {
          push_pending(std::move(d));
        } else {
          delayed_[keep++] = std::move(d);
        }
      }
      delayed_.resize(keep);
    }
  }

  /// Put one inbox range [off, off + cnt) of the delivery columns into
  /// incidence order: ascending key, ties (possible only under message
  /// faults, where colliding records are bit-identical copies) broken
  /// by ascending seq. Small inboxes use an insertion sort that co-moves
  /// the columns; large ones sort a permutation and apply it, keeping
  /// the worst case O(cnt log cnt).
  void sort_inbox(std::size_t off, std::uint32_t cnt, bool with_seq) {
    if (cnt < 2) return;
    std::uint32_t* keys = dlv_key_.data() + off;
    M* msgs = dlv_msg_.data() + off;
    std::uint32_t* seqs = with_seq ? dlv_seq_.data() + off : nullptr;
    constexpr std::uint32_t kInsertionMax = 32;
    if (cnt <= kInsertionMax) {
      for (std::uint32_t i = 1; i < cnt; ++i) {
        const std::uint32_t k = keys[i];
        const std::uint32_t q = with_seq ? seqs[i] : 0;
        if (keys[i - 1] < k || (keys[i - 1] == k && (!with_seq || seqs[i - 1] <= q))) {
          continue;  // already in place — the common case
        }
        M m = std::move(msgs[i]);
        std::uint32_t j = i;
        for (; j > 0 && (keys[j - 1] > k ||
                         (keys[j - 1] == k && with_seq && seqs[j - 1] > q));
             --j) {
          keys[j] = keys[j - 1];
          if (with_seq) seqs[j] = seqs[j - 1];
          msgs[j] = std::move(msgs[j - 1]);
        }
        keys[j] = k;
        if (with_seq) seqs[j] = q;
        msgs[j] = std::move(m);
      }
      return;
    }
    std::vector<std::uint32_t> order(cnt);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (keys[a] != keys[b]) return keys[a] < keys[b];
                return with_seq && seqs[a] < seqs[b];
              });
    std::vector<std::uint32_t> tmp_k(cnt);
    std::vector<M> tmp_m(cnt);
    for (std::uint32_t i = 0; i < cnt; ++i) {
      tmp_k[i] = keys[order[i]];
      tmp_m[i] = std::move(msgs[order[i]]);
    }
    std::move(tmp_k.begin(), tmp_k.end(), keys);
    std::move(tmp_m.begin(), tmp_m.end(), msgs);
    if (with_seq) {
      for (std::uint32_t i = 0; i < cnt; ++i) tmp_k[i] = seqs[order[i]];
      std::move(tmp_k.begin(), tmp_k.end(), seqs);
    }
  }

  /// Merge last round's per-(worker, shard) bins into contiguous
  /// per-receiver inbox ranges. Sends were binned by destination shard
  /// at enqueue time, so the only serial work is a prefix sum over the
  /// W×S bin sizes, which fixes each shard's slice of the delivery
  /// columns. Then, per shard: counting-sort bins (0,s) … (W−1,s), read
  /// in worker order, by receiver into the shard's slice, and put each
  /// inbox range into incidence order. Every vertex-indexed access
  /// (stamps, counts, offsets) falls in the shard's contiguous id range,
  /// which is sized to L2.
  ///
  /// Per message the sweep moves {to, key[, seq]} plus the payload and
  /// nothing else. O(messages + W×S). Shard tasks touch disjoint bins
  /// and disjoint slices, so the per-shard work runs shard-parallel
  /// under a pool. The same task assembles the shard's active set
  /// (collect_active) before laying out its inboxes, so the inboxes sit
  /// in the order the step loop visits them; a round with nothing to
  /// deliver assembles the active sets serially instead of paying a
  /// pool dispatch for wakes alone.
  void build_inboxes(bool tmetrics, bool ttrace, bool all) {
    const bool tel = tmetrics || ttrace;
    telemetry::Tracer& tracer = telemetry::Tracer::global();
    telemetry::EventLog& elog = telemetry::EventLog::global();
    const bool tevents = elog.recording();
    // Fault seam: one branch per round while no injector is attached; the
    // serial pass mutates only the per-worker bins plus the delayed
    // queue, before any counting begins.
    if (faults_ != nullptr && faults_->message_faults()) {
      inject_message_faults();
    }
    const bool with_seq = seq_on_;
    dlv_key_.clear();
    dlv_seq_.clear();
    dlv_msg_.clear();
    for (std::vector<NodeId>& sa : shard_active_) sa.clear();

    // Phase 1: shard s's slice starts after every bin of shards < s.
    const std::uint64_t t_p1 = tel ? telemetry::now_ns() : 0;
    const unsigned num_shards = plan_.count;
    shard_off_.resize(num_shards + 1);
    std::size_t total = 0;
    for (unsigned s = 0; s < num_shards; ++s) {
      shard_off_[s] = total;
      for (const PerWorker& w : workers_) total += w.bins[s].size();
    }
    shard_off_[num_shards] = total;
    if (total == 0) {
      for (unsigned s = 0; s < num_shards; ++s) collect_active(s, all);
      return;
    }
    const std::uint64_t t_p1_end = tel ? telemetry::now_ns() : 0;
    if (tmetrics) {
      telemetry::EngineMetrics::get().exchange_p1_ns.record(t_p1_end - t_p1);
    }
    if (ttrace) {
      tracer.emit("engine.exchange.p1", "engine", t_p1, t_p1_end - t_p1,
                  {{"round", static_cast<double>(round_)},
                   {"msgs", static_cast<double>(total)}});
    }
    if (tevents) {
      elog.emit(telemetry::EventKind::kExchange, round_, /*phase=*/1,
                /*shard=*/0, total);
    }

    // Phase 2: within each shard, counting-sort by receiver. A shard's
    // deliveries occupy exactly its slice [shard_off_[s], shard_off_[s+1])
    // of the delivery columns, so shards are independent.
    dlv_key_.resize(total);
    if (with_seq) dlv_seq_.resize(total);
    dlv_msg_.resize(total);
    const std::uint32_t tag = epoch();
    auto build_shard = [&](unsigned s) {
      const std::size_t sb = shard_off_[s];
      const std::size_t se = shard_off_[s + 1];
      if (sb == se) {
        collect_active(s, all);
        return;
      }
      const std::uint64_t t_s0 = tel ? telemetry::now_ns() : 0;
      // Receivers enter the shard's active set first; then collect_active
      // adds the due wakes and orders the set.
      std::vector<NodeId>& act = shard_active_[s];
      for (const PerWorker& w : workers_) {
        for (const NodeId to : w.bins[s].to) {
          InboxMeta& im = inbox_meta_[to];
          if (im.stamp != tag) {
            im.stamp = tag;
            im.cnt = 0;
            mark_active(act, to);
          }
          ++im.cnt;
        }
      }
      collect_active(s, all);
      // Each receiver's inbox range, laid out in active-set order (woken
      // members without mail carry a stale stamp and are skipped).
      std::uint32_t off = static_cast<std::uint32_t>(sb);
      for (const NodeId v : act) {
        InboxMeta& im = inbox_meta_[v];
        if (im.stamp != tag) continue;
        im.off = off;
        im.cur = off;
        off += im.cnt;
      }
      for (PerWorker& w : workers_) {
        Bin& b = w.bins[s];
        for (std::size_t i = 0; i < b.size(); ++i) {
          const std::size_t pos = inbox_meta_[b.to[i]].cur++;
          dlv_key_[pos] = b.key[i];
          if (with_seq) dlv_seq_[pos] = b.seq[i];
          dlv_msg_[pos] = std::move(b.msg[i]);
        }
        b.clear();
      }
      const std::uint64_t t_s1 = tel ? telemetry::now_ns() : 0;
      for (const NodeId v : act) {
        const InboxMeta& im = inbox_meta_[v];
        if (im.stamp == tag) sort_inbox(im.off, im.cnt, with_seq);
      }
      if (faults_ != nullptr && faults_->reorder()) {
        // Deterministic per-(receiver, round) Fisher-Yates over the
        // sorted inbox: the permutation depends on neither thread nor
        // shard assignment, so perturbed executions stay reproducible.
        for (const NodeId r : act) {
          const std::uint32_t cnt = inbox_meta_[r].cnt;
          if (inbox_meta_[r].stamp != tag || cnt < 2) continue;
          Rng rr = faults_->reorder_rng(r, round_);
          const std::size_t base = inbox_meta_[r].off;
          for (std::uint32_t i = cnt; i > 1; --i) {
            const std::uint32_t j = rr.below(i);
            std::swap(dlv_key_[base + i - 1], dlv_key_[base + j]);
            if (with_seq) std::swap(dlv_seq_[base + i - 1], dlv_seq_[base + j]);
            std::swap(dlv_msg_[base + i - 1], dlv_msg_[base + j]);
          }
          faults_->note_reordered();
        }
      }
      if (tel) {
        const std::uint64_t t_s2 = telemetry::now_ns();
        if (tmetrics) {
          telemetry::EngineMetrics& em = telemetry::EngineMetrics::get();
          em.exchange_p2_ns.record(t_s1 - t_s0);
          em.inbox_sort_ns.record(t_s2 - t_s1);
          em.shard_exchange_ns.add(s, t_s2 - t_s0);
        }
        if (ttrace) {
          const auto rd = static_cast<double>(round_);
          const auto sh = static_cast<double>(s);
          tracer.emit("engine.exchange.p2", "engine", t_s0, t_s1 - t_s0,
                      {{"shard", sh},
                       {"round", rd},
                       {"msgs", static_cast<double>(se - sb)}});
          tracer.emit("engine.inbox.sort", "engine", t_s1, t_s2 - t_s1,
                      {{"shard", sh}, {"round", rd}});
        }
      }
      if (tevents) {
        // Safe shard-parallel: events land in per-thread buffers.
        elog.emit(telemetry::EventKind::kExchange, round_, /*phase=*/2, s,
                  se - sb);
      }
    };
    if (pool_ != nullptr && pool_->num_threads() > 1 && num_shards > 1) {
      pool_->parallel_for_workers(
          0, num_shards, 1,
          [&](unsigned, std::size_t begin, std::size_t end) {
            for (std::size_t s = begin; s < end; ++s) {
              build_shard(static_cast<unsigned>(s));
            }
          });
    } else {
      for (unsigned s = 0; s < num_shards; ++s) build_shard(s);
    }
    // No materialization pass follows: inbox_of() hands out views over
    // the delivery columns directly.
  }

  /// Add v to a shard's active set unless its bit says it is listed.
  void mark_active(std::vector<NodeId>& act, NodeId v) {
    std::uint64_t& word = active_bits_[v >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    if ((word & bit) == 0) {
      word |= bit;
      act.push_back(v);
    }
  }

  /// Complete shard s's active set, which holds its receivers: drain
  /// every worker's wake slot of this round for the shard, adding the
  /// woken nodes unless the round steps every node, then clear the
  /// shard's bits. A set with at least one member per 64 ids is rebuilt
  /// from the bits in ascending id order, so the step loop walks node
  /// state, CSR rows and inboxes forward; a sparser one keeps arrival
  /// order, so the pass stays O(members). Touches only shard s's bins
  /// and vertex range.
  void collect_active(unsigned s, bool all) {
    std::vector<NodeId>& act = shard_active_[s];
    for (PerWorker& w : workers_) {
      std::vector<NodeId>& due = w.bins[s].wake[round_ % kMaxWakeDelay];
      if (!all) {
        for (const NodeId v : due) mark_active(act, v);
      }
      due.clear();
    }
    const std::size_t wb = plan_.shard_begin(s) >> 6;
    const std::size_t we = (std::size_t{plan_.shard_end(s)} + 63) >> 6;
    if (act.size() < we - wb) {
      for (const NodeId v : act) {
        active_bits_[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
      }
      return;
    }
    act.clear();
    for (std::size_t i = wb; i < we; ++i) {
      for (std::uint64_t word = active_bits_[i]; word != 0;
           word &= word - 1) {
        act.push_back(static_cast<NodeId>((i << 6) + std::countr_zero(word)));
      }
      active_bits_[i] = 0;
    }
  }

  InboxView inbox_of(NodeId v) const {
    const InboxMeta& im = inbox_meta_[v];
    if (dlv_key_.empty() || im.stamp != epoch()) return {};
    const GraphStore& s = graph_->store();
    const std::uint64_t base = s.offsets[v];
    return InboxView(dlv_key_.data() + im.off, dlv_msg_.data() + im.off,
                     s.adj_to.data() + base, s.adj_edge.data() + base,
                     im.cnt);
  }

  const Graph* graph_;
  std::uint64_t seed_;
  Meter meter_;
  ThreadPool* pool_;
  ShardPlan plan_;

  // Epoch-stamped directed channels (double-send detection) fused with
  // the precomputed receiver-side incidence position per channel.
  std::vector<ArcMeta> arc_meta_;  // 2m

  // This round's mailbox, as receiver-grouped, inbox-ordered delivery
  // columns (dlv_*), plus the per-receiver range bookkeeping (all
  // stamped by round, so none of it is ever swept). The seq column
  // stays empty unless message faults are active.
  std::vector<std::uint32_t> dlv_key_;
  std::vector<std::uint32_t> dlv_seq_;
  std::vector<M> dlv_msg_;
  std::vector<std::size_t> shard_off_;  // shards+1
  std::vector<InboxMeta> inbox_meta_;   // n

  // Active-set scheduling state: each shard's active set (receivers,
  // woken and activated nodes); active_off_ is their sizes' prefix sum.
  std::vector<std::vector<NodeId>> shard_active_;
  std::vector<std::size_t> active_off_;      // shards+1
  std::vector<std::uint64_t> active_bits_;   // n bits: listed this round
  bool step_all_ = false;
  bool initial_restricted_ = false;

  std::vector<PerWorker> workers_;

  faults::MessageFaultInjector* faults_ = nullptr;  // not owned
  bool seq_on_ = false;  // maintain seq columns (message faults active)
  std::vector<PendingRec> delayed_;
  std::vector<PendingRec> dup_buf_;

  std::uint64_t round_ = 0;
  std::uint32_t epoch_base_ = 0;  // epoch() of round 0 (see kNeverEpoch)
  std::uint64_t pending_ = 0;  // messages awaiting delivery next round
  std::uint64_t delivered_last_round_ = 0;
  std::uint64_t delivered_total_ = 0;  // cumulative (progress board)
  std::uint64_t stepped_last_round_ = 0;
  NetStats stats_;
};

}  // namespace lps
