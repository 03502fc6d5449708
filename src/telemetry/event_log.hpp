// EventLog: the structured half of the observability layer (DESIGN.md
// §14). Where the Tracer records *spans* (how long a phase took), the
// EventLog records *facts* — typed, discrete occurrences with a round
// number and a monotonic-ns stamp:
//
//   round boundaries, shard-exchange phases, message-fault injections
//   (drop/dup/delay), vertex crashes and revivals, adversarial edge
//   cuts and re-insertions, client resyncs, maintainer rebuilds, and
//   watchdog dumps.
//
// The vocabulary is deliberately small and closed (EventKind): every
// consumer — the JSONL writer, tools/trace_summary --events, the
// watchdog's tail dump — switches over the same enum, so adding a kind
// is one enum entry plus one row in the name tables below.
//
// Events come from emit() or a phase's Probe::end() and are stored like
// the Tracer's spans, in a ThreadRecorder. Emission never feeds back
// into execution — an engine run with the event log on is bit-identical
// to one with it off (CTest-enforced across all 8 engine clients).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace lps::telemetry {

/// The closed event vocabulary. Numeric payloads a/b/c are interpreted
/// per kind (see event_arg_names); unused slots stay 0 and are omitted
/// from the JSONL record.
enum class EventKind : std::uint8_t {
  kRound,        // a=delivered, b=sent, c=stepped
  kExchange,     // a=phase (1|2), b=shard, c=msgs
  kFaultDrop,    // a=edge, b=from
  kFaultDup,     // a=edge, b=from
  kFaultDelay,   // a=edge, b=from, c=extra rounds
  kCrash,        // a=vertex, b=epoch
  kRevive,       // a=vertex, b=epoch
  kAdversarialCut,  // a=u, b=v, c=epoch
  kReinsert,     // a=u, b=v, c=epoch
  kResync,       // a=sweep, b=perturbed nodes
  kRebuild,      // a=size before, b=size after
  kWatchdog,     // a=last observed round, b=delivered total
};
inline constexpr unsigned kEventKinds = 12;

/// Stable wire name of a kind ("round", "crash", ...). Never nullptr.
const char* event_kind_name(EventKind k) noexcept;
/// Per-kind names of the a/b/c payload slots; a slot that does not
/// apply to the kind is nullptr.
std::array<const char*, 3> event_arg_names(EventKind k) noexcept;

/// One recorded event. `round` is the engine round (or fault epoch for
/// the graph-fault kinds); `ns` is telemetry::now_ns at emission.
struct Event {
  EventKind kind;
  std::uint64_t round;
  std::uint64_t ns;
  std::uint64_t a;
  std::uint64_t b;
  std::uint64_t c;
};

class EventLog {
 public:
  static EventLog& global();

  bool recording() const noexcept { return (sinks() & kEvents) != 0; }
  /// Start/stop event collection. Starting
  /// does NOT clear prior events; call reset() for a fresh log.
  void set_recording(bool on) noexcept;

  /// Drop all recorded events (buffers stay registered). Only call
  /// while no other thread is emitting.
  void reset() { events_.reset(); }
  /// Event cap across all threads; beyond it events are dropped and
  /// counted. Default 1M.
  void set_capacity(std::size_t max_events) {
    events_.set_capacity(max_events);
  }

  /// Record one event on the calling thread's buffer. Safe from any
  /// thread; a no-op unless recording(), so callers need no gate.
  void emit(EventKind kind, std::uint64_t round, std::uint64_t a = 0,
            std::uint64_t b = 0, std::uint64_t c = 0);

  std::size_t events() const noexcept { return events_.size(); }
  std::size_t dropped() const noexcept { return events_.dropped(); }

  /// All buffers merged and sorted by (ns, round) — the cross-thread
  /// timeline. snapshot()/write are for quiescent moments; they
  /// tolerate concurrent emission but may miss in-flight events.
  std::vector<Event> snapshot() const;
  /// The last `n` events of the merged timeline (the watchdog's dump).
  std::vector<Event> tail(std::size_t n) const;

  /// One JSON object per line: {"ev":"crash","round":3,"ns":...,
  /// "vertex":17,"epoch":3}. Returns false when the file cannot open.
  void write_jsonl(std::ostream& os) const;
  bool write_jsonl(const std::string& path) const;

  /// Render one event as its JSONL line (no trailing newline) — shared
  /// by write_jsonl and the watchdog's stderr tail dump.
  static std::string to_json_line(const Event& e);

 private:
  friend class Probe;
  EventLog() = default;

  ThreadRecorder<Event> events_;
};

}  // namespace lps::telemetry
