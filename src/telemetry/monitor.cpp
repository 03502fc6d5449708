#include "telemetry/monitor.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <vector>

#include "telemetry/event_log.hpp"

namespace lps::telemetry {

ProgressBoard& ProgressBoard::global() {
  static ProgressBoard board;
  return board;
}

void ProgressBoard::set_publishing(bool on) noexcept {
  detail::set_sink(kProgress, on);
}

void ProgressBoard::publish(std::uint64_t round, std::uint64_t delivered_total,
                            std::uint64_t active_nodes,
                            std::uint64_t heartbeat_ns) noexcept {
  bool expected = false;
  if (!writer_busy_.compare_exchange_strong(expected, true,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed))
    return;  // another publish in flight; this one is superseded anyway
  seq_.fetch_add(1, std::memory_order_release);  // -> odd
  round_.store(round, std::memory_order_relaxed);
  delivered_.store(delivered_total, std::memory_order_relaxed);
  active_.store(active_nodes, std::memory_order_relaxed);
  heartbeat_.store(heartbeat_ns, std::memory_order_relaxed);
  seq_.fetch_add(1, std::memory_order_release);  // -> even
  writer_busy_.store(false, std::memory_order_release);
}

bool ProgressBoard::read(ProgressSnapshot& out) const noexcept {
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::uint64_t s0 = seq_.load(std::memory_order_acquire);
    if (s0 == 0) return false;  // never published
    if (s0 & 1) continue;       // write in flight
    ProgressSnapshot snap;
    snap.round = round_.load(std::memory_order_relaxed);
    snap.delivered_total = delivered_.load(std::memory_order_relaxed);
    snap.active_nodes = active_.load(std::memory_order_relaxed);
    snap.heartbeat_ns = heartbeat_.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (seq_.load(std::memory_order_relaxed) == s0) {
      out = snap;
      return true;
    }
  }
  return false;
}

Monitor::Monitor(MonitorOptions opts) : opts_(std::move(opts)) {
  if (opts_.interval_ms < 10) opts_.interval_ms = 10;
  ProgressBoard::global().set_publishing(true);
  started_ = true;
  thread_ = std::thread([this] { run(); });
}

Monitor::~Monitor() { stop(); }

void Monitor::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_ || stop_requested_) {
      stop_requested_ = true;
      return;
    }
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  ProgressBoard::global().set_publishing(false);
}

void Monitor::emit_status(const ProgressSnapshot& snap, bool have_snap,
                          double msgs_per_sec) {
  if (opts_.out == nullptr) return;
  std::ostringstream line;
  line << "monitor";
  if (!opts_.label.empty()) line << "[" << opts_.label << "]";
  if (have_snap) {
    line << ": round=" << snap.round << " msgs/s=";
    const auto old_flags = line.flags();
    line.precision(3);
    line << std::fixed << (msgs_per_sec >= 0 ? msgs_per_sec : 0.0);
    line.flags(old_flags);
    line << " active=" << snap.active_nodes
         << " delivered=" << snap.delivered_total;
  } else {
    line << ": waiting for first round";
  }
  (*opts_.out) << line.str() << "\n";
  opts_.out->flush();
}

void Monitor::dump_stall(const ProgressSnapshot& snap, bool have_snap,
                         std::uint64_t quiet_ns) {
  std::ostream& os = opts_.out != nullptr ? *opts_.out : std::cerr;
  os << "watchdog: stall detected: no progress for " << quiet_ns / 1000000
     << " ms (deadline " << opts_.stall_timeout_ms << " ms)\n";
  if (have_snap) {
    os << "watchdog: state: round=" << snap.round
       << " delivered=" << snap.delivered_total
       << " active=" << snap.active_nodes
       << " heartbeat_age_ms=" << (now_ns() - snap.heartbeat_ns) / 1000000
       << "\n";
  } else {
    os << "watchdog: state: no round has completed since the monitor "
          "started\n";
  }

  auto& elog = EventLog::global();
  elog.emit(EventKind::kWatchdog, have_snap ? snap.round : 0,
            have_snap ? snap.round : 0,
            have_snap ? snap.delivered_total : 0);
  const auto tail = elog.tail(32);
  os << "watchdog: event-log tail (" << tail.size() << " of " << elog.events()
     << " events):\n";
  for (const auto& e : tail) os << "  " << EventLog::to_json_line(e) << "\n";

  auto& em = EngineMetrics::get();
  const auto dump_indexed = [&os](const char* name,
                                  const std::vector<std::uint64_t>& v) {
    os << "watchdog: " << name << ":";
    if (v.empty()) os << " (empty)";
    for (std::size_t i = 0; i < v.size(); ++i) os << " [" << i << "]=" << v[i];
    os << "\n";
  };
  dump_indexed("shard_exchange_ns", em.shard_exchange_ns.values());
  dump_indexed("worker_busy_ns", em.worker_busy_ns.values());
  os << "watchdog: engine totals: rounds=" << em.rounds.value()
     << " messages_delivered=" << em.messages_delivered.value() << "\n";
  os.flush();
}

void Monitor::run() {
  auto& board = ProgressBoard::global();

  // Tick fast enough to honor the watchdog deadline with slack even
  // when the status interval is long.
  int tick_ms = opts_.interval_ms;
  if (opts_.stall_timeout_ms > 0)
    tick_ms = std::min(tick_ms, std::max(10, opts_.stall_timeout_ms / 4));

  ProgressSnapshot last{};
  bool have_last = false;
  std::uint64_t last_progress_ns = now_ns();
  std::uint64_t last_status_ns = 0;
  std::uint64_t last_status_delivered = 0;
  bool dumped = false;

  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_requested_) {
    cv_.wait_for(lock, std::chrono::milliseconds(tick_ms),
                 [this] { return stop_requested_; });
    if (stop_requested_) break;

    ProgressSnapshot snap;
    const bool have_snap = board.read(snap);
    const std::uint64_t now = now_ns();

    if (have_snap &&
        (!have_last || snap.round != last.round ||
         snap.delivered_total != last.delivered_total)) {
      last_progress_ns = now;
      last = snap;
      have_last = true;
      dumped = false;  // progress re-arms the watchdog
    }

    if (now - last_status_ns >=
        static_cast<std::uint64_t>(opts_.interval_ms) * 1000000ull) {
      double rate = -1.0;
      if (have_snap && last_status_ns != 0 && now > last_status_ns)
        rate = static_cast<double>(snap.delivered_total -
                                   last_status_delivered) *
               1e9 / static_cast<double>(now - last_status_ns);
      emit_status(snap, have_snap, rate);
      last_status_ns = now;
      last_status_delivered = have_snap ? snap.delivered_total : 0;
    }

    if (opts_.stall_timeout_ms > 0 && !dumped) {
      const std::uint64_t quiet = now - last_progress_ns;
      if (quiet >=
          static_cast<std::uint64_t>(opts_.stall_timeout_ms) * 1000000ull) {
        dump_stall(last, have_last, quiet);
        dumped = true;
        stalled_.store(true, std::memory_order_relaxed);
        if (opts_.abort_on_stall) std::_Exit(kWatchdogExitCode);
      }
    }
  }
}

}  // namespace lps::telemetry
