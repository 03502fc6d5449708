#include "telemetry/event_log.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

namespace lps::telemetry {

namespace {

struct KindRow {
  const char* name;
  const char* a;
  const char* b;
  const char* c;
};

// Indexed by EventKind; the wire names are part of the event-log schema
// (DESIGN.md §14) — tools/trace_summary --events depends on them.
constexpr KindRow kKindTable[kEventKinds] = {
    {"round", "delivered", "sent", "stepped"},
    {"exchange", "phase", "shard", "msgs"},
    {"drop", "edge", "from", nullptr},
    {"dup", "edge", "from", nullptr},
    {"delay", "edge", "from", "rounds"},
    {"crash", "vertex", "epoch", nullptr},
    {"revive", "vertex", "epoch", nullptr},
    {"cut", "u", "v", "epoch"},
    {"reinsert", "u", "v", "epoch"},
    {"resync", "sweep", "perturbed", nullptr},
    {"rebuild", "size_before", "size_after", nullptr},
    {"watchdog", "last_round", "delivered", nullptr},
};

}  // namespace

const char* event_kind_name(EventKind k) noexcept {
  const auto i = static_cast<unsigned>(k);
  return i < kEventKinds ? kKindTable[i].name : "unknown";
}

std::array<const char*, 3> event_arg_names(EventKind k) noexcept {
  const auto i = static_cast<unsigned>(k);
  if (i >= kEventKinds) return {nullptr, nullptr, nullptr};
  return {kKindTable[i].a, kKindTable[i].b, kKindTable[i].c};
}

EventLog& EventLog::global() {
  static EventLog log;
  return log;
}

void EventLog::set_recording(bool on) noexcept {
  recording_.store(on, std::memory_order_relaxed);
}

void EventLog::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& buf : buffers_) buf->events.clear();
  total_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

void EventLog::set_capacity(std::size_t max_events) {
  capacity_.store(max_events, std::memory_order_relaxed);
}

EventLog::Buffer& EventLog::local_buffer() {
  // One buffer per (thread, EventLog) pair, registered once; the
  // raw pointer stays valid because buffers_ holds unique_ptrs and is
  // never pruned while the process runs (same lifetime contract as
  // Tracer::local_buffer).
  thread_local Buffer* tl_buffer = nullptr;
  thread_local const EventLog* tl_owner = nullptr;
  if (tl_buffer == nullptr || tl_owner != this) {
    auto owned = std::make_unique<Buffer>();
    owned->events.reserve(256);
    Buffer* raw = owned.get();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::move(owned));
    }
    tl_buffer = raw;
    tl_owner = this;
  }
  return *tl_buffer;
}

void EventLog::emit(EventKind kind, std::uint64_t round, std::uint64_t a,
                    std::uint64_t b, std::uint64_t c) {
  if (!recording()) return;
  if (total_.fetch_add(1, std::memory_order_relaxed) >=
      capacity_.load(std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  local_buffer().events.push_back(
      Event{kind, round, static_cast<std::uint64_t>(now_ns()), a, b, c});
}

std::size_t EventLog::events() const noexcept {
  const std::size_t total = total_.load(std::memory_order_relaxed);
  const std::size_t dropped = dropped_.load(std::memory_order_relaxed);
  return total > dropped ? total - dropped : 0;
}

std::size_t EventLog::dropped() const noexcept {
  return dropped_.load(std::memory_order_relaxed);
}

std::vector<Event> EventLog::snapshot() const {
  std::vector<Event> merged;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t total = 0;
    for (const auto& buf : buffers_) total += buf->events.size();
    merged.reserve(total);
    for (const auto& buf : buffers_)
      merged.insert(merged.end(), buf->events.begin(), buf->events.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Event& x, const Event& y) {
                     if (x.ns != y.ns) return x.ns < y.ns;
                     return x.round < y.round;
                   });
  return merged;
}

std::vector<Event> EventLog::tail(std::size_t n) const {
  std::vector<Event> all = snapshot();
  if (all.size() > n) all.erase(all.begin(), all.end() - static_cast<std::ptrdiff_t>(n));
  return all;
}

std::string EventLog::to_json_line(const Event& e) {
  std::ostringstream os;
  os << "{\"ev\":\"" << event_kind_name(e.kind) << "\",\"round\":" << e.round
     << ",\"ns\":" << e.ns;
  const auto names = event_arg_names(e.kind);
  const std::uint64_t args[3] = {e.a, e.b, e.c};
  for (int i = 0; i < 3; ++i) {
    if (names[static_cast<std::size_t>(i)] != nullptr)
      os << ",\"" << names[static_cast<std::size_t>(i)]
         << "\":" << args[i];
  }
  os << "}";
  return os.str();
}

void EventLog::write_jsonl(std::ostream& os) const {
  for (const Event& e : snapshot()) os << to_json_line(e) << "\n";
}

bool EventLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_jsonl(out);
  return static_cast<bool>(out);
}

}  // namespace lps::telemetry
