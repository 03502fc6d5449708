#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "telemetry/event_log.hpp"

namespace lps::telemetry {

namespace detail {
std::atomic<unsigned> g_sinks{0};
void set_sink(unsigned sink, bool on) noexcept {
  if (on) {
    g_sinks.fetch_or(sink, std::memory_order_relaxed);
  } else {
    g_sinks.fetch_and(~sink, std::memory_order_relaxed);
  }
}
}  // namespace detail

void set_enabled(bool on) noexcept { detail::set_sink(kMetrics, on); }

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

/// Stable small id for the calling thread, used to pick metric slots.
/// Ids beyond kSlots wrap — two threads may then share a slot, which
/// only costs atomic contention, never correctness.
unsigned thread_slot() noexcept {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned slot =
      next.fetch_add(1, std::memory_order_relaxed) % kSlots;
  return slot;
}

void atomic_max(std::atomic<std::uint64_t>& target, std::uint64_t v) noexcept {
  std::uint64_t cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

// ------------------------------------------------------------ histogram --

double HistogramSnapshot::percentile(double p) const noexcept {
  if (count == 0) return 0.0;
  p = std::min(100.0, std::max(0.0, p));
  // Rank of the percentile observation, 1-based.
  const double rank =
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(count)));
  std::uint64_t seen = 0;
  for (unsigned b = 0; b < kHistBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (static_cast<double>(seen + buckets[b]) >= rank) {
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(buckets[b]);
      const double lo = static_cast<double>(bucket_lo(b));
      const double hi = std::min(static_cast<double>(bucket_hi(b)),
                                 static_cast<double>(max) + 1.0);
      return std::min(lo + frac * (hi - lo), static_cast<double>(max));
    }
    seen += buckets[b];
  }
  return static_cast<double>(max);
}

HistogramSnapshot& HistogramSnapshot::operator-=(
    const HistogramSnapshot& o) noexcept {
  count -= o.count;
  sum -= o.sum;
  // max is not subtractable; keep the later (larger-window) max, which
  // upper-bounds the delta's true max.
  for (unsigned b = 0; b < kHistBuckets; ++b) buckets[b] -= o.buckets[b];
  return *this;
}

Histogram::Histogram() : slots_(new Slot[kSlots]) {}

void Histogram::record(std::uint64_t value) noexcept {
  record(value, thread_slot());
}

void Histogram::record(std::uint64_t value, unsigned slot) noexcept {
  Slot& s = slots_[slot % kSlots];
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
  atomic_max(s.max, value);
  s.buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const noexcept {
  HistogramSnapshot out;
  for (unsigned i = 0; i < kSlots; ++i) {
    const Slot& s = slots_[i];
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
    out.max = std::max(out.max, s.max.load(std::memory_order_relaxed));
    for (unsigned b = 0; b < kHistBuckets; ++b) {
      out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

void Histogram::reset() noexcept {
  for (unsigned i = 0; i < kSlots; ++i) {
    Slot& s = slots_[i];
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
    for (unsigned b = 0; b < kHistBuckets; ++b) {
      s.buckets[b].store(0, std::memory_order_relaxed);
    }
  }
}

// ------------------------------------------------------------- counters --

Counter::Counter() : slots_(new Slot[kSlots]) {}

void Counter::add(std::uint64_t delta) noexcept {
  slots_[thread_slot()].v.fetch_add(delta, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (unsigned i = 0; i < kSlots; ++i) {
    total += slots_[i].v.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() noexcept {
  for (unsigned i = 0; i < kSlots; ++i) {
    slots_[i].v.store(0, std::memory_order_relaxed);
  }
}

IndexedCounter::IndexedCounter()
    : slots_(new std::atomic<std::uint64_t>[kIndexedCapacity]) {
  for (std::size_t i = 0; i < kIndexedCapacity; ++i) {
    slots_[i].store(0, std::memory_order_relaxed);
  }
}

void IndexedCounter::add(std::size_t index, std::uint64_t delta) noexcept {
  if (index >= kIndexedCapacity) {
    dropped_.fetch_add(delta, std::memory_order_relaxed);
    return;
  }
  slots_[index].fetch_add(delta, std::memory_order_relaxed);
  std::size_t mark = watermark_.load(std::memory_order_relaxed);
  while (index + 1 > mark && !watermark_.compare_exchange_weak(
                                 mark, index + 1, std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> IndexedCounter::values() const {
  const std::size_t n = watermark_.load(std::memory_order_relaxed);
  std::vector<std::uint64_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = slots_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void IndexedCounter::reset() noexcept {
  for (std::size_t i = 0; i < kIndexedCapacity; ++i) {
    slots_[i].store(0, std::memory_order_relaxed);
  }
  watermark_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

// --------------------------------------------------------------- series --

void Series::push(std::uint64_t v) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (values_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  values_.push_back(v);
}

std::size_t Series::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return values_.size();
}

std::vector<std::uint64_t> Series::values_from(std::size_t from) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (from >= values_.size()) return {};
  return {values_.begin() + static_cast<std::ptrdiff_t>(from), values_.end()};
}

std::uint64_t Series::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void Series::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  values_.clear();
  dropped_ = 0;
}

// ------------------------------------------------------------- registry --

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

template <typename T>
T& MetricsRegistry::get(
    std::vector<std::pair<std::string, std::unique_ptr<T>>>& table,
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, value] : table) {
    if (key == name) return *value;
  }
  table.emplace_back(name, std::make_unique<T>());
  return *table.back().second;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return get(counters_, name);
}
Histogram& MetricsRegistry::histogram(const std::string& name) {
  return get(histograms_, name);
}
IndexedCounter& MetricsRegistry::indexed(const std::string& name) {
  return get(indexed_, name);
}
Series& MetricsRegistry::series(const std::string& name) {
  return get(series_, name);
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::counters()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [key, value] : counters_) {
    out.emplace_back(key, value->value());
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, value] : counters_) value->reset();
  for (auto& [key, value] : histograms_) value->reset();
  for (auto& [key, value] : indexed_) value->reset();
  for (auto& [key, value] : series_) value->reset();
}

EngineMetrics& EngineMetrics::get() {
  static MetricsRegistry& reg = MetricsRegistry::global();
  static EngineMetrics* instance = new EngineMetrics{
      reg.counter("engine.rounds"),
      reg.counter("engine.messages_delivered"),
      reg.histogram("engine.round_ns"),
      reg.histogram("engine.exchange_p1_ns"),
      reg.histogram("engine.exchange_p2_ns"),
      reg.histogram("engine.inbox_sort_ns"),
      reg.histogram("engine.step_ns"),
      reg.indexed("engine.shard_exchange_ns"),
      reg.indexed("engine.worker_busy_ns"),
      reg.series("engine.messages_per_round"),
  };
  return *instance;
}

// ---------------------------------------------------------------- probe --

std::uint64_t Probe::finish(Histogram* hist, const char* span,
                            const char* cat, std::initializer_list<Arg> args,
                            const PhaseEvent* event) const {
  const std::uint64_t t1 = now_ns();
  if (hist != nullptr && on(kMetrics)) hist->record(t1 - t0_);
  if (span != nullptr && on(kTrace)) {
    Tracer::global().record(span, cat, t0_, t1 - t0_, args);
  }
  if (event != nullptr && on(kEvents)) {
    EventLog::global().events_.push(Event{event->kind, event->round, t1,
                                          event->a, event->b, event->c});
  }
  return t1;
}

// --------------------------------------------------------------- tracer --

Tracer& Tracer::global() {
  static Tracer* instance = new Tracer();
  return *instance;
}

void Tracer::set_recording(bool on) noexcept { detail::set_sink(kTrace, on); }

const char* Tracer::intern(const std::string& s) {
  std::lock_guard<std::mutex> lock(intern_mutex_);
  for (const auto& existing : interned_) {
    if (*existing == s) return existing->c_str();
  }
  interned_.push_back(std::make_unique<std::string>(s));
  return interned_.back()->c_str();
}

void Tracer::record(const char* name, const char* cat, std::uint64_t ts_ns,
                    std::uint64_t dur_ns, std::initializer_list<Arg> args) {
  Span span{name, cat, ts_ns, dur_ns, 0, {}};
  for (const Arg& a : args) {
    if (span.argc >= span.args.size()) break;
    span.args[span.argc++] = a;
  }
  spans_.push(span);
}

void Tracer::emit(const char* name, const char* cat, std::uint64_t ts_ns,
                  std::uint64_t dur_ns, std::initializer_list<Arg> args) {
  if (recording()) record(name, cat, ts_ns, dur_ns, args);
}

namespace {

/// %g loses no precision for the small integers args usually hold and
/// stays compact for real fractions.
void append_number(std::string& out, double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out += buf;
}

}  // namespace

void Tracer::write_chrome_trace(std::ostream& os) const {
  // Rebase timestamps to the earliest event so `ts` stays well inside
  // double precision at nanosecond resolution.
  std::uint64_t t0 = ~std::uint64_t{0};
  spans_.for_each([&](const ThreadRecorder<Span>::Buffer& buffer) {
    for (const Span& e : buffer.records) t0 = std::min(t0, e.ts_ns);
  });
  if (t0 == ~std::uint64_t{0}) t0 = 0;

  os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  std::string line;
  spans_.for_each([&](const ThreadRecorder<Span>::Buffer& buffer) {
    if (!buffer.label.empty()) {
      line.clear();
      line += first ? "\n" : ",\n";
      first = false;
      line += "{\"ph\": \"M\", \"pid\": 1, \"tid\": ";
      line += std::to_string(buffer.tid);
      line += ", \"name\": \"thread_name\", \"args\": {\"name\": \"";
      line += buffer.label;  // labels are engine-generated, no escaping
      line += "\"}}";
      os << line;
    }
    for (const Span& e : buffer.records) {
      line.clear();
      line += first ? "\n" : ",\n";
      first = false;
      line += "{\"name\": \"";
      line += e.name;
      line += "\", \"cat\": \"";
      line += e.cat;
      line += "\", \"ph\": \"X\", \"pid\": 1, \"tid\": ";
      line += std::to_string(buffer.tid);
      line += ", \"ts\": ";
      append_number(line, static_cast<double>(e.ts_ns - t0) / 1000.0);
      line += ", \"dur\": ";
      append_number(line, static_cast<double>(e.dur_ns) / 1000.0);
      if (e.argc > 0) {
        line += ", \"args\": {";
        for (std::uint8_t i = 0; i < e.argc; ++i) {
          if (i > 0) line += ", ";
          line += '"';
          line += e.args[i].key;
          line += "\": ";
          append_number(line, e.args[i].value);
        }
        line += '}';
      }
      line += '}';
      os << line;
    }
  });
  os << "\n]}\n";
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os);
  return os.good();
}

}  // namespace lps::telemetry
