// Telemetry: low-overhead metrics, tracing and the one per-phase probe
// that feeds them (DESIGN.md §12).
//
//  * sinks() — the four runtime switches (metrics, trace, the EventLog
//    of event_log.hpp, the ProgressBoard of monitor.hpp) as bits of one
//    word, all off at start, read in one relaxed load.
//  * Probe — one instrumented phase: one sink read, a clock stamp only
//    when a sink is on, and one end() call that records the phase's
//    histogram sample, span and event, each only when its sink is on.
//  * MetricsRegistry — named counters, per-index counters, bounded
//    series, and fixed-bucket log-scale latency histograms, recorded
//    lock-free through cache-line-separated per-slot relaxed atomics
//    and merged only on read.
//  * Tracer — Chrome-trace/Perfetto spans (static name/category, ns
//    start + duration, thread id, up to three numeric args), stored
//    like the EventLog's events in a ThreadRecorder and folded into
//    one Chrome JSON document on write.
//
// Naming scheme: `<layer>.<quantity>[_<unit>]` — e.g. engine.round_ns,
// engine.shard_exchange_ns, lca.query_ns, dynamic.update_ns. Span names
// reuse the layer prefix as the Chrome `cat` ("engine", "lca",
// "dynamic", "api").
//
// Threading: recording is safe from any thread. snapshot()/write are
// meant for quiescent moments (between rounds / after a run); they
// tolerate concurrent recording but may observe a torn in-progress
// event count. Tracer::reset() must only run while no other thread is
// emitting.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lps::telemetry {

// ---------------------------------------------------- runtime switches --

/// Sink bits of sinks(). Each owner's setter flips its bit:
/// set_enabled, Tracer/EventLog::set_recording,
/// ProgressBoard::set_publishing.
enum : unsigned {
  kMetrics = 1u << 0,
  kTrace = 1u << 1,
  kEvents = 1u << 2,
  kProgress = 1u << 3,
};

namespace detail {
extern std::atomic<unsigned> g_sinks;
void set_sink(unsigned sink, bool on) noexcept;
}  // namespace detail

/// The sinks that are on: one relaxed load.
inline unsigned sinks() noexcept {
  return detail::g_sinks.load(std::memory_order_relaxed);
}

/// Whether metric recording is on.
inline bool enabled() noexcept { return (sinks() & kMetrics) != 0; }

/// Turn metric recording on/off.
void set_enabled(bool on) noexcept;

/// Monotonic nanoseconds (steady_clock). Only meaningful as a
/// difference or a span anchor; the tracer rebases on export.
std::uint64_t now_ns() noexcept;

// ------------------------------------------------------------ histogram --

/// Log-scale bucket layout: values 0..3 get exact buckets, then every
/// octave [2^k, 2^{k+1}) splits into 4 sub-buckets, so the relative
/// quantization error is at most 25% of the bucket's lower bound. 252
/// buckets cover the full uint64 range.
inline constexpr unsigned kSubBits = 2;
inline constexpr unsigned kHistBuckets = 252;
/// Per-slot arrays: threads hash onto slots so concurrent recording
/// never contends on one cache line; sums are order-independent, so
/// merged snapshots are deterministic for a fixed set of recordings.
inline constexpr unsigned kSlots = 32;

constexpr unsigned bucket_of(std::uint64_t v) noexcept {
  if (v < (std::uint64_t{1} << kSubBits)) return static_cast<unsigned>(v);
  const unsigned msb = std::bit_width(v) - 1;  // >= kSubBits
  const unsigned sub = static_cast<unsigned>(
      (v >> (msb - kSubBits)) & ((std::uint64_t{1} << kSubBits) - 1));
  return ((msb - 1) << kSubBits) | sub;
}

/// Inclusive lower bound of bucket b.
constexpr std::uint64_t bucket_lo(unsigned b) noexcept {
  if (b < (1u << kSubBits)) return b;
  const unsigned msb = (b >> kSubBits) + 1;
  const unsigned sub = b & ((1u << kSubBits) - 1);
  return (std::uint64_t{1} << msb) +
         (std::uint64_t{sub} << (msb - kSubBits));
}

/// Exclusive upper bound of bucket b.
constexpr std::uint64_t bucket_hi(unsigned b) noexcept {
  if (b + 1 >= kHistBuckets) return ~std::uint64_t{0};
  return bucket_lo(b + 1);
}

/// A merged, immutable view of a Histogram (also the unit of delta
/// arithmetic: runner snapshots before/after a phase and subtracts).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistBuckets> buckets{};

  double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Percentile in [0, 100], linearly interpolated inside the bucket
  /// containing the rank and clamped to the observed max.
  double percentile(double p) const noexcept;

  HistogramSnapshot& operator-=(const HistogramSnapshot& o) noexcept;
};

class Histogram {
 public:
  Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Record one value on the calling thread's slot. Lock-free.
  void record(std::uint64_t value) noexcept;
  /// Record on an explicit slot (workers with stable indices).
  void record(std::uint64_t value, unsigned slot) noexcept;

  HistogramSnapshot snapshot() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
  };
  std::unique_ptr<Slot[]> slots_;
};

// ------------------------------------------------------------- counters --

class Counter {
 public:
  Counter();
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta) noexcept;
  std::uint64_t value() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  std::unique_ptr<Slot[]> slots_;
};

/// A dense array of counters addressed by small index (shard id, worker
/// id). Capacity matches the engine's shard clamp.
inline constexpr std::size_t kIndexedCapacity = 4096;

class IndexedCounter {
 public:
  IndexedCounter();
  IndexedCounter(const IndexedCounter&) = delete;
  IndexedCounter& operator=(const IndexedCounter&) = delete;

  /// Indices >= kIndexedCapacity are dropped (counted in dropped()).
  void add(std::size_t index, std::uint64_t delta) noexcept;
  /// Values [0, watermark): watermark = highest index ever added + 1.
  std::vector<std::uint64_t> values() const;
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  void reset() noexcept;

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;
  std::atomic<std::size_t> watermark_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// An append-only bounded series (one value per engine round). Pushes
/// take a mutex — callers push at round granularity, never per message.
class Series {
 public:
  explicit Series(std::size_t capacity = 1 << 16) : capacity_(capacity) {}
  Series(const Series&) = delete;
  Series& operator=(const Series&) = delete;

  void push(std::uint64_t v);
  std::size_t size() const;
  /// Copy of entries [from, size()).
  std::vector<std::uint64_t> values_from(std::size_t from) const;
  std::uint64_t dropped() const;
  void reset();

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<std::uint64_t> values_;
  std::uint64_t dropped_ = 0;
};

// ------------------------------------------------------------- registry --

/// Process-global name -> instrument table. Lookup takes a mutex;
/// instruments are created on first use and never destroyed, so the
/// returned references are stable — hot paths resolve names once (see
/// EngineMetrics) and record lock-free thereafter.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);
  IndexedCounter& indexed(const std::string& name);
  Series& series(const std::string& name);

  std::vector<std::pair<std::string, std::uint64_t>> counters() const;

  /// Zero every instrument (names and references stay valid).
  void reset();

 private:
  MetricsRegistry() = default;
  template <typename T>
  T& get(std::vector<std::pair<std::string, std::unique_ptr<T>>>& table,
         const std::string& name);

  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
  std::vector<std::pair<std::string, std::unique_ptr<IndexedCounter>>>
      indexed_;
  std::vector<std::pair<std::string, std::unique_ptr<Series>>> series_;
};

/// The engine's instruments, resolved once (SyncNetwork is a template;
/// this keeps name lookups out of the round loop). All durations ns.
struct EngineMetrics {
  Counter& rounds;
  Counter& messages_delivered;
  Histogram& round_ns;        // whole run_round
  Histogram& exchange_p1_ns;  // shard offsets: prefix sum over send bins
  Histogram& exchange_p2_ns;  // per shard: sort by receiver + scatter
  Histogram& inbox_sort_ns;   // per shard: per-receiver incidence sort
  Histogram& step_ns;         // active-set step loop
  IndexedCounter& shard_exchange_ns;  // phase-2 ns by shard id
  IndexedCounter& worker_busy_ns;     // step-loop ns by worker id
  Series& messages_per_round;         // delivered per round

  static EngineMetrics& get();
};

// ---------------------------------------------------------------- probe --

/// One numeric span argument. Keys must be string literals (stored by
/// pointer).
struct Arg {
  const char* key;
  double value;
};

/// The closed event vocabulary, defined in event_log.hpp.
enum class EventKind : std::uint8_t;

/// The event a phase records when it ends (the probe stamps its ns).
struct PhaseEvent {
  EventKind kind;
  std::uint64_t round;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

/// One instrumented phase: the only way code outside src/telemetry
/// times work. Construction reads the sinks (or takes an earlier read,
/// so a round's phases share the round's one load) and stamps the clock
/// only when one is on; end() records the phase's histogram sample, its
/// span and its event in one call, each only when its sink is on.
class Probe {
 public:
  explicit Probe(unsigned on = telemetry::sinks()) noexcept
      : on_(on), t0_(on != 0 ? now_ns() : 0) {}
  /// Start where an earlier phase ended (its end() stamp): no clock read.
  Probe(unsigned on, std::uint64_t start_ns) noexcept
      : on_(on), t0_(start_ns) {}

  /// The sinks this probe read; pass them on to nested phases.
  unsigned sinks() const noexcept { return on_; }
  bool on(unsigned sink) const noexcept { return (on_ & sink) != 0; }
  std::uint64_t start_ns() const noexcept { return t0_; }

  /// Nanoseconds since the start, 0 when every sink is off.
  std::uint64_t elapsed_ns() const noexcept {
    return on_ != 0 ? now_ns() - t0_ : 0;
  }

  /// End the phase: a `hist` sample of its duration, a `span`/`cat`
  /// span with `args`, and `event`. A null hist or span records none.
  /// Returns the end stamp, 0 when every sink is off.
  std::uint64_t end(Histogram* hist, const char* span = nullptr,
                    const char* cat = nullptr,
                    std::initializer_list<Arg> args = {}) const {
    return on_ != 0 ? finish(hist, span, cat, args, nullptr) : 0;
  }
  std::uint64_t end(Histogram* hist, const char* span, const char* cat,
                    std::initializer_list<Arg> args,
                    const PhaseEvent& event) const {
    return on_ != 0 ? finish(hist, span, cat, args, &event) : 0;
  }

 private:
  std::uint64_t finish(Histogram* hist, const char* span, const char* cat,
                       std::initializer_list<Arg> args,
                       const PhaseEvent* event) const;

  unsigned on_;
  std::uint64_t t0_;
};

// -------------------------------------------------------------- recorder --

/// Per-thread record buffers under one process-wide cap (default 1M;
/// pushes past it are dropped and counted): the Tracer's spans and the
/// EventLog's events. A thread registers its buffer once, under the
/// mutex, and caches it in a thread_local: buffers are never freed and
/// each record type has one recorder, owned by a leaked singleton.
/// Reads merge under the mutex; reset() must only run while no other
/// thread pushes.
template <typename T>
class ThreadRecorder {
 public:
  struct Buffer {
    std::uint32_t tid = 0;  // registration order: the trace's tid
    std::string label;      // empty = unnamed
    std::vector<T> records;
  };

  void push(const T& record) {
    if (total_.fetch_add(1, std::memory_order_relaxed) >=
        capacity_.load(std::memory_order_relaxed)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    local().records.push_back(record);
  }

  /// Label the calling thread's buffer, registering it if need be.
  void set_label(const std::string& label) {
    Buffer& buf = local();
    std::lock_guard<std::mutex> lock(mutex_);
    buf.label = label;
  }

  /// Drop every record (buffers stay registered).
  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& buf : buffers_) buf->records.clear();
    total_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
  }
  void set_capacity(std::size_t max_records) noexcept {
    capacity_.store(max_records, std::memory_order_relaxed);
  }
  std::size_t size() const noexcept {
    const std::size_t total = total_.load(std::memory_order_relaxed);
    return total - std::min(total, dropped());
  }
  std::size_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Call f(buffer) on every buffer, in registration order, under the
  /// mutex.
  template <typename F>
  void for_each(F&& f) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buf : buffers_) f(*buf);
  }

 private:
  Buffer& local() {
    thread_local Buffer* buf = nullptr;
    if (buf == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::make_unique<Buffer>());
      buf = buffers_.back().get();
      buf->tid = static_cast<std::uint32_t>(buffers_.size() - 1);
    }
    return *buf;
  }

  std::atomic<std::size_t> total_{0};
  std::atomic<std::size_t> dropped_{0};
  std::atomic<std::size_t> capacity_{1u << 20};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// --------------------------------------------------------------- tracer --

class Tracer {
 public:
  static Tracer& global();

  bool recording() const noexcept { return (sinks() & kTrace) != 0; }
  /// Start/stop span collection. Starting
  /// does NOT clear prior events; call reset() for a fresh trace.
  void set_recording(bool on) noexcept;

  /// Drop all recorded events (buffers stay registered); the cap is 1M
  /// events. Only call while no other thread is emitting.
  void reset() { spans_.reset(); }

  /// Copy a dynamic string into tracer-owned storage, returning a
  /// pointer usable as a span name/category for the tracer's lifetime.
  const char* intern(const std::string& s);

  /// Label the calling thread in the exported trace ("worker-3").
  /// Registers the thread's buffer even while not recording, so labels
  /// set at thread spawn survive into later traces.
  void set_thread_label(const std::string& label) { spans_.set_label(label); }

  /// Record a complete span ("ph":"X") while recording(). `name` and
  /// `cat` must outlive the tracer (string literals or intern()ed). At
  /// most 3 args kept.
  void emit(const char* name, const char* cat, std::uint64_t ts_ns,
            std::uint64_t dur_ns, std::initializer_list<Arg> args = {});

  std::size_t events() const noexcept { return spans_.size(); }
  std::size_t dropped() const noexcept { return spans_.dropped(); }

  /// Fold all buffers into one Chrome-trace JSON document
  /// (Perfetto-loadable: {"traceEvents": [...], ...}; ts/dur in
  /// microseconds, rebased to the earliest event).
  void write_chrome_trace(std::ostream& os) const;
  /// Returns false (and writes nothing) when the file cannot open.
  bool write_chrome_trace(const std::string& path) const;

 private:
  friend class Probe;
  struct Span {
    const char* name;
    const char* cat;
    std::uint64_t ts_ns;
    std::uint64_t dur_ns;
    std::uint8_t argc;
    std::array<Arg, 3> args;
  };

  Tracer() = default;
  /// emit() without the recording() check (a Probe has read it).
  void record(const char* name, const char* cat, std::uint64_t ts_ns,
              std::uint64_t dur_ns, std::initializer_list<Arg> args);

  ThreadRecorder<Span> spans_;
  std::mutex intern_mutex_;
  std::vector<std::unique_ptr<std::string>> interned_;
};

}  // namespace lps::telemetry
