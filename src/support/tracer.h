// Scoped tracing with Chrome trace-event JSON export.
//
// A Tracer records completed spans — (name, category, begin, duration,
// thread) — into per-thread buffers and serializes them in the Chrome
// `chrome://tracing` / Perfetto "traceEvents" format, so a mapping run can
// be inspected on a real timeline (DP stage sweeps, evaluator tabulation,
// thread-pool workers, simulator runs).
//
// Cost model mirrors support/metrics.h: recording is gated on one relaxed
// atomic load; a span taken while tracing is disabled never reads the
// clock. Buffers are per thread (a thread only ever locks its own buffer
// mutex, uncontended, except while an export drains them), and the global
// tracer is intentionally leaked so pool workers may record during
// process teardown.
//
// Span names follow the metrics naming convention ("dp.stage",
// "pool.worker", ...) and must be string literals — events store the
// pointer, not a copy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pipemap {

class Tracer {
 public:
  /// One recorded event. Wall-clock spans carry timestamps in nanoseconds
  /// since the process epoch (first clock use), so every such event in one
  /// export shares a timebase. Events recorded on an explicit *lane*
  /// (RecordLaneSpan / RecordCounter) instead carry a caller-chosen
  /// timebase — the simulators use simulated nanoseconds — and are
  /// exported under a separate Chrome process so the two timelines never
  /// visually interleave.
  struct Event {
    enum class Kind : std::uint8_t {
      kSpan,     // "ph":"X" complete event
      kCounter,  // "ph":"C" counter sample
    };
    const char* name = nullptr;      // string literal
    const char* category = nullptr;  // string literal
    std::int64_t arg = -1;           // free-form payload; -1 = none
    std::uint64_t begin_ns = 0;
    std::uint64_t dur_ns = 0;
    int tid = 0;        // dense tracer-assigned thread index
    Kind kind = Kind::kSpan;
    int lane = -1;      // >= 0: explicit virtual lane (e.g. sim instance)
    double value = 0.0; // counter sample value (kCounter only)
  };

  /// The process-wide tracer the PIPEMAP_TRACE_SPAN macro records into.
  static Tracer& Global();

  static bool Enabled();
  void Enable(bool on);

  /// Nanoseconds since the process epoch.
  static std::uint64_t NowNs();

  /// Appends a completed span for the calling thread. Thread-safe.
  void Record(const char* name, const char* category, std::uint64_t begin_ns,
              std::uint64_t dur_ns, std::int64_t arg = -1);

  /// Appends a completed span on an explicit virtual lane instead of the
  /// calling thread's row — e.g. one lane per simulated module instance.
  /// Timestamps are whatever timebase the caller keeps (the simulators
  /// pass simulated nanoseconds). Thread-safe.
  void RecordLaneSpan(const char* name, const char* category, int lane,
                      std::uint64_t begin_ns, std::uint64_t dur_ns,
                      std::int64_t arg = -1);

  /// Appends a Chrome counter sample ("ph":"C") on a virtual lane —
  /// e.g. a module's input-queue depth over simulated time. Thread-safe.
  void RecordCounter(const char* name, const char* category, int lane,
                     std::uint64_t ts_ns, double value);

  /// Names a virtual lane for the export (emitted as thread_name
  /// metadata), e.g. "m1/i0". Thread-safe; last writer wins.
  void NameLane(int lane, const std::string& name);

  /// All completed spans, sorted by (begin_ns, tid). Safe to call while
  /// other threads record.
  std::vector<Event> Events() const;

  /// Chrome trace-event JSON: {"displayTimeUnit": "ms", "traceEvents":
  /// [...]} with one "ph":"X" (complete) event per span and one "ph":"C"
  /// event per counter sample, timestamps in microseconds, sorted by
  /// begin time. Wall-clock threads export as pid 1; virtual lanes as
  /// pid 2 with thread_name metadata from NameLane.
  std::string ToChromeJson() const;

  /// Drops all recorded events (buffers stay registered).
  void Clear();

  /// RAII span: samples the clock on construction if tracing is enabled,
  /// records on destruction. A span constructed while tracing is disabled
  /// stays inert even if tracing is enabled before it closes.
  class Span {
   public:
    explicit Span(const char* name, const char* category = "pipemap",
                  std::int64_t arg = -1)
        : name_(name),
          category_(category),
          arg_(arg),
          active_(Tracer::Enabled()),
          begin_ns_(active_ ? NowNs() : 0) {}
    ~Span() {
      if (active_) {
        Tracer::Global().Record(name_, category_, begin_ns_,
                                NowNs() - begin_ns_, arg_);
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    const char* const name_;
    const char* const category_;
    const std::int64_t arg_;
    const bool active_;
    const std::uint64_t begin_ns_;
  };

 private:
  Tracer();
  struct Impl;
  Impl* impl_;
};

}  // namespace pipemap

#define PIPEMAP_TRACE_CONCAT_IMPL_(a, b) a##b
#define PIPEMAP_TRACE_CONCAT_(a, b) PIPEMAP_TRACE_CONCAT_IMPL_(a, b)
/// Declares a block-scoped span: PIPEMAP_TRACE_SPAN("dp.stage", "dp", j);
#define PIPEMAP_TRACE_SPAN(...)                                  \
  ::pipemap::Tracer::Span PIPEMAP_TRACE_CONCAT_(                 \
      pipemap_trace_span_, __LINE__) {                           \
    __VA_ARGS__                                                  \
  }
