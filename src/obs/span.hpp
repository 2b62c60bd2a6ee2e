// Structured route tracing: phase-scoped RAII spans over the fabric's
// control and data phases, recorded into per-phase latency histograms in
// the global MetricsRegistry and (optionally) into a lock-free SpanTrace
// ring for structured export.
//
// The span taxonomy mirrors the engine's phase split (docs/OBSERVABILITY.md):
//
//   kSolve      CompiledBnb::solve — arbiter trees + column passes (the
//               control-setup cost KR-Benes says to track separately)
//   kApply      CompiledBnb::apply / apply_words — O(N) schedule replay
//   kRoute      CompiledBnb::route — the fused clean/fault/trace path
//   kAudit      DeliveryAudit inside ResilientRouter::route
//   kDiagnose   ResilientRouter::diagnose — binary-search fault localization
//   kFallback   the behavioral spare-plane route after primary persistence
//   kStreamRun  one whole StreamEngine::run call
//   kSmallApply CompiledBnb::apply_small — register-resident small-N replay
//   kQueueWait  stream-item dwell time in the StreamEngine's ordered ring:
//               a PSEUDO-span recorded by the applier between the solver's
//               enqueue stamp and its own in-order pickup (queue-delay and
//               reorder-wait attribution; no code runs "inside" it)
//   kCacheLookup ScheduleCache general-lane probe, recorded only while a
//               trace sink is installed (the warm-hit path stays untimed
//               in steady state — see schedule_cache.cpp)
//
// CAUSALITY (obs/trace_context.hpp): every completed span additionally
// stamps the thread's current {trace_id, parent_id} and its dense thread
// id into the SpanRecord, so a trace export reconstructs which solve fed
// which apply across threads instead of a flat phase soup.
//
// Cost model: a LiveSpan is one relaxed atomic load when telemetry is
// runtime-disabled (set_enabled(false)), and two steady_clock reads plus a
// lock-free histogram record when enabled.  Nothing on the span path
// allocates — spans are legal inside the zero-allocation steady state
// (tests/test_engine.cpp asserts it with a trace sink installed).
//
// Compile-time kill switch: building with -DBNB_OBS_OFF (CMake option
// BNB_OBS=OFF, preset "obs-off") makes BNB_OBS_SPAN declare a NullSpan —
// an empty type with no clock reads, no atomics, no code — so the
// instrumented hot paths compile to exactly their pre-telemetry form.
// Both span types are always defined (only the macro selects), so mixed
// translation units never violate the ODR.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"

namespace bnb::obs {

enum class Phase : std::uint8_t {
  kSolve = 0,
  kApply,
  kRoute,
  kAudit,
  kDiagnose,
  kFallback,
  kStreamRun,
  kSmallApply,
  kQueueWait,
  kCacheLookup,
};
inline constexpr std::size_t kPhaseCount = 10;

[[nodiscard]] const char* to_string(Phase phase) noexcept;

/// Nanoseconds on the process steady clock.
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Runtime master switch for the timing spans (counters are unaffected —
/// the subsystem stats() adapters depend on them).  Defaults to enabled.
[[nodiscard]] inline bool runtime_enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool enabled) noexcept;

/// The per-phase latency histogram ("bnb_<phase>_ns") in the global
/// registry.  All phase histograms are created together on first use.
[[nodiscard]] Histogram& phase_histogram(Phase phase);

/// One completed span: the phase timing plus its causal identity (see
/// obs/trace_context.hpp; all-zero ids mean the span ran untraced).
struct SpanRecord {
  Phase phase = Phase::kSolve;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::uint64_t trace_id = 0;   ///< trace this span belongs to (0 = untraced)
  std::uint64_t parent_id = 0;  ///< trace that spawned trace_id (0 = root)
  std::uint32_t thread_id = 0;  ///< dense per-process thread id (0 = unknown)
};

/// Lossy lock-free ring of completed spans for structured trace export.
/// record() is wait-free and allocation-free from any thread; the ring
/// keeps the most recent `capacity` spans (older ones are overwritten, and
/// dropped() counts every such overwrite so overflow is visible instead of
/// silent).  snapshot() is exact under quiescence; during concurrent
/// recording a wrapped slot may be observed mid-overwrite (fields are
/// individually atomic, so the read is race-free but the record may mix
/// two spans) — the trace is a debugging surface, not an accounting one.
class SpanTrace {
 public:
  explicit SpanTrace(std::size_t capacity);

  void record(Phase phase, std::uint64_t start_ns, std::uint64_t duration_ns,
              std::uint64_t trace_id = 0, std::uint64_t parent_id = 0,
              std::uint32_t thread_id = 0) noexcept;

  /// Retained spans, oldest first.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  /// Total spans ever recorded (>= capacity means the ring wrapped).
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }
  /// Spans lost to ring overflow (recorded over a slot never snapshotted
  /// in between — the lossy contract made countable).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  void clear() noexcept;

 private:
  struct Slot {
    std::atomic<std::uint64_t> phase{0};
    std::atomic<std::uint64_t> start{0};
    std::atomic<std::uint64_t> duration{0};
    std::atomic<std::uint64_t> trace{0};
    std::atomic<std::uint64_t> parent{0};
    std::atomic<std::uint64_t> thread{0};
  };
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Install (or clear, with nullptr) the process-wide structured trace
/// sink; completed LiveSpans are mirrored into it while installed.  The
/// caller keeps ownership and must uninstall before destroying the trace.
void set_trace(SpanTrace* trace) noexcept;
[[nodiscard]] SpanTrace* trace() noexcept;

/// Record a completed phase directly (what ~LiveSpan calls): phase
/// histogram plus the installed trace sink, if any.  The three-argument
/// form stamps the calling thread's current trace context; the explicit
/// form is for pseudo-spans whose identity traveled out-of-band (the
/// stream queue-wait span carries its ids through the ring slot).
void record_phase(Phase phase, std::uint64_t start_ns, std::uint64_t duration_ns) noexcept;
void record_phase(Phase phase, std::uint64_t start_ns, std::uint64_t duration_ns,
                  std::uint64_t trace_id, std::uint64_t parent_id,
                  std::uint32_t thread_id) noexcept;

/// RAII phase span: times construction-to-finish() (or destruction) into
/// the phase histogram and the trace sink.  Does nothing at all when
/// telemetry is runtime-disabled.
class LiveSpan {
 public:
  explicit LiveSpan(Phase phase) noexcept : phase_(phase) {
    if (runtime_enabled()) {
      start_ = now_ns();
      armed_ = true;
    }
  }
  LiveSpan(const LiveSpan&) = delete;
  LiveSpan& operator=(const LiveSpan&) = delete;
  ~LiveSpan() { finish(); }

  /// End the span early (idempotent).
  void finish() noexcept {
    if (armed_) {
      record_phase(phase_, start_, now_ns() - start_);
      armed_ = false;
    }
  }

 private:
  std::uint64_t start_ = 0;
  Phase phase_;
  bool armed_ = false;
};

/// The BNB_OBS_OFF stand-in: same surface, no code.
class NullSpan {
 public:
  void finish() noexcept {}
};

}  // namespace bnb::obs

// Instrumentation entry point: BNB_OBS_SPAN(name, phase) declares a span
// variable covering the rest of the scope.  Compiled out (NullSpan, empty
// and branchless) when the tree is built with -DBNB_OBS_OFF.
#ifndef BNB_OBS_OFF
#define BNB_OBS_COMPILED 1
#define BNB_OBS_SPAN(var, phase) ::bnb::obs::LiveSpan var { phase }
#else
#define BNB_OBS_COMPILED 0
#define BNB_OBS_SPAN(var, phase) [[maybe_unused]] ::bnb::obs::NullSpan var {}
#endif
