// Causal trace context: cheap per-thread identity that turns the obs
// layer's anonymous phase spans into per-route traces.
//
// The model (docs/OBSERVABILITY.md "Trace context"):
//
//   * A TRACE ID is a process-unique 64-bit id (relaxed fetch_add off one
//     global counter; 0 means "untraced").  One id is allocated per unit
//     of causally-related work: a CompiledBnb::route call, a
//     ResilientRouter route (the whole retry/fallback ladder shares it),
//     each batch item, each StreamEngine stream item.
//   * The CURRENT context is thread-local: {trace_id, parent_id}.  Every
//     LiveSpan that finishes on the thread stamps the current pair (plus
//     the thread's own small id) into its SpanRecord — propagation is
//     ambient, so the ScheduleCache lookup, the solve it misses into, and
//     the audit that follows all inherit the route's id with zero plumbing.
//   * PARENT links one trace to the trace that spawned it: a stream item's
//     parent is the enclosing StreamEngine::run trace, so an exported
//     trace reconstructs run -> item -> {solve, queue-wait, apply} even
//     though the three spans land on two different threads (the id rides
//     the ordered ring inside the StreamSlot).
//   * THREAD IDS are small dense per-process ids (1, 2, ...), assigned on
//     first use and cached thread-locally — stable tids for Chrome trace
//     export without the platform's opaque 64-bit handles.
//
// Cost: reading the context is two thread-local loads; establishing a
// scope is two stores each way.  Nothing allocates, so scopes are legal
// inside the zero-allocation steady state, and a root scope allocates an
// id only while telemetry is runtime-enabled — set_enabled(false) keeps
// the disabled span path at its documented one-relaxed-load cost.
//
// Compile-time kill switch: under -DBNB_OBS_OFF the BNB_OBS_TRACE_*
// macros declare a NullTraceScope / produce constant 0 ids, so the traced
// hot paths compile to exactly their pre-tracing form.  Both scope types
// are always defined (only the macros select) — same ODR story as
// LiveSpan/NullSpan in obs/span.hpp.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/span.hpp"

namespace bnb::obs {

/// The thread's current causal position: which trace new spans belong to
/// (0 = untraced) and which trace spawned it.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_id = 0;
};

namespace detail {
[[nodiscard]] TraceContext& tls_context() noexcept;
}  // namespace detail

/// Allocate a fresh process-unique trace id (never 0).
[[nodiscard]] std::uint64_t new_trace_id() noexcept;

/// The calling thread's current context (zeros when untraced).
[[nodiscard]] inline TraceContext current_context() noexcept {
  return detail::tls_context();
}

/// Small dense id of the calling thread (1, 2, ... in first-use order).
[[nodiscard]] std::uint32_t current_thread_id() noexcept;

/// RAII trace scope: installs a context for the enclosed work and restores
/// the previous one on exit.  The kRoot form starts a NEW trace only when
/// the thread is untraced — nested routers/engines inherit the outermost
/// caller's id instead of fragmenting one route into many traces.
class TraceScope {
 public:
  struct RootTag {};
  static constexpr RootTag kRoot{};

  TraceScope(std::uint64_t trace_id, std::uint64_t parent_id) noexcept
      : saved_(detail::tls_context()) {
    detail::tls_context() = TraceContext{trace_id, parent_id};
  }

  explicit TraceScope(RootTag) noexcept : saved_(detail::tls_context()) {
    if (saved_.trace_id == 0 && runtime_enabled()) {
      detail::tls_context() = TraceContext{new_trace_id(), 0};
    }
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope() { detail::tls_context() = saved_; }

  /// The context live inside this scope.
  [[nodiscard]] std::uint64_t trace_id() const noexcept {
    return detail::tls_context().trace_id;
  }

 private:
  TraceContext saved_;
};

/// The BNB_OBS_OFF stand-in: same surface, no code.
class NullTraceScope {
 public:
  struct RootTag {};
  static constexpr RootTag kRoot{};
  NullTraceScope(std::uint64_t, std::uint64_t) noexcept {}
  explicit NullTraceScope(RootTag) noexcept {}
  [[nodiscard]] std::uint64_t trace_id() const noexcept { return 0; }
};

}  // namespace bnb::obs

// Instrumentation entry points.  BNB_OBS_TRACE_ROOT(var) opens (or
// inherits) a trace for the rest of the scope; BNB_OBS_TRACE_CHILD binds
// the scope to an explicitly-carried context (stream items pulling their
// id off a ring slot).  Both compile out under -DBNB_OBS_OFF.
#ifndef BNB_OBS_OFF
#define BNB_OBS_TRACE_ROOT(var) \
  ::bnb::obs::TraceScope var { ::bnb::obs::TraceScope::kRoot }
#define BNB_OBS_TRACE_CHILD(var, trace_id, parent_id) \
  ::bnb::obs::TraceScope var { (trace_id), (parent_id) }
#else
#define BNB_OBS_TRACE_ROOT(var) \
  [[maybe_unused]] ::bnb::obs::NullTraceScope var { ::bnb::obs::NullTraceScope::kRoot }
#define BNB_OBS_TRACE_CHILD(var, trace_id, parent_id) \
  [[maybe_unused]] ::bnb::obs::NullTraceScope var { (trace_id), (parent_id) }
#endif
