// Stage-overlapped streaming front end for the compiled engine.
//
// route_batch() parallelizes across whole permutations; StreamEngine instead
// pipelines WITHIN the route the way the paper's fabric does (Eq. 9 assumes
// the switches for frame k+1 settle while frame k drains): SOLVER workers
// run the arbiter-tree control solve for later permutations while the
// APPLIER replays the already-solved schedules of earlier ones, the two
// sides connected by one ordered ring of solved schedules.
//
//   * threads = T >= 2: T - 1 solver workers (never more than the run has
//     items) plus the applier on the calling thread.  Each worker claims
//     the next stream index from a shared counter, solves it into its own
//     reused slot, and publishes it into the ring cell that index names;
//     the applier retires the cells strictly in stream order.  Solve is
//     the expensive stage, so throughput scales with the solver count
//     until the applier (or the cores) run out.  threads = 2 is the same
//     ring with one solver.
//   * threads = 1 (or a 1-core host with threads = 0 auto): graceful
//     degeneration to an in-order solve+apply loop on the calling thread —
//     same results, no ring, no spawn.  threads = 0 resolves to the
//     CPUs in the calling thread's affinity mask on Linux
//     (sched_getaffinity), std::thread::hardware_concurrency() elsewhere.
//   * Options::cache: an optional ScheduleCache consulted before solving;
//     hits skip the solve stage entirely (repeated traffic streams at
//     apply-only speed) and misses populate the cache.
//   * SMALL LANE: plans with m <= SmallSchedule::kMaxM stream flattened
//     SmallSchedules (core/small_schedule.hpp) by value — through the
//     cache's small lane and the ring cells alike — so small-N traffic
//     pays no shared_ptr allocation per permutation and replays in
//     registers on the applier side.
//
// RESILIENCE (docs/RELIABILITY.md).  The engine fails loudly and in
// bounded time instead of blocking or dying with the batch:
//
//   * ADMISSION: Options::admission_limit bounds how many permutations one
//     run() accepts.  An oversized stream throws stream_overload_error up
//     front (strict mode) or routes the admitted prefix and marks the
//     excess kShed in Result::status (isolate_errors mode) — an explicit
//     shed path instead of unbounded queue growth.
//   * PER-ITEM ERROR ISOLATION: with Options::isolate_errors a fault on
//     permutation k no longer kills permutations k+1..n.  The failing item
//     is marked kFailed in Result::status (its dest rows read zero), the
//     stream keeps going, and Stats::failed counts the damage.  With
//     isolation off the historic first-error-wins contract holds: the
//     first thread to throw records its permutation index, every thread
//     drains, and the error is rethrown on the calling thread as
//     batch_route_error (carrying every failing index observed, in the
//     order they were recorded).
//   * WATCHDOG: with Options::watchdog_timeout_ms, a pipelined thread that
//     waits on the ring longer than the timeout without ANY stream
//     progress (no publish, no retire) declares the stream stalled: the
//     stream stops and run() throws stream_stall_error with a
//     solved/applied diagnostic instead of spinning forever.  (One stuck
//     solver among several trips it too: the others fill the ring and
//     then wait behind it.)  Pick a timeout well above the worst
//     single-item latency; the chaos campaign proves the watchdog never
//     fires spuriously on a healthy stream.  Inline (threads = 1) runs
//     make progress by definition and never arm the watchdog.
//   * CANCEL/DRAIN: cancel() asks every in-flight run() to stop; those
//     runs throw stream_cancelled_error at their next loop step.  The
//     destructor cancels and then BLOCKS until every in-flight run has
//     left the engine, so destroying a StreamEngine mid-stream neither
//     hangs nor leaves a worker touching freed state (tsan-covered).
//     A cancelled engine stays cancelled: later run() calls throw.
//   * Options::solve_hook / apply_hook: per-index instrumentation points
//     on the solver/applier sides for chaos and latency injection (the
//     stall tests drive them); solve_hook runs concurrently on every
//     solver worker.  They must return — a hook that never returns is a
//     genuine hang no watchdog can cancel.
//
// Results are bit-identical to CompiledBnb::route_batch on the same span
// (tests/test_stream_engine.cpp proves it), and an engine is immutable
// after construction: run() keeps all mutable state on its own stack (the
// lifecycle guard is the one shared word), so one StreamEngine may serve
// concurrent run() calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <condition_variable>
#include <mutex>
#include <atomic>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/compiled_bnb.hpp"
#include "core/schedule_cache.hpp"
#include "obs/metrics.hpp"
#include "perm/permutation.hpp"

namespace bnb {

/// run() was offered more permutations than Options::admission_limit while
/// strict (isolate_errors off): the stream is refused up front.
class stream_overload_error : public std::runtime_error {
 public:
  stream_overload_error(std::size_t limit, std::size_t offered);
  [[nodiscard]] std::size_t limit() const noexcept { return limit_; }
  [[nodiscard]] std::size_t offered() const noexcept { return offered_; }

 private:
  std::size_t limit_;
  std::size_t offered_;
};

/// The watchdog saw no stream progress for longer than
/// Options::watchdog_timeout_ms while a stage was waiting on the ring:
/// the other stage is stalled, and the stream failed instead of hanging.
class stream_stall_error : public std::runtime_error {
 public:
  stream_stall_error(std::size_t solved, std::size_t applied, std::size_t total,
                     std::uint64_t timeout_ms);
  [[nodiscard]] std::size_t solved() const noexcept { return solved_; }
  [[nodiscard]] std::size_t applied() const noexcept { return applied_; }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }

 private:
  std::size_t solved_;
  std::size_t applied_;
  std::size_t total_;
};

/// cancel() (or engine destruction) interrupted this run.
class stream_cancelled_error : public std::runtime_error {
 public:
  stream_cancelled_error();
};

/// Per-permutation disposition of one run() (Result::status).
enum class StreamItemStatus : std::uint8_t {
  kOk = 0,     ///< routed and delivered
  kFailed,     ///< this item threw (isolate_errors); its dest rows are zero
  kShed,       ///< refused by admission control; never routed
};

[[nodiscard]] const char* to_string(StreamItemStatus status) noexcept;

class StreamEngine {
 public:
  struct Options {
    /// 0 = auto (the calling thread's affinity-mask CPU count on Linux,
    /// std::thread::hardware_concurrency() elsewhere); 1 = in-order inline
    /// loop; T >= 2 = min(T - 1, items) spawned solver workers plus the
    /// calling-thread applier.
    unsigned threads = 0;
    /// Ordered-ring capacity in solved schedules, rounded up to a power of
    /// two and to at least 2 x the solver count.  Depth bounds how far the
    /// solvers may run ahead of the applier.
    std::size_t ring_depth = 8;
    /// Optional schedule cache consulted before each solve; nullptr = every
    /// permutation is solved cold.  Shared across engines/threads is fine.
    ScheduleCache* cache = nullptr;
    /// Registry the engine publishes its bnb_stream_* totals to at the end
    /// of every run(); nullptr = the global registry.
    obs::MetricsRegistry* registry = nullptr;
    /// Max permutations one run() admits; 0 = unlimited.  Excess is shed:
    /// stream_overload_error when strict, kShed statuses when isolating.
    std::size_t admission_limit = 0;
    /// Per-item error isolation: a failing permutation is marked kFailed
    /// and the stream continues (default: first-error-wins rethrow).
    bool isolate_errors = false;
    /// Pipelined-stage stall detection in milliseconds; 0 = disabled.
    std::uint64_t watchdog_timeout_ms = 0;
    /// Chaos/test instrumentation, called with the stream index before the
    /// solve / apply of that item (solve_hook from any solver thread).
    /// Must return; may throw (the throw is treated exactly like the
    /// solve's or apply's own failure).
    std::function<void(std::size_t)> solve_hook{};
    std::function<void(std::size_t)> apply_hook{};
  };

  struct Stats {
    std::uint64_t permutations = 0;  ///< offered to run() (admitted + shed)
    std::uint64_t solved = 0;       ///< cold arbiter-tree solves run
    std::uint64_t cache_hits = 0;   ///< schedules served from Options::cache
    /// Max ring occupancy seen at a publish (0 inline): items published and
    /// not yet retired, counted as the ring span from the oldest unretired
    /// item through the one being published, so 1 <= value <= depth.
    std::uint64_t ring_high_water = 0;
    std::uint64_t failed = 0;       ///< items marked kFailed (isolate_errors)
    std::uint64_t shed = 0;         ///< items refused by admission control
    unsigned threads_used = 1;      ///< solver workers + the applier (1 inline)
    bool pipelined = false;         ///< true when solvers and applier overlapped
    bool all_self_routed = false;   ///< over delivered items only
  };

  /// dest[perm * N + input] = output line, same layout as BatchResult.
  /// status[perm] tells each item's disposition (all kOk on the historic
  /// strict path — anything else would have thrown instead).
  struct Result {
    std::vector<std::uint32_t> dest;
    std::vector<StreamItemStatus> status;
    Stats stats;
  };

  explicit StreamEngine(const CompiledBnb& plan) : StreamEngine(plan, Options()) {}
  StreamEngine(const CompiledBnb& plan, Options options);

  /// Cancels in-flight runs and blocks until they have all left run().
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Route the whole stream.  Throws batch_route_error naming the failing
  /// permutation index/indices (strict mode), stream_overload_error on an
  /// oversized strict stream, stream_stall_error when the watchdog fires,
  /// and stream_cancelled_error when cancel()/destruction interrupts the
  /// run (results are then unspecified).
  [[nodiscard]] Result run(std::span<const Permutation> perms) const;

  /// Ask every in-flight run() (on any thread) to stop; they throw
  /// stream_cancelled_error at their next loop step.  Sticky: the engine
  /// accepts no further runs.  Safe from any thread, idempotent.
  void cancel() const noexcept;
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  [[nodiscard]] const CompiledBnb& plan() const noexcept { return plan_; }
  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

 private:
  class ActiveRun;

  Result run_admitted(std::span<const Permutation> perms, std::size_t offered) const;
  Result run_inline(std::span<const Permutation> perms) const;
  Result run_pipelined(std::span<const Permutation> perms) const;
  void publish(const Stats& stats) const;

  const CompiledBnb& plan_;
  unsigned threads_;
  std::size_t ring_depth_;
  ScheduleCache* cache_;
  std::size_t admission_limit_;
  bool isolate_errors_;
  std::uint64_t watchdog_timeout_ms_;
  std::function<void(std::size_t)> solve_hook_;
  std::function<void(std::size_t)> apply_hook_;
  // Registry-owned bnb_stream_* metrics, resolved once at construction so
  // the const run() path never touches the registry mutex.
  obs::Counter* runs_;
  obs::Counter* permutations_;
  obs::Counter* solves_;
  obs::Counter* cache_hits_;
  obs::Counter* shed_;
  obs::Counter* item_failures_;
  obs::Counter* stalls_;
  obs::Counter* cancelled_runs_;
  obs::Gauge* ring_high_water_;
  // Lifecycle: how many run() calls are inside the engine, and whether
  // cancel() was requested.  The destructor waits on active_runs_ == 0.
  mutable std::mutex lifecycle_mu_;
  mutable std::condition_variable lifecycle_cv_;
  mutable std::size_t active_runs_ = 0;
  mutable std::atomic<bool> cancelled_{false};
};

}  // namespace bnb
