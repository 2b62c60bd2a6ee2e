#include "fabric/stream_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/expect.hpp"
#include "obs/span.hpp"
#include "obs/trace_context.hpp"

namespace bnb {
namespace {

/// CPUs this thread may run on: the sched_getaffinity mask on Linux (a
/// taskset or cgroup cpuset narrower than the host), else every online
/// hardware thread.  Never 0.
[[nodiscard]] unsigned usable_cpus() noexcept {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int count = CPU_COUNT(&mask);
    if (count > 0) return static_cast<unsigned>(count);
  }
#endif
  return std::max(std::thread::hardware_concurrency(), 1U);
}

[[nodiscard]] std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// One solved permutation in flight between a solver and the applier.
/// BOTH lanes travel by value: small plans (m <= SmallSchedule::kMaxM) in
/// `small`, general plans in `schedule` — no shared_ptr churn in either.
/// The swap-based ring recirculates the schedule's buffers between the
/// threads, so once every ring cell has been shaped a pipelined stream
/// solves, ships, and replays with no per-permutation allocation at all.
/// Under isolate_errors a solver-side failure still ships a slot with
/// `failed` set so the applier can retire the index as kFailed in order.
struct StreamSlot {
  ControlSchedule schedule;
  SmallSchedule small;
  bool failed = false;
#if BNB_OBS_COMPILED
  // Causal identity rides the ring with the schedule: the applier rebinds
  // its apply span to the item's trace, and enqueue_ns (stamped by the
  // solver after the solve, BEFORE any backpressure spin) lets it attribute
  // the dwell time between the stages as a queue-wait pseudo-span.
  std::uint64_t trace_id = 0;
  std::uint64_t enqueue_ns = 0;
#endif
};

/// The one ordered ring between the solver workers and the applier.  Item
/// i owns cell i & mask for one lap, and the cell's sequence number says
/// whose turn it is: a worker may publish item i once seq reads i (item
/// i - depth has been retired), and publishing stores seq = i + 1; the
/// applier, retiring strictly in stream order, takes item i once seq reads
/// i + 1 and frees the cell for item i + depth.  Any number of workers
/// publish concurrently, each into the one cell its stream index names, so
/// neither side needs a lock or a CAS (callers spin with yield).  publish
/// and retire SWAP with the cell storage instead of move-assigning: the
/// caller's slot gets the cell's previous occupant back, so schedule
/// buffers circulate between the threads and a steady-state stream
/// re-solves into already-sized memory.
class OrderedRing {
 public:
  explicit OrderedRing(std::size_t depth) : mask_(depth - 1), cells_(depth) {
    for (std::size_t j = 0; j < depth; ++j) cells_[j].seq.store(j, std::memory_order_relaxed);
  }

  [[nodiscard]] bool can_publish(std::uint64_t i) const noexcept {
    return cells_[i & mask_].seq.load(std::memory_order_acquire) == i;
  }

  /// Items retired so far.  Read after can_publish(i) and before
  /// publish(i) it lies in [i + 1 - depth, i]: the retire that freed the
  /// cell stored it before its seq release, and item i cannot have been
  /// retired yet.  So i + 1 - retired() is in [1, depth].
  [[nodiscard]] std::uint64_t retired() const noexcept {
    return retired_.load(std::memory_order_relaxed);
  }

  void publish(std::uint64_t i, StreamSlot& slot) {
    Cell& cell = cells_[i & mask_];
    std::swap(cell.slot, slot);
    cell.seq.store(i + 1, std::memory_order_release);
  }

  [[nodiscard]] bool can_retire(std::uint64_t i) const noexcept {
    return cells_[i & mask_].seq.load(std::memory_order_acquire) == i + 1;
  }

  void retire(std::uint64_t i, StreamSlot& out) {
    Cell& cell = cells_[i & mask_];
    std::swap(out, cell.slot);
    retired_.store(i + 1, std::memory_order_relaxed);
    cell.seq.store(i + mask_ + 1, std::memory_order_release);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> seq{0};
    StreamSlot slot;
  };

  std::uint64_t mask_;
  std::vector<Cell> cells_;
  alignas(64) std::atomic<std::uint64_t> retired_{0};
};

/// Schedules one thread solved cold or served from the cache.
struct SolveTally {
  std::uint64_t solved = 0;
  std::uint64_t hits = 0;
};

/// digest -> find -> solve-on-miss -> insert for one item, into `slot` on
/// the plan's lane.  A plan always uses the same lane, so the other lane's
/// field in a recirculated slot is never read.
void acquire_schedule(const CompiledBnb& plan, ScheduleCache* cache, const Permutation& pi,
                      RouteScratch& scratch, StreamSlot& slot, SolveTally& tally) {
  const bool small = plan.small_capable();
  if (cache != nullptr) {
    const PermutationDigest digest = digest_permutation(pi);
    if (small ? cache->find_small(digest, slot.small) : cache->find(digest, slot.schedule)) {
      ++tally.hits;
      return;
    }
    if (small) {
      slot.small = plan.compile_small(pi, scratch);
      cache->insert_small(digest, slot.small);
    } else {
      plan.solve(pi, scratch, slot.schedule);
      cache->insert(digest, slot.schedule);
    }
  } else if (small) {
    slot.small = plan.compile_small(pi, scratch);
  } else {
    plan.solve(pi, scratch, slot.schedule);
  }
  ++tally.solved;
}

[[nodiscard]] CompiledBnb::Output apply_schedule(const CompiledBnb& plan, const StreamSlot& slot,
                                                 const Permutation& pi, RouteScratch& scratch) {
  return plan.small_capable() ? plan.apply_small(slot.small, pi, scratch)
                              : plan.apply(slot.schedule, pi, scratch);
}

/// First-error-wins capture shared by the solvers and the applier
/// (route_batch semantics): the first recorded exception is the cause, but
/// every failing index is retained so batch_route_error::failed_indices()
/// can report concurrent damage.
struct ErrorLatch {
  std::mutex mu;
  std::exception_ptr error;
  std::vector<std::size_t> indices;  ///< every failure, in recording order

  void record(std::size_t at, std::atomic<bool>& stop) {
    {
      std::scoped_lock lock(mu);
      if (!error) error = std::current_exception();
      indices.push_back(at);
    }
    stop.store(true, std::memory_order_release);
  }

  [[noreturn]] void rethrow(std::size_t total) const {
    const std::size_t first = indices.front();
    std::string what = "stream_engine: permutation " + std::to_string(first) + " of " +
                       std::to_string(total) + " threw";
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      what += ": ";
      what += e.what();
    } catch (...) {
      // Non-std exception: the index and cause() still identify it.
    }
    if (indices.size() > 1) {
      what += " (+" + std::to_string(indices.size() - 1) + " more worker failures)";
    }
    throw batch_route_error(first, error, what, indices);
  }
};

}  // namespace

stream_overload_error::stream_overload_error(std::size_t limit, std::size_t offered)
    : std::runtime_error("stream_engine: admission limit " + std::to_string(limit) +
                         " exceeded (" + std::to_string(offered) +
                         " permutations offered); stream shed"),
      limit_(limit),
      offered_(offered) {}

stream_stall_error::stream_stall_error(std::size_t solved, std::size_t applied,
                                       std::size_t total, std::uint64_t timeout_ms)
    : std::runtime_error("stream_engine: watchdog saw no progress for " +
                         std::to_string(timeout_ms) + " ms (solved " + std::to_string(solved) +
                         ", applied " + std::to_string(applied) + " of " +
                         std::to_string(total) + "); stream failed instead of hanging"),
      solved_(solved),
      applied_(applied),
      total_(total) {}

stream_cancelled_error::stream_cancelled_error()
    : std::runtime_error("stream_engine: run interrupted by cancel() or engine destruction") {}

const char* to_string(StreamItemStatus status) noexcept {
  switch (status) {
    case StreamItemStatus::kOk:
      return "ok";
    case StreamItemStatus::kFailed:
      return "failed";
    case StreamItemStatus::kShed:
      return "shed";
  }
  return "unknown";
}

/// RAII registration of one run() against the engine lifecycle: refuses to
/// start on a cancelled engine, and guarantees the destructor's drain wait
/// sees active_runs_ reach zero however the run exits.
class StreamEngine::ActiveRun {
 public:
  explicit ActiveRun(const StreamEngine& engine) : engine_(engine) {
    std::scoped_lock lock(engine_.lifecycle_mu_);
    if (engine_.cancelled_.load(std::memory_order_acquire)) {
      engine_.cancelled_runs_->inc();
      throw stream_cancelled_error();
    }
    ++engine_.active_runs_;
  }

  ~ActiveRun() {
    std::scoped_lock lock(engine_.lifecycle_mu_);
    --engine_.active_runs_;
    engine_.lifecycle_cv_.notify_all();
  }

  ActiveRun(const ActiveRun&) = delete;
  ActiveRun& operator=(const ActiveRun&) = delete;

 private:
  const StreamEngine& engine_;
};

StreamEngine::StreamEngine(const CompiledBnb& plan, Options options)
    : plan_(plan),
      threads_(options.threads),
      ring_depth_(std::max<std::size_t>(options.ring_depth, 2)),
      cache_(options.cache),
      admission_limit_(options.admission_limit),
      isolate_errors_(options.isolate_errors),
      watchdog_timeout_ms_(options.watchdog_timeout_ms),
      solve_hook_(std::move(options.solve_hook)),
      apply_hook_(std::move(options.apply_hook)) {
  BNB_EXPECTS(options.threads <= 256);
  if (threads_ == 0) {
    // Auto: one thread per CPU the caller may run on (inline on a 1-CPU
    // mask), so a narrowed affinity mask never oversubscribes.
    threads_ = std::clamp(usable_cpus(), 1U, 256U);
  }
  obs::MetricsRegistry& reg =
      options.registry != nullptr ? *options.registry : obs::MetricsRegistry::global();
  runs_ = &reg.counter("bnb_stream_runs_total", "StreamEngine::run calls completed");
  permutations_ =
      &reg.counter("bnb_stream_permutations_total", "permutations routed through run()");
  solves_ = &reg.counter("bnb_stream_solves_total", "cold arbiter-tree solves in run()");
  cache_hits_ =
      &reg.counter("bnb_stream_cache_hits_total", "schedules served from the stream cache");
  shed_ = &reg.counter("bnb_stream_shed_total",
                       "permutations refused by stream admission control");
  item_failures_ = &reg.counter("bnb_stream_item_failures_total",
                                "stream items marked failed under error isolation");
  stalls_ = &reg.counter("bnb_stream_stalls_total",
                         "streams failed by the pipeline stall watchdog");
  cancelled_runs_ = &reg.counter("bnb_stream_cancelled_total",
                                 "stream runs interrupted by cancel() or destruction");
  ring_high_water_ = &reg.gauge("bnb_stream_ring_high_water",
                                "max solved schedules queued in any run's ordered ring");
}

StreamEngine::~StreamEngine() {
  cancel();
  std::unique_lock<std::mutex> lock(lifecycle_mu_);
  lifecycle_cv_.wait(lock, [this] { return active_runs_ == 0; });
}

void StreamEngine::cancel() const noexcept {
  cancelled_.store(true, std::memory_order_release);
}

StreamEngine::Result StreamEngine::run(std::span<const Permutation> perms) const {
  BNB_OBS_TRACE_ROOT(trace_scope);
  BNB_OBS_SPAN(obs_span, obs::Phase::kStreamRun);
  ActiveRun guard(*this);
  const std::size_t offered = perms.size();
  std::span<const Permutation> admitted = perms;
  if (admission_limit_ != 0 && offered > admission_limit_) {
    if (!isolate_errors_) {
      // Strict admission: the whole stream is refused loudly, nothing routes.
      shed_->inc(offered);
      throw stream_overload_error(admission_limit_, offered);
    }
    admitted = perms.first(admission_limit_);
  }
  Result result = run_admitted(admitted, offered);
  publish(result.stats);
  return result;
}

StreamEngine::Result StreamEngine::run_admitted(std::span<const Permutation> perms,
                                                std::size_t offered) const {
  Result result = threads_ >= 2 ? run_pipelined(perms) : run_inline(perms);
  if (perms.size() < offered) {
    // Shed tail: the refused suffix gets zeroed dest rows and kShed marks,
    // and stats still account for every permutation offered.
    result.dest.resize(offered * plan_.inputs(), 0);
    result.status.resize(offered, StreamItemStatus::kShed);
    result.stats.shed = offered - perms.size();
    result.stats.permutations = offered;
  }
  return result;
}

void StreamEngine::publish(const Stats& stats) const {
  runs_->inc();
  permutations_->inc(stats.permutations);
  solves_->inc(stats.solved);
  cache_hits_->inc(stats.cache_hits);
  if (stats.shed != 0) shed_->inc(stats.shed);
  if (stats.failed != 0) item_failures_->inc(stats.failed);
  ring_high_water_->update_max(static_cast<std::int64_t>(stats.ring_high_water));
}

StreamEngine::Result StreamEngine::run_inline(std::span<const Permutation> perms) const {
  const std::size_t n = plan_.inputs();
  Result result;
  result.stats.permutations = perms.size();
  result.dest.resize(perms.size() * n);
  result.status.assign(perms.size(), StreamItemStatus::kOk);

  RouteScratch scratch;
  StreamSlot slot;  // reused across items: the loop is allocation-free once
                    // its schedule has taken this plan's shape
  SolveTally tally;
  bool all_ok = true;
#if BNB_OBS_COMPILED
  // The enclosing run() trace; each stream item becomes a child trace of
  // it (no ids are allocated when the run itself is untraced).
  const obs::TraceContext run_ctx = obs::current_context();
#endif
  for (std::size_t i = 0; i < perms.size(); ++i) {
    if (cancelled_.load(std::memory_order_acquire)) {
      cancelled_runs_->inc();
      throw stream_cancelled_error();
    }
#if BNB_OBS_COMPILED
    BNB_OBS_TRACE_CHILD(item_scope,
                        run_ctx.trace_id != 0 ? obs::new_trace_id() : 0,
                        run_ctx.trace_id);
#endif
    try {
      if (solve_hook_) solve_hook_(i);
      acquire_schedule(plan_, cache_, perms[i], scratch, slot, tally);
      if (apply_hook_) apply_hook_(i);
      const CompiledBnb::Output out = apply_schedule(plan_, slot, perms[i], scratch);
      all_ok &= out.self_routed;
      std::copy(out.dest.begin(), out.dest.end(), result.dest.begin() + i * n);
    } catch (...) {
      if (isolate_errors_) {
        // Damage stays on this item: dest rows read zero, the stream goes on.
        result.status[i] = StreamItemStatus::kFailed;
        ++result.stats.failed;
        continue;
      }
      ErrorLatch latch;
      std::atomic<bool> unused{false};
      latch.record(i, unused);
      latch.rethrow(perms.size());
    }
  }
  result.stats.solved = tally.solved;
  result.stats.cache_hits = tally.hits;
  result.stats.all_self_routed = all_ok;
  return result;
}

StreamEngine::Result StreamEngine::run_pipelined(std::span<const Permutation> perms) const {
  const std::size_t n = plan_.inputs();
  const std::size_t items = perms.size();
  Result result;
  result.stats.permutations = items;
  result.dest.resize(items * n);
  result.status.assign(items, StreamItemStatus::kOk);
  if (items == 0) {
    result.stats.all_self_routed = true;
    return result;
  }
  // T - 1 solver workers, never more than there are items to claim.
  const std::size_t solvers = std::min<std::size_t>(threads_ - 1, items);
  result.stats.threads_used = static_cast<unsigned>(solvers + 1);
  result.stats.pipelined = true;

  // Two cells per solver at least, so every worker can have one item
  // published while it solves the next.
  OrderedRing ring(std::bit_ceil(std::max(ring_depth_, 2 * solvers)));
  std::atomic<std::size_t> next{0};       ///< next stream index to claim
  std::atomic<std::size_t> published{0};  ///< for stall diagnostics
  std::atomic<bool> stop{false};
  std::atomic<bool> stalled{false};
  ErrorLatch latch;
  struct alignas(64) WorkerTally {
    SolveTally counts;
    std::uint64_t high_water = 0;
  };
  std::vector<WorkerTally> tallies(solvers);

  // WATCHDOG: every publish and every retire stamps last_progress; a
  // thread spinning on the ring longer than the timeout without seeing the
  // stamp move declares the stream stalled (some other thread is stuck),
  // sets stop, and the run fails with stream_stall_error after the join.
  // The join itself completes at the stuck thread's next stop check — a
  // thread that never returns from user code (a hook or solve that truly
  // hangs forever) is not interruptible in portable C++; the watchdog
  // bounds every finite stall.
  const bool watchdog = watchdog_timeout_ms_ > 0;
  const std::uint64_t timeout_ns = watchdog_timeout_ms_ * 1'000'000ULL;
  std::atomic<std::uint64_t> last_progress{now_ns()};
  const auto progressed = [&] {
    if (watchdog) last_progress.store(now_ns(), std::memory_order_relaxed);
  };
  const auto stalled_now = [&] {
    if (!watchdog) return false;
    // Load the stamp BEFORE reading the clock: another thread may advance
    // last_progress between the two reads, and with the opposite order the
    // unsigned subtraction underflows into an instant false stall.  The
    // now > last guard absorbs any residual skew the same way.
    const std::uint64_t last = last_progress.load(std::memory_order_relaxed);
    const std::uint64_t now = now_ns();
    if (now <= last || now - last <= timeout_ns) return false;
    stalled.store(true, std::memory_order_release);
    stop.store(true, std::memory_order_release);
    return true;
  };
  const auto halted = [&] {
    return stop.load(std::memory_order_acquire) || cancelled_.load(std::memory_order_acquire);
  };
#if BNB_OBS_COMPILED
  // The run() trace, captured on the calling thread so every thread can
  // parent its per-item traces to it (TLS does not cross the spawn).
  const obs::TraceContext run_ctx = obs::current_context();
#endif

  // SOLVERS (spawned): each claims the next stream index, solves it while
  // the applier is still delivering earlier items, and publishes it into
  // the item's own ring cell.
  const auto solve_items = [&](WorkerTally& tally) {
    RouteScratch scratch;
    // One slot reused across the worker's items: publish hands back the
    // cell's retired occupant, whose schedule buffers are already shaped.
    StreamSlot slot;
    while (!halted()) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= items) return;
      slot.failed = false;
#if BNB_OBS_COMPILED
      // One fresh child trace per stream item: the solve below runs inside
      // it on this thread, and the id ships downstream in the slot so the
      // applier's spans join the same trace.
      slot.trace_id = run_ctx.trace_id != 0 ? obs::new_trace_id() : 0;
      BNB_OBS_TRACE_CHILD(item_scope, slot.trace_id, run_ctx.trace_id);
#endif
      try {
        if (solve_hook_) solve_hook_(i);
        acquire_schedule(plan_, cache_, perms[i], scratch, slot, tally.counts);
      } catch (...) {
        if (!isolate_errors_) {
          latch.record(i, stop);
          return;
        }
        // Isolation: ship the failure downstream so the applier retires
        // the index as kFailed in stream order.
        slot.failed = true;
      }
#if BNB_OBS_COMPILED
      // Queue-wait starts here: after the solve, before the wait for the
      // item's cell, so backpressure counts as queue delay.
      slot.enqueue_ns = obs::now_ns();
#endif
      while (!ring.can_publish(i)) {
        if (halted() || stalled_now()) return;
        std::this_thread::yield();
      }
      // Occupancy = published and not yet retired, counted as the ring
      // span from the oldest unretired item through this one.  retired()
      // is read before the publish, so the difference cannot wrap.
      tally.high_water = std::max<std::uint64_t>(tally.high_water, i + 1 - ring.retired());
      ring.publish(i, slot);
      published.fetch_add(1, std::memory_order_relaxed);
      progressed();
    }
  };

  // Joins on every exit path, after setting stop to release any worker
  // still waiting on a full ring.  Declared after everything the workers
  // touch, so it is destroyed first.
  struct Crew {
    std::atomic<bool>& stop;
    std::vector<std::thread> threads;
    void join() {
      stop.store(true, std::memory_order_release);
      for (std::thread& t : threads) {
        if (t.joinable()) t.join();
      }
    }
    ~Crew() { join(); }
  } crew{stop, {}};
  crew.threads.reserve(solvers);
  for (WorkerTally& tally : tallies) crew.threads.emplace_back(solve_items, std::ref(tally));

  // APPLIER (calling thread): retire items strictly in stream order.
  RouteScratch scratch;
  bool all_ok = true;
  std::size_t applied = 0;
  bool cancelled_hit = false;
  // Reused across retires: each retire swaps the previously applied slot
  // (shaped buffers and all) back into the ring for a solver to recycle.
  StreamSlot slot;
  while (applied < items) {
    if (cancelled_.load(std::memory_order_acquire)) {
      cancelled_hit = true;
      break;
    }
    if (!ring.can_retire(applied)) {
      if (stop.load(std::memory_order_acquire) || stalled_now()) break;
      std::this_thread::yield();
      continue;
    }
    const std::size_t i = applied;
    ring.retire(i, slot);
#if BNB_OBS_COMPILED
    if (slot.trace_id != 0 && obs::runtime_enabled()) {
      // Retire the queue-wait pseudo-span: enqueue stamp to pickup, under
      // the ITEM's trace id (carried by the slot, not this thread's TLS).
      // It includes any reorder wait behind a slower earlier item.
      const std::uint64_t picked = now_ns();
      if (picked >= slot.enqueue_ns) {
        obs::record_phase(obs::Phase::kQueueWait, slot.enqueue_ns,
                          picked - slot.enqueue_ns, slot.trace_id,
                          run_ctx.trace_id, obs::current_thread_id());
      }
    }
#endif
    if (slot.failed) {
      result.status[i] = StreamItemStatus::kFailed;
      ++result.stats.failed;
    } else {
      try {
#if BNB_OBS_COMPILED
        BNB_OBS_TRACE_CHILD(item_scope, slot.trace_id, run_ctx.trace_id);
#endif
        if (apply_hook_) apply_hook_(i);
        const CompiledBnb::Output out = apply_schedule(plan_, slot, perms[i], scratch);
        all_ok &= out.self_routed;
        std::copy(out.dest.begin(), out.dest.end(), result.dest.begin() + i * n);
      } catch (...) {
        if (!isolate_errors_) {
          latch.record(i, stop);
          break;
        }
        result.status[i] = StreamItemStatus::kFailed;
        ++result.stats.failed;
      }
    }
    ++applied;
    progressed();
  }
  crew.join();

  if (latch.error) latch.rethrow(items);
  if (stalled.load(std::memory_order_acquire)) {
    stalls_->inc();
    throw stream_stall_error(published.load(std::memory_order_relaxed), applied, items,
                             watchdog_timeout_ms_);
  }
  if (cancelled_hit || cancelled_.load(std::memory_order_acquire)) {
    cancelled_runs_->inc();
    throw stream_cancelled_error();
  }
  for (const WorkerTally& tally : tallies) {
    result.stats.solved += tally.counts.solved;
    result.stats.cache_hits += tally.counts.hits;
    result.stats.ring_high_water = std::max(result.stats.ring_high_water, tally.high_water);
  }
  result.stats.all_self_routed = all_ok;
  return result;
}

}  // namespace bnb
