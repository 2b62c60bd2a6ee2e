// Resilience layer — circuit-broken, deadline-bounded routing on a
// health-tracked fabric (docs/RELIABILITY.md).
//
// RobustRouter (fault/robust_router.hpp) heals ONE route: retry, diagnose,
// fall back.  A ResilientRouter manages the fabric ACROSS routes: it owns a
// per-fabric HealthTracker (a circuit breaker fed by fault diagnoses), a
// deterministic exponential backoff schedule with a per-request deadline
// budget, and the cache quarantine contract that keeps fault-era schedules
// out of the ScheduleCache.  The division of labor:
//
//   * HEALTH-TRACKED BREAKER.  Every persistent-fault diagnosis is recorded
//     in the HealthTracker; after `trip_threshold` CONSECUTIVE diagnoses
//     the breaker trips OPEN and the router stops hammering the damaged
//     primary plane: routes go straight to the audited behavioral spare
//     (outcome kDegraded — bounded latency, no retry storm, never trusted
//     blindly).  While open, every `probe_interval`-th route is a HALF-OPEN
//     PROBE routed on the primary; `recovery_threshold` consecutive clean
//     probes close the breaker and restore the fast path.  The state is
//     exported live as the bnb_breaker_state gauge (0 closed, 1 half-open,
//     2 open) next to bnb_breaker_{trips,probes,recoveries}_total.
//   * RETRY WITH BACKOFF AND A DEADLINE.  Primary attempts retry up to
//     max_retries times with deterministic exponential backoff
//     (min(backoff_initial_ns << (attempt-1), backoff_max_ns) — no jitter,
//     reproducible under seeded chaos), all bounded by a per-route
//     deadline_ns budget: when the budget is exhausted the ladder stops
//     early (bnb_resilient_deadline_exceeded_total) and the route falls
//     through to diagnosis + spare plane instead of blocking the caller.
//   * CACHE QUARANTINE.  Schedules solved while faults are active must
//     NEVER enter the ScheduleCache.  The fast path only touches the cache
//     when the fabric has no fault overlay at all; every persistent-fault
//     diagnosis and every failed replay audit invalidates the offending
//     digest (ScheduleCache::invalidate — bnb_cache_quarantined_total).
//     After a transient window the overlay is still considered suspect
//     until clear_faults() — conservative by design.
//
// The RobustRouter invariant is preserved and strengthened: a
// ResilientRouter NEVER silently misroutes (every delivery on every path —
// cache replay included — is audited), and under the breaker its
// worst-case per-route latency is bounded even while the fabric is broken.
// Like RobustRouter, an instance is NOT thread-safe; shard per thread.
#pragma once

#include <cstdint>
#include <vector>

#include "core/bnb_network.hpp"
#include "core/compiled_bnb.hpp"
#include "core/schedule_cache.hpp"
#include "fault/delivery_audit.hpp"
#include "fault/robust_router.hpp"
#include "obs/metrics.hpp"
#include "perm/permutation.hpp"

namespace bnb {

/// Circuit-breaker state, exported as the bnb_breaker_state gauge.
enum class BreakerState : std::uint8_t {
  kClosed = 0,    ///< healthy: primary fast path
  kHalfOpen = 1,  ///< open, but recent probes came back clean
  kOpen = 2,      ///< tripped: degraded routing, periodic probes
};

[[nodiscard]] const char* to_string(BreakerState state) noexcept;

struct BreakerPolicy {
  /// Consecutive persistent-fault diagnoses that trip the breaker open.
  unsigned trip_threshold = 3;
  /// While open, every probe_interval-th route is a half-open probe on the
  /// primary plane (>= 1; 1 = every route probes).
  unsigned probe_interval = 4;
  /// Consecutive clean probes that close the breaker again.
  unsigned recovery_threshold = 2;
};

/// Per-fabric health accounting: a consecutive-failure circuit breaker with
/// half-open probing.  Pure bookkeeping — the caller decides what counts as
/// a fault (ResilientRouter records persistent-fault diagnoses).  Exports
/// bnb_breaker_state / bnb_breaker_{trips,probes,recoveries}_total to the
/// registry for its lifetime (counters folded at destruction, same contract
/// as every other subsystem).  Not thread-safe.
class HealthTracker {
 public:
  /// How gate() routed one request.
  enum class RouteGate : std::uint8_t {
    kPrimary,   ///< breaker closed: normal primary routing
    kProbe,     ///< breaker open, this route is the half-open probe
    kDegraded,  ///< breaker open: skip the primary, go straight degraded
  };

  explicit HealthTracker(BreakerPolicy policy = {},
                         obs::MetricsRegistry* registry = nullptr);
  ~HealthTracker();

  HealthTracker(const HealthTracker&) = delete;
  HealthTracker& operator=(const HealthTracker&) = delete;

  /// Decide the path for the next route (counts probe cadence while open).
  [[nodiscard]] RouteGate gate();

  /// The primary plane delivered with a clean audit.
  void record_ok();
  /// A persistent fault was diagnosed on the primary plane.
  void record_fault();

  [[nodiscard]] BreakerState state() const noexcept;
  [[nodiscard]] const BreakerPolicy& policy() const noexcept { return policy_; }

  struct Stats {
    std::uint64_t trips = 0;       ///< closed -> open transitions
    std::uint64_t probes = 0;      ///< half-open probes attempted
    std::uint64_t recoveries = 0;  ///< open -> closed transitions
    BreakerState state = BreakerState::kClosed;
  };
  [[nodiscard]] Stats stats() const noexcept;

 private:
  void publish_state() noexcept;

  BreakerPolicy policy_;
  bool open_ = false;
  unsigned consecutive_faults_ = 0;  ///< while closed
  unsigned clean_probes_ = 0;        ///< while open
  std::uint64_t since_open_ = 0;     ///< routes gated while open (probe cadence)
  obs::MetricsRegistry* registry_;
  obs::Gauge state_gauge_;
  obs::Counter trips_;
  obs::Counter probes_;
  obs::Counter recoveries_;
};

struct ResilientPolicy {
  /// Extra primary attempts after the first (probes never retry).
  unsigned max_retries = 2;
  /// Deterministic exponential backoff before retry k (k >= 1):
  /// min(backoff_initial_ns << (k-1), backoff_max_ns).  No jitter.
  std::uint64_t backoff_initial_ns = 100'000;   ///< 100 us
  std::uint64_t backoff_max_ns = 2'000'000;     ///< 2 ms cap
  /// Per-route wall-clock budget; 0 = unbounded.  An exhausted budget cuts
  /// the retry ladder short and falls through to diagnosis + spare plane.
  std::uint64_t deadline_ns = 0;
  /// When false, backoff is accounted (counters, report) but not slept —
  /// for deterministic tests; production keeps the real sleep.
  bool sleep_on_backoff = true;
  /// Fault localization configuration, forwarded to RobustRouter.
  unsigned diagnosis_probes = 3;
  std::uint64_t probe_seed = 0x9E3779B9ULL;
  BreakerPolicy breaker;
};

enum class ResilientOutcome : std::uint8_t {
  kDelivered,            ///< primary plane, first attempt (cache hits included)
  kDeliveredAfterRetry,  ///< primary plane healed by backoff + re-route
  kDeliveredByFallback,  ///< spare plane after a persistent primary failure
  kDegraded,             ///< breaker open: spare plane without touching primary
  kFailed,               ///< nothing delivered cleanly; see diagnosis/audit
};

[[nodiscard]] const char* to_string(ResilientOutcome outcome) noexcept;

struct ResilientReport {
  ResilientOutcome outcome = ResilientOutcome::kFailed;
  unsigned attempts = 0;           ///< primary-plane attempts made
  unsigned backoffs = 0;           ///< backoff delays taken this route
  std::uint64_t backoff_ns = 0;    ///< total backoff budget consumed
  bool served_from_cache = false;  ///< delivered by a cached-schedule replay
  bool probe = false;              ///< this route was a half-open probe
  bool deadline_exceeded = false;  ///< the retry ladder was cut short
  BreakerState breaker = BreakerState::kClosed;  ///< state AFTER this route
  Diagnosis diagnosis;             ///< filled for persistent failures
  AuditReport audit;               ///< of the accepted (or last) delivery
  std::vector<std::uint32_t> dest; ///< dest[input] = line, when delivered

  [[nodiscard]] bool delivered() const noexcept {
    return outcome != ResilientOutcome::kFailed;
  }
};

class ResilientRouter {
 public:
  /// `cache` (optional, caller-owned, may be shared with StreamEngines) is
  /// only consulted/populated while the fabric has no fault overlay, and is
  /// quarantined on every diagnosis/bad replay.  Counters attach to
  /// `registry` (nullptr = global) under bnb_resilient_* / bnb_breaker_*.
  explicit ResilientRouter(unsigned m, ResilientPolicy policy = {},
                           ScheduleCache* cache = nullptr,
                           obs::MetricsRegistry* registry = nullptr);
  ~ResilientRouter();

  ResilientRouter(const ResilientRouter&) = delete;
  ResilientRouter& operator=(const ResilientRouter&) = delete;

  [[nodiscard]] unsigned m() const noexcept { return robust_.m(); }
  [[nodiscard]] std::size_t inputs() const noexcept { return robust_.inputs(); }
  [[nodiscard]] const ResilientPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] const CompiledBnb& engine() const noexcept { return robust_.engine(); }
  [[nodiscard]] HealthTracker& health() noexcept { return health_; }
  [[nodiscard]] const HealthTracker& health() const noexcept { return health_; }

  /// Fault injection, forwarded to the primary plane (robust_router.hpp).
  void inject(const FaultModel& model) { robust_.inject(model); }
  void inject_transient(const FaultModel& model, unsigned attempts) {
    robust_.inject_transient(model, attempts);
  }
  void clear_faults() { robust_.clear_faults(); }
  [[nodiscard]] bool has_faults() const noexcept { return robust_.has_faults(); }

  /// Route under the full resilience contract: breaker gate, cache fast
  /// path (clean fabric only), retry ladder with backoff + deadline,
  /// diagnosis + quarantine, audited spare plane.  Never silently
  /// misroutes: delivered() implies a clean audit of the returned dest.
  [[nodiscard]] ResilientReport route(const Permutation& pi);

  struct Stats {
    std::uint64_t backoffs = 0;           ///< backoff delays taken
    std::uint64_t backoff_ns = 0;         ///< total ns of backoff budget
    std::uint64_t deadline_exceeded = 0;  ///< ladders cut short by the budget
    std::uint64_t degraded = 0;           ///< breaker-open spare deliveries
    std::uint64_t cache_served = 0;       ///< audited cached replays delivered
  };
  [[nodiscard]] Stats stats() const noexcept;

 private:
  /// Backoff before retry `attempt` (attempt >= 1), deterministic.
  [[nodiscard]] std::uint64_t backoff_for(unsigned attempt) const noexcept;
  /// Audited spare-plane delivery; fills audit/dest, true when clean.
  [[nodiscard]] bool deliver_spare(const Permutation& pi, ResilientReport& report);
  /// Clean-fabric cache fast path; true when the report was delivered.
  /// `digest` is digest_permutation(pi), computed once per route().
  [[nodiscard]] bool route_fast(const Permutation& pi, const PermutationDigest& digest,
                                ResilientReport& report);

  ResilientPolicy policy_;
  RobustRouter robust_;  ///< primary plane, configured single-attempt
  BnbNetwork spare_;     ///< behavioral spare plane for degraded/fallback
  DeliveryAudit audit_;
  RouteScratch scratch_;
  ScheduleCache* cache_;
  HealthTracker health_;
  obs::MetricsRegistry* registry_;
  obs::Counter backoffs_;
  obs::Counter backoff_ns_;
  obs::Counter deadline_exceeded_;
  obs::Counter degraded_;
  obs::Counter cache_served_;
};

}  // namespace bnb
