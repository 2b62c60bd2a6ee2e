// Resilience layer — self-healing, circuit-broken, deadline-bounded
// routing on a possibly-faulty, health-tracked BNB fabric
// (docs/FAULTS.md, docs/RELIABILITY.md).
//
// ResilientRouter is the one router of this layer.  Its primary data path
// is the compiled engine with an injected fault overlay (simulating broken
// hardware); the behavioral BnbNetwork is the clean spare plane.  The
// network is self-routing (Thm. 2), so one DeliveryAudit pass checks every
// delivery (fault/delivery_audit.hpp), and one recovery ladder runs on an
// audit failure:
//
//   1. RETRY on the primary up to max_retries times with deterministic
//      exponential backoff (min(backoff_initial_ns << (attempt-1),
//      backoff_max_ns) — no jitter, reproducible under seeded chaos), all
//      bounded by a per-route deadline_ns budget: when the budget is
//      exhausted the ladder stops early
//      (bnb_resilient_deadline_exceeded_total).  Transient faults
//      (inject_transient) expire between attempts, so a glitch window
//      heals by re-routing;
//   2. DIAGNOSE a persistent failure: binary-search the first plan column
//      where the faulty fabric's line state diverges from the clean plan's
//      (recomputing from column 0 per probe), then localize the splitter
//      from the first differing switch control — the report names the
//      paper coordinates (main stage, BSN column, splitter) to replace;
//   3. FALL BACK to the behavioral spare plane, still audited — never
//      trusted blindly.
//
// Across routes the router manages the fabric:
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
//   * CACHE QUARANTINE.  Schedules solved while faults are active must
//     NEVER enter the ScheduleCache.  The fast path only touches the cache
//     when the fabric has no fault overlay at all; every persistent-fault
//     diagnosis and every failed replay audit invalidates the offending
//     digest (ScheduleCache::invalidate — bnb_cache_quarantined_total).
//     After a transient window the overlay is still considered suspect
//     until clear_faults() — conservative by design.
//
// The contract: a ResilientRouter NEVER silently misroutes.  Every route()
// ends delivered with a clean audit of the returned dest (cache replay
// included), or kFailed with the diagnosis attached; under the breaker its
// worst-case per-route latency is bounded even while the fabric is broken.
// An instance is NOT thread-safe; shard per thread.
#pragma once

#include <cstdint>
#include <vector>

#include "core/bnb_network.hpp"
#include "core/compiled_bnb.hpp"
#include "core/schedule_cache.hpp"
#include "fault/delivery_audit.hpp"
#include "fault/fault_model.hpp"
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

/// Where a persistent fault was localized, in paper coordinates.
struct Diagnosis {
  bool located = false;
  std::uint32_t column = 0;        ///< flat plan column index
  std::uint32_t main_stage = 0;    ///< i of the faulty column
  std::uint32_t nested_stage = 0;  ///< j of the faulty column
  std::uint32_t splitter = 0;      ///< splitter index within the column
};

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
  /// Fault localization: the failing perm + this-1 random probes.
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
  /// `registry` (nullptr = global) under bnb_robust_* / bnb_resilient_* /
  /// bnb_breaker_* while the router lives.
  explicit ResilientRouter(unsigned m, ResilientPolicy policy = {},
                           ScheduleCache* cache = nullptr,
                           obs::MetricsRegistry* registry = nullptr);
  ~ResilientRouter();

  ResilientRouter(const ResilientRouter&) = delete;
  ResilientRouter& operator=(const ResilientRouter&) = delete;

  [[nodiscard]] unsigned m() const noexcept { return engine_.m(); }
  [[nodiscard]] std::size_t inputs() const noexcept { return engine_.inputs(); }
  [[nodiscard]] const ResilientPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] const CompiledBnb& engine() const noexcept { return engine_; }
  [[nodiscard]] HealthTracker& health() noexcept { return health_; }
  [[nodiscard]] const HealthTracker& health() const noexcept { return health_; }

  /// Overlay `model` on the primary plane until clear_faults().
  void inject(const FaultModel& model);

  /// Overlay `model` on the primary plane for the next `attempts` primary
  /// attempts only — a transient glitch window that retrying outlives.
  void inject_transient(const FaultModel& model, unsigned attempts);

  void clear_faults();
  [[nodiscard]] bool has_faults() const noexcept { return !overlay_.empty(); }

  /// Route under the full resilience contract: breaker gate, cache fast
  /// path (clean fabric only), retry ladder with backoff + deadline,
  /// diagnosis + quarantine, audited spare plane.  Never silently
  /// misroutes: delivered() implies a clean audit of the returned dest.
  [[nodiscard]] ResilientReport route(const Permutation& pi);

  /// Localize the first fabric fault that misroutes `pi` (no-op Diagnosis
  /// when no overlay is active or the faulty and clean fabrics agree on
  /// every probe).
  [[nodiscard]] Diagnosis diagnose(const Permutation& pi) const;

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
  /// The fault overlay for the next primary attempt (counts transient
  /// windows down); nullptr = clean fabric.
  [[nodiscard]] const EngineFaults* overlay_for_attempt();
  /// One audited primary-plane route; fills audit/dest, true when clean.
  [[nodiscard]] bool attempt_primary(const Permutation& pi, ResilientReport& report);
  /// Audited spare-plane delivery; fills audit/dest, true when clean.
  [[nodiscard]] bool deliver_spare(const Permutation& pi, ResilientReport& report);
  /// Clean-fabric cache fast path; true when the report was delivered.
  /// `digest` is digest_permutation(pi), computed once per route().
  [[nodiscard]] bool route_fast(const Permutation& pi, const PermutationDigest& digest,
                                ResilientReport& report);

  ResilientPolicy policy_;
  CompiledBnb engine_;   ///< primary plane
  BnbNetwork spare_;     ///< behavioral spare plane for degraded/fallback
  DeliveryAudit audit_;
  RouteScratch scratch_;  ///< shared by the fast path and the ladder
  EngineFaults overlay_;
  bool permanent_ = false;
  unsigned transient_remaining_ = 0;
  ScheduleCache* cache_;
  HealthTracker health_;
  obs::MetricsRegistry* registry_;
  obs::Counter routed_;
  obs::Counter misroutes_caught_;
  obs::Counter backoffs_;
  obs::Counter backoff_ns_;
  obs::Counter deadline_exceeded_;
  obs::Counter degraded_;
  obs::Counter cache_served_;
};

}  // namespace bnb
