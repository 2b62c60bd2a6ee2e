#include "fault/resilience.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "common/expect.hpp"
#include "obs/span.hpp"
#include "obs/trace_context.hpp"

namespace bnb {
namespace {

[[nodiscard]] std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

}  // namespace

const char* to_string(BreakerState state) noexcept {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kHalfOpen: return "half-open";
    case BreakerState::kOpen: return "open";
  }
  return "?";
}

const char* to_string(ResilientOutcome outcome) noexcept {
  switch (outcome) {
    case ResilientOutcome::kDelivered: return "delivered";
    case ResilientOutcome::kDeliveredAfterRetry: return "delivered-after-retry";
    case ResilientOutcome::kDeliveredByFallback: return "delivered-by-fallback";
    case ResilientOutcome::kDegraded: return "degraded";
    case ResilientOutcome::kFailed: return "failed";
  }
  return "?";
}

HealthTracker::HealthTracker(BreakerPolicy policy, obs::MetricsRegistry* registry)
    : policy_(policy),
      registry_(registry != nullptr ? registry : &obs::MetricsRegistry::global()) {
  BNB_EXPECTS(policy.trip_threshold >= 1);
  BNB_EXPECTS(policy.probe_interval >= 1);
  BNB_EXPECTS(policy.recovery_threshold >= 1);
  registry_->attach_gauge("bnb_breaker_state", &state_gauge_,
                          "circuit breaker state (0 closed, 1 half-open, 2 open)");
  registry_->attach_counter("bnb_breaker_trips_total", &trips_,
                            "breaker closed -> open transitions");
  registry_->attach_counter("bnb_breaker_probes_total", &probes_,
                            "half-open probes attempted while open");
  registry_->attach_counter("bnb_breaker_recoveries_total", &recoveries_,
                            "breaker open -> closed transitions");
}

HealthTracker::~HealthTracker() {
  registry_->detach_gauge("bnb_breaker_state", &state_gauge_);
  registry_->detach_counter("bnb_breaker_trips_total", &trips_);
  registry_->detach_counter("bnb_breaker_probes_total", &probes_);
  registry_->detach_counter("bnb_breaker_recoveries_total", &recoveries_);
  // Fold the final totals into the owned counters so the fabric-wide view
  // stays monotonic across tracker lifetimes (the state gauge is a level —
  // a dead breaker's state just vanishes).
  registry_->counter("bnb_breaker_trips_total").inc(trips_.value());
  registry_->counter("bnb_breaker_probes_total").inc(probes_.value());
  registry_->counter("bnb_breaker_recoveries_total").inc(recoveries_.value());
}

HealthTracker::RouteGate HealthTracker::gate() {
  if (!open_) return RouteGate::kPrimary;
  ++since_open_;
  if (since_open_ % policy_.probe_interval == 0) {
    probes_.inc();
    return RouteGate::kProbe;
  }
  return RouteGate::kDegraded;
}

void HealthTracker::record_ok() {
  if (!open_) {
    consecutive_faults_ = 0;
    return;
  }
  ++clean_probes_;
  if (clean_probes_ >= policy_.recovery_threshold) {
    open_ = false;
    clean_probes_ = 0;
    consecutive_faults_ = 0;
    since_open_ = 0;
    recoveries_.inc();
  }
  publish_state();
}

void HealthTracker::record_fault() {
  if (open_) {
    clean_probes_ = 0;  // a failed probe ends any half-open streak
    publish_state();
    return;
  }
  if (++consecutive_faults_ >= policy_.trip_threshold) {
    open_ = true;
    clean_probes_ = 0;
    since_open_ = 0;
    trips_.inc();
  }
  publish_state();
}

BreakerState HealthTracker::state() const noexcept {
  if (!open_) return BreakerState::kClosed;
  return clean_probes_ > 0 ? BreakerState::kHalfOpen : BreakerState::kOpen;
}

void HealthTracker::publish_state() noexcept {
  state_gauge_.set(static_cast<std::int64_t>(state()));
}

HealthTracker::Stats HealthTracker::stats() const noexcept {
  return Stats{trips_.value(), probes_.value(), recoveries_.value(), state()};
}

ResilientRouter::ResilientRouter(unsigned m, ResilientPolicy policy,
                                 ScheduleCache* cache, obs::MetricsRegistry* registry)
    : policy_(policy),
      // The inner RobustRouter is configured single-attempt: its job here
      // is ONE audited primary-plane route (transient windows still expire
      // per attempt); retries, backoff, fallback, and the breaker are this
      // layer's ladder so backoff can run BETWEEN attempts.
      robust_(m,
              RobustPolicy{/*max_retries=*/0, /*fallback_to_behavioral=*/false,
                           /*diagnose_on_failure=*/false, policy.diagnosis_probes,
                           policy.probe_seed},
              registry),
      spare_(m),
      audit_(m),
      cache_(cache),
      health_(policy.breaker, registry),
      registry_(registry != nullptr ? registry : &obs::MetricsRegistry::global()) {
  scratch_.prepare(robust_.engine());
  registry_->attach_counter("bnb_resilient_backoffs_total", &backoffs_,
                            "backoff delays taken before primary retries");
  registry_->attach_counter("bnb_resilient_backoff_ns_total", &backoff_ns_,
                            "total backoff budget consumed, in ns");
  registry_->attach_counter("bnb_resilient_deadline_exceeded_total", &deadline_exceeded_,
                            "retry ladders cut short by the per-route deadline");
  registry_->attach_counter("bnb_resilient_degraded_total", &degraded_,
                            "breaker-open routes served by the spare plane");
  registry_->attach_counter("bnb_resilient_cache_served_total", &cache_served_,
                            "audited cached-schedule replays delivered");
}

ResilientRouter::~ResilientRouter() {
  registry_->detach_counter("bnb_resilient_backoffs_total", &backoffs_);
  registry_->detach_counter("bnb_resilient_backoff_ns_total", &backoff_ns_);
  registry_->detach_counter("bnb_resilient_deadline_exceeded_total", &deadline_exceeded_);
  registry_->detach_counter("bnb_resilient_degraded_total", &degraded_);
  registry_->detach_counter("bnb_resilient_cache_served_total", &cache_served_);
  registry_->counter("bnb_resilient_backoffs_total").inc(backoffs_.value());
  registry_->counter("bnb_resilient_backoff_ns_total").inc(backoff_ns_.value());
  registry_->counter("bnb_resilient_deadline_exceeded_total").inc(deadline_exceeded_.value());
  registry_->counter("bnb_resilient_degraded_total").inc(degraded_.value());
  registry_->counter("bnb_resilient_cache_served_total").inc(cache_served_.value());
}

std::uint64_t ResilientRouter::backoff_for(unsigned attempt) const noexcept {
  const unsigned shift = attempt - 1;
  if (policy_.backoff_initial_ns == 0 || shift >= 63) return policy_.backoff_max_ns;
  const std::uint64_t raw = policy_.backoff_initial_ns << shift;
  const bool overflowed = (raw >> shift) != policy_.backoff_initial_ns;
  return overflowed ? policy_.backoff_max_ns : std::min(raw, policy_.backoff_max_ns);
}

bool ResilientRouter::deliver_spare(const Permutation& pi, ResilientReport& report) {
  BNB_OBS_SPAN(obs_span, obs::Phase::kFallback);
  const BnbNetwork::Result spare = spare_.route(pi);
  {
    BNB_OBS_SPAN(audit_span, obs::Phase::kAudit);
    report.audit = audit_.audit(pi, spare.outputs);
  }
  if (!report.audit.ok) return false;
  report.dest = spare.dest;
  return true;
}

bool ResilientRouter::route_fast(const Permutation& pi, const PermutationDigest& digest,
                                 ResilientReport& report) {
  const CompiledBnb& plan = robust_.engine();
  ++report.attempts;
  bool replay = false;
  CompiledBnb::Output out{};
  SmallSchedule small_sched;
  if (plan.small_capable()) {
    replay = cache_->find_small(digest, small_sched);
    if (!replay) small_sched = plan.compile_small(pi, scratch_);
    out = plan.apply_small(small_sched, pi, scratch_);
  } else {
    // A hit replays straight from the cache slot (zero-copy, seqlock
    // validated); only a miss solves into the scratch-owned schedule slot
    // and applies it.
    replay = cache_->replay(plan, digest, pi, scratch_, out);
    if (!replay) {
      ControlSchedule& sched = scratch_.schedule_slot();
      plan.solve(pi, scratch_, sched);
      out = plan.apply(sched, pi, scratch_);
    }
  }
  {
    BNB_OBS_SPAN(audit_span, obs::Phase::kAudit);
    report.audit = audit_.audit(pi, out.outputs);
  }
  if (!report.audit.ok) {
    // A cached replay that fails its audit is poisoned: quarantine the
    // digest.  A fresh solve that fails is a live fault the overlay does
    // not know about; either way nothing is inserted and the retry ladder
    // takes over.
    if (replay) (void)cache_->invalidate(digest);
    return false;
  }
  if (replay) {
    report.served_from_cache = true;
    cache_served_.inc();
  } else if (!robust_.has_faults()) {
    // QUARANTINE RULE: only schedules solved on a provably clean fabric
    // (no overlay at all, re-checked after the solve) may enter the cache.
    if (plan.small_capable()) {
      cache_->insert_small(digest, small_sched);
    } else {
      cache_->insert(digest, scratch_.schedule_slot());
    }
  }
  report.dest.assign(out.dest.begin(), out.dest.end());
  report.outcome = ResilientOutcome::kDelivered;
  return true;
}

ResilientReport ResilientRouter::route(const Permutation& pi) {
  // One trace per resilient route: the gate decision, fast path, retry
  // ladder, and any spare-plane fallback all share this id.
  BNB_OBS_TRACE_ROOT(trace_scope);
  BNB_EXPECTS(pi.size() == inputs());
  ResilientReport report;
  const std::uint64_t start = now_ns();
  const HealthTracker::RouteGate gate = health_.gate();
  report.probe = gate == HealthTracker::RouteGate::kProbe;

  if (gate == HealthTracker::RouteGate::kDegraded) {
    // Breaker open: bounded-latency degraded service on the spare plane,
    // no primary attempts, no retry storm against known-broken hardware.
    degraded_.inc();
    report.outcome = deliver_spare(pi, report) ? ResilientOutcome::kDegraded
                                               : ResilientOutcome::kFailed;
    report.breaker = health_.state();
    return report;
  }

  // One digest per route: the fast path's lookup and the fallback's
  // quarantine below share it.
  const PermutationDigest digest =
      cache_ != nullptr ? digest_permutation(pi) : PermutationDigest{};

  // Clean-fabric cache fast path.  Closed breaker only — a half-open probe
  // must exercise the primary plane itself, not a cached replay — and only
  // while no fault overlay exists (quarantine rule; a cleared transient
  // stays suspect until clear_faults()).
  if (gate == HealthTracker::RouteGate::kPrimary && cache_ != nullptr &&
      !robust_.has_faults()) {
    if (route_fast(pi, digest, report)) {
      health_.record_ok();
      report.breaker = health_.state();
      return report;
    }
  }

  // Primary retry ladder with deterministic exponential backoff under the
  // per-route deadline budget.  A probe gets exactly one attempt: probing
  // a broken fabric must stay cheap.
  const unsigned attempts_allowed = report.probe ? 1 : policy_.max_retries + 1;
  for (unsigned attempt = 0; attempt < attempts_allowed; ++attempt) {
    if (attempt > 0) {
      const std::uint64_t delay = backoff_for(attempt);
      if (policy_.deadline_ns != 0 &&
          now_ns() - start + delay > policy_.deadline_ns) {
        report.deadline_exceeded = true;
        deadline_exceeded_.inc();
        break;
      }
      ++report.backoffs;
      report.backoff_ns += delay;
      backoffs_.inc();
      backoff_ns_.inc(delay);
      if (policy_.sleep_on_backoff) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(delay));
      }
    }
    RobustReport attempt_report = robust_.route(pi);
    ++report.attempts;
    report.audit = attempt_report.audit;
    if (attempt_report.delivered()) {
      report.outcome = attempt == 0 ? ResilientOutcome::kDelivered
                                    : ResilientOutcome::kDeliveredAfterRetry;
      report.dest = std::move(attempt_report.dest);
      health_.record_ok();
      report.breaker = health_.state();
      return report;
    }
  }

  // The primary plane persistently misroutes (or the deadline cut the
  // ladder short): localize the damage, feed the breaker, quarantine the
  // digest, and deliver on the audited spare plane.
  report.diagnosis = robust_.diagnose(pi);
  health_.record_fault();
  if (cache_ != nullptr) (void)cache_->invalidate(digest);
  report.outcome = deliver_spare(pi, report) ? ResilientOutcome::kDeliveredByFallback
                                             : ResilientOutcome::kFailed;
  report.breaker = health_.state();
  return report;
}

ResilientRouter::Stats ResilientRouter::stats() const noexcept {
  return Stats{backoffs_.value(), backoff_ns_.value(), deadline_exceeded_.value(),
               degraded_.value(), cache_served_.value()};
}

}  // namespace bnb
