#include "fault/resilience.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <thread>

#include "common/expect.hpp"
#include "core/bit_pack.hpp"
#include "fault/injection.hpp"
#include "obs/span.hpp"
#include "obs/trace_context.hpp"
#include "perm/generators.hpp"

namespace bnb {
namespace {

[[nodiscard]] std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Replays the compiled plan column by column on a private line state so
/// diagnosis can compare a faulty and a clean fabric at any prefix depth.
/// Off the hot path: allocation is fine here.
class PrefixRunner {
 public:
  explicit PrefixRunner(const CompiledBnb& plan)
      : plan_(plan),
        n_(plan.inputs()),
        state_(n_),
        spare_(n_),
        bits_(bitpack::words_for(n_)),
        ctl_(plan.control_words()),
        work_(plan.work_words()) {}

  void reset(const Permutation& pi) {
    for (std::size_t j = 0; j < n_; ++j) {
      state_[j] = (std::uint64_t{j} << 32) | pi(j);
    }
    column_ = 0;
  }

  [[nodiscard]] const std::vector<std::uint64_t>& state() const noexcept {
    return state_;
  }

  /// Advance exactly one column under `faults`.
  void step(const EngineFaults* faults) {
    const CompiledBnb::Column& col = plan_.columns()[column_];
    if (col.nested_stage == 0) repack_bits(col.main_stage);
    const ColumnFaultMasks* fcol =
        faults != nullptr ? faults->column(column_) : nullptr;
    plan_.column_controls(column_, bits_.data(), ctl_.data(), work_.data(), fcol);
    if (fcol != nullptr && !fcol->dead.empty()) {
      const std::uint64_t poison = dead_crosspoint_poison(n_);
      plan_.visit_dead_crosspoint_hits(*fcol, ctl_.data(), [&](std::size_t line) {
        state_[line] ^= poison;
      });
    }
    apply_column_to_lines<std::uint64_t>(ctl_.data(), {state_.data(), n_},
                                         {spare_.data(), n_}, col.group);
    state_.swap(spare_);
    ++column_;
  }

  /// Switch controls the CURRENT column would use, without advancing (the
  /// bit-slice buffer is copied — column_controls advances it in place).
  void peek_controls(const EngineFaults* faults,
                     std::vector<std::uint64_t>& ctl_out) {
    const CompiledBnb::Column& col = plan_.columns()[column_];
    if (col.nested_stage == 0) repack_bits(col.main_stage);
    std::vector<std::uint64_t> bits_copy = bits_;
    ctl_out.assign(plan_.control_words(), 0);
    plan_.column_controls(column_, bits_copy.data(), ctl_out.data(), work_.data(),
                          faults != nullptr ? faults->column(column_) : nullptr);
  }

 private:
  void repack_bits(unsigned main_stage) {
    const unsigned addr_bit = plan_.m() - 1 - main_stage;
    const std::size_t words = bitpack::words_for(n_);
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t lo = w * 64;
      const std::size_t hi = std::min(n_, lo + 64);
      std::uint64_t packed = 0;
      for (std::size_t t = lo; t < hi; ++t) {
        packed |= ((state_[t] >> addr_bit) & 1ULL) << (t - lo);
      }
      bits_[w] = packed;
    }
  }

  const CompiledBnb& plan_;
  std::size_t n_;
  std::vector<std::uint64_t> state_, spare_, bits_, ctl_, work_;
  std::size_t column_ = 0;
};

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
      engine_(m),
      spare_(m),
      audit_(m),
      cache_(cache),
      health_(policy.breaker, registry),
      registry_(registry != nullptr ? registry : &obs::MetricsRegistry::global()) {
  scratch_.prepare(engine_);
  registry_->attach_counter("bnb_robust_routed_total", &routed_,
                            "primary-plane ladder attempts delivered clean");
  registry_->attach_counter("bnb_robust_misroutes_caught_total", &misroutes_caught_,
                            "primary-plane ladder attempts whose audit failed");
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
  registry_->detach_counter("bnb_robust_routed_total", &routed_);
  registry_->detach_counter("bnb_robust_misroutes_caught_total", &misroutes_caught_);
  registry_->detach_counter("bnb_resilient_backoffs_total", &backoffs_);
  registry_->detach_counter("bnb_resilient_backoff_ns_total", &backoff_ns_);
  registry_->detach_counter("bnb_resilient_deadline_exceeded_total", &deadline_exceeded_);
  registry_->detach_counter("bnb_resilient_degraded_total", &degraded_);
  registry_->detach_counter("bnb_resilient_cache_served_total", &cache_served_);
  // Fold the final totals into the owned counters so the fabric-wide view
  // stays monotonic across router lifetimes.
  registry_->counter("bnb_robust_routed_total").inc(routed_.value());
  registry_->counter("bnb_robust_misroutes_caught_total").inc(misroutes_caught_.value());
  registry_->counter("bnb_resilient_backoffs_total").inc(backoffs_.value());
  registry_->counter("bnb_resilient_backoff_ns_total").inc(backoff_ns_.value());
  registry_->counter("bnb_resilient_deadline_exceeded_total").inc(deadline_exceeded_.value());
  registry_->counter("bnb_resilient_degraded_total").inc(degraded_.value());
  registry_->counter("bnb_resilient_cache_served_total").inc(cache_served_.value());
}

void ResilientRouter::inject(const FaultModel& model) {
  BNB_EXPECTS(model.m() == m());
  overlay_ = compile_engine_faults(model);
  permanent_ = true;
  transient_remaining_ = 0;
}

void ResilientRouter::inject_transient(const FaultModel& model, unsigned attempts) {
  BNB_EXPECTS(model.m() == m());
  overlay_ = compile_engine_faults(model);
  permanent_ = false;
  transient_remaining_ = attempts;
}

void ResilientRouter::clear_faults() {
  overlay_ = EngineFaults{};
  permanent_ = false;
  transient_remaining_ = 0;
}

const EngineFaults* ResilientRouter::overlay_for_attempt() {
  if (overlay_.empty()) return nullptr;
  if (permanent_) return &overlay_;
  if (transient_remaining_ == 0) return nullptr;
  --transient_remaining_;
  return &overlay_;
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

bool ResilientRouter::attempt_primary(const Permutation& pi, ResilientReport& report) {
  const EngineFaults* overlay = overlay_for_attempt();
  const CompiledBnb::Output out = engine_.route(pi, scratch_, nullptr, overlay);
  ++report.attempts;
  {
    BNB_OBS_SPAN(audit_span, obs::Phase::kAudit);
    report.audit = audit_.audit(pi, out.outputs);
  }
  if (!report.audit.ok) {
    misroutes_caught_.inc();
    return false;
  }
  routed_.inc();
  report.dest.assign(out.dest.begin(), out.dest.end());
  return true;
}

bool ResilientRouter::route_fast(const Permutation& pi, const PermutationDigest& digest,
                                 ResilientReport& report) {
  ++report.attempts;
  bool replay = false;
  CompiledBnb::Output out{};
  SmallSchedule small_sched;
  if (engine_.small_capable()) {
    replay = cache_->find_small(digest, small_sched);
    if (!replay) small_sched = engine_.compile_small(pi, scratch_);
    out = engine_.apply_small(small_sched, pi, scratch_);
  } else {
    // A hit replays straight from the cache slot (zero-copy, seqlock
    // validated); only a miss solves into the scratch-owned schedule slot
    // and applies it.
    replay = cache_->replay(engine_, digest, pi, scratch_, out);
    if (!replay) {
      ControlSchedule& sched = scratch_.schedule_slot();
      engine_.solve(pi, scratch_, sched);
      out = engine_.apply(sched, pi, scratch_);
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
  } else if (!has_faults()) {
    // QUARANTINE RULE: only schedules solved on a provably clean fabric
    // (no overlay at all, re-checked after the solve) may enter the cache.
    if (engine_.small_capable()) {
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
      !has_faults()) {
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
    if (attempt_primary(pi, report)) {
      report.outcome = attempt == 0 ? ResilientOutcome::kDelivered
                                    : ResilientOutcome::kDeliveredAfterRetry;
      health_.record_ok();
      report.breaker = health_.state();
      return report;
    }
  }

  // The primary plane persistently misroutes (or the deadline cut the
  // ladder short): localize the damage, feed the breaker, quarantine the
  // digest, and deliver on the audited spare plane.
  report.diagnosis = diagnose(pi);
  health_.record_fault();
  if (cache_ != nullptr) (void)cache_->invalidate(digest);
  report.outcome = deliver_spare(pi, report) ? ResilientOutcome::kDeliveredByFallback
                                             : ResilientOutcome::kFailed;
  report.breaker = health_.state();
  return report;
}

Diagnosis ResilientRouter::diagnose(const Permutation& pi) const {
  BNB_OBS_SPAN(obs_span, obs::Phase::kDiagnose);
  Diagnosis diagnosis;
  const bool active = permanent_ || transient_remaining_ > 0;
  if (overlay_.empty() || !active) return diagnosis;
  const EngineFaults* faults = &overlay_;
  const std::size_t total = engine_.columns().size();

  PrefixRunner faulty(engine_);
  PrefixRunner clean(engine_);
  // State equality after stepping `c` columns both ways; recomputed from
  // column 0 per query so every probe of the binary search is independent.
  auto diverged_after = [&](const Permutation& probe, std::size_t c) {
    faulty.reset(probe);
    clean.reset(probe);
    for (std::size_t s = 0; s < c; ++s) {
      faulty.step(faults);
      clean.step(nullptr);
    }
    return faulty.state() != clean.state();
  };

  Rng rng(policy_.probe_seed);
  std::size_t best_column = total;  // sentinel: nothing located yet
  Permutation best_probe = pi;
  const unsigned probes = std::max(1U, policy_.diagnosis_probes);
  for (unsigned q = 0; q < probes; ++q) {
    const Permutation probe = (q == 0) ? pi : random_perm(inputs(), rng);
    if (!diverged_after(probe, total)) continue;
    // Binary search the false->true boundary: P(lo) false, P(hi) true.
    // Stepping the boundary column diverges two equal states, so that
    // column carries active fault masks — it IS the faulty column.
    std::size_t lo = 0;
    std::size_t hi = total;
    while (hi - lo > 1) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (diverged_after(probe, mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    if (hi - 1 < best_column) {
      best_column = hi - 1;
      best_probe = probe;
    }
  }
  if (best_column >= total) return diagnosis;  // no probe excited the fault

  const CompiledBnb::Column& col = engine_.columns()[best_column];
  diagnosis.located = true;
  diagnosis.column = static_cast<std::uint32_t>(best_column);
  diagnosis.main_stage = col.main_stage;
  diagnosis.nested_stage = col.nested_stage;

  // Localize the splitter: first switch whose setting differs between the
  // faulty and clean fabrics fed the same (pre-divergence) state; if the
  // settings agree, the damage is on the word path (a dead crosspoint).
  faulty.reset(best_probe);
  clean.reset(best_probe);
  for (std::size_t s = 0; s < best_column; ++s) {
    faulty.step(faults);
    clean.step(nullptr);
  }
  std::vector<std::uint64_t> ctl_faulty;
  std::vector<std::uint64_t> ctl_clean;
  faulty.peek_controls(faults, ctl_faulty);
  clean.peek_controls(nullptr, ctl_clean);
  const unsigned switch_shift = col.p - 1;  // sp(p): 2^{p-1} switches each
  for (std::size_t w = 0; w < ctl_faulty.size(); ++w) {
    const std::uint64_t diff = ctl_faulty[w] ^ ctl_clean[w];
    if (diff != 0) {
      const std::size_t sw = w * 64 + static_cast<std::size_t>(std::countr_zero(diff));
      diagnosis.splitter = static_cast<std::uint32_t>(sw >> switch_shift);
      return diagnosis;
    }
  }
  if (const ColumnFaultMasks* fcol = faults->column(best_column)) {
    bool first = true;
    engine_.visit_dead_crosspoint_hits(*fcol, ctl_faulty.data(),
                                       [&](std::size_t line) {
                                         if (first) {
                                           diagnosis.splitter =
                                               static_cast<std::uint32_t>(
                                                   line >> col.p);
                                           first = false;
                                         }
                                       });
  }
  return diagnosis;
}

ResilientRouter::Stats ResilientRouter::stats() const noexcept {
  return Stats{backoffs_.value(), backoff_ns_.value(), deadline_exceeded_.value(),
               degraded_.value(), cache_served_.value()};
}

}  // namespace bnb
