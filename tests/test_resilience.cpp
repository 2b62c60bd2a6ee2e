// Resilience layer correctness: the HealthTracker's breaker state machine
// (trip after K consecutive diagnoses, half-open probe cadence, recovery
// after consecutive clean probes), the ResilientRouter's retry ladder
// (deterministic exponential backoff under a per-route deadline budget),
// the audited cache fast path, and the quarantine contract — a schedule
// solved while faults are active never enters the ScheduleCache, and a
// poisoned cached digest is invalidated the moment its replay fails audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/bnb_network.hpp"
#include "core/compiled_bnb.hpp"
#include "core/schedule_cache.hpp"
#include "fault/fault_model.hpp"
#include "fault/resilience.hpp"
#include "obs/metrics.hpp"
#include "perm/generators.hpp"

namespace {

using namespace bnb;

void expect_delivers(const Permutation& pi, const ResilientReport& report) {
  ASSERT_TRUE(report.delivered()) << to_string(report.outcome);
  ASSERT_EQ(report.dest.size(), pi.size());
  for (std::size_t j = 0; j < pi.size(); ++j) {
    ASSERT_EQ(report.dest[j], pi(j)) << "dest[" << j << "]";
  }
}

/// A link flip into the first splitter's slice: fires on essentially every
/// permutation, so a handful of routes is enough to trip any breaker.
FaultModel always_firing_fault(unsigned m) {
  FaultModel model(m);
  model.add({FaultKind::kLinkFlip, {0, 0, 0, 0}, false, 0, 0});
  return model;
}

// ---- HealthTracker state machine ---------------------------------------

TEST(HealthTracker, TripsAfterConsecutiveFaultsOnly) {
  HealthTracker health({.trip_threshold = 2, .probe_interval = 3,
                        .recovery_threshold = 2});
  EXPECT_EQ(health.state(), BreakerState::kClosed);
  EXPECT_EQ(health.gate(), HealthTracker::RouteGate::kPrimary);

  // A success between faults resets the consecutive streak.
  health.record_fault();
  health.record_ok();
  health.record_fault();
  EXPECT_EQ(health.state(), BreakerState::kClosed);
  EXPECT_EQ(health.stats().trips, 0U);

  // Two in a row trip it.
  health.record_fault();
  EXPECT_EQ(health.state(), BreakerState::kOpen);
  EXPECT_EQ(health.stats().trips, 1U);
}

TEST(HealthTracker, ProbeCadenceAndRecovery) {
  HealthTracker health({.trip_threshold = 1, .probe_interval = 3,
                        .recovery_threshold = 2});
  health.record_fault();
  ASSERT_EQ(health.state(), BreakerState::kOpen);

  // While open, every third gate is the half-open probe.
  EXPECT_EQ(health.gate(), HealthTracker::RouteGate::kDegraded);
  EXPECT_EQ(health.gate(), HealthTracker::RouteGate::kDegraded);
  EXPECT_EQ(health.gate(), HealthTracker::RouteGate::kProbe);
  EXPECT_EQ(health.stats().probes, 1U);

  // One clean probe: half-open, not yet closed.
  health.record_ok();
  EXPECT_EQ(health.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(health.stats().recoveries, 0U);

  // A failed probe ends the streak; the breaker stays fully open.
  health.record_fault();
  EXPECT_EQ(health.state(), BreakerState::kOpen);

  // Two consecutive clean probes close it.
  health.record_ok();
  health.record_ok();
  EXPECT_EQ(health.state(), BreakerState::kClosed);
  EXPECT_EQ(health.stats().recoveries, 1U);
  EXPECT_EQ(health.gate(), HealthTracker::RouteGate::kPrimary);
}

// ---- clean fabric -------------------------------------------------------

TEST(ResilientRouter, CleanFabricDeliversFirstAttempt) {
  ResilientRouter router(5);
  Rng rng(0x2E51);
  for (int round = 0; round < 8; ++round) {
    const Permutation pi = random_perm(32, rng);
    const ResilientReport report = router.route(pi);
    EXPECT_EQ(report.outcome, ResilientOutcome::kDelivered);
    EXPECT_EQ(report.attempts, 1U);
    EXPECT_EQ(report.breaker, BreakerState::kClosed);
    EXPECT_FALSE(report.served_from_cache);
    expect_delivers(pi, report);
  }
}

TEST(ResilientRouter, CleanFabricFastPathServesFromCacheAndAudits) {
  // Small lane (m = 5) and general lane (m = 7): the second identical
  // route must be an audited cached replay, bit-correct either way.
  for (const unsigned m : {5U, 7U}) {
    ScheduleCache cache(16);
    ResilientRouter router(m, {}, &cache);
    Rng rng(0x2E52 + m);
    const Permutation pi = random_perm(std::size_t{1} << m, rng);

    const ResilientReport cold = router.route(pi);
    EXPECT_EQ(cold.outcome, ResilientOutcome::kDelivered) << "m=" << m;
    EXPECT_FALSE(cold.served_from_cache) << "m=" << m;
    expect_delivers(pi, cold);
    EXPECT_EQ(cache.stats().entries, 1U) << "m=" << m;

    const ResilientReport warm = router.route(pi);
    EXPECT_EQ(warm.outcome, ResilientOutcome::kDelivered) << "m=" << m;
    EXPECT_TRUE(warm.served_from_cache) << "m=" << m;
    EXPECT_TRUE(warm.audit.ok) << "a cached replay must still be audited";
    expect_delivers(pi, warm);
    EXPECT_EQ(router.stats().cache_served, 1U) << "m=" << m;
  }
}

TEST(ResilientRouter, CleanFabricDeliversFirstAttemptOnEverySizeColdAndWarm) {
  // The router's audit-and-retry would hide a wrong solve: a misrouted
  // first attempt still ends delivered, by retry or the spare plane.  So on
  // a clean fabric every route must be the primary plane's first attempt,
  // equal to the behavioral network, for every m — the small lane (m <= 6,
  // where the whole solve is the fused tail) and the general lane, cold
  // (solve) and warm (cached replay).
  for (unsigned m = 1; m <= 14; ++m) {
    const std::size_t n = std::size_t{1} << m;
    ScheduleCache cache(8);
    ResilientRouter router(m, {}, &cache);
    const BnbNetwork reference(m);
    Rng rng(0x2E60 + m);
    std::vector<std::vector<std::uint32_t>> routed;  // m = 1 has only 2 permutations
    std::uint64_t hits = 0;
    for (int round = 0; round < 3; ++round) {
      const Permutation pi = random_perm(n, rng);
      const std::vector<std::uint32_t> want = reference.route(pi).dest;
      bool seen = std::find(routed.begin(), routed.end(), want) != routed.end();
      routed.push_back(want);
      for (const char* pass : {"cold", "warm"}) {
        const ResilientReport report = router.route(pi);
        ASSERT_EQ(report.outcome, ResilientOutcome::kDelivered) << "m=" << m << " " << pass;
        ASSERT_EQ(report.attempts, 1U) << "m=" << m << " " << pass;
        ASSERT_EQ(report.served_from_cache, seen) << "m=" << m << " " << pass;
        ASSERT_EQ(report.dest, want) << "m=" << m << " " << pass;
        hits += seen ? 1 : 0;
        seen = true;
      }
    }
    EXPECT_EQ(router.stats().degraded, 0U) << "m=" << m;
    EXPECT_EQ(router.stats().cache_served, hits) << "m=" << m;
  }
}

// ---- retry ladder -------------------------------------------------------

TEST(ResilientRouter, TransientGlitchHealsWithBackoff) {
  // One-attempt glitch windows: the retry runs on healed hardware, so the
  // ladder must always end delivered — and when the glitch actually fired,
  // the heal shows up as kDeliveredAfterRetry with a counted backoff.
  const unsigned m = 5;
  Rng rng(0x2E53);
  std::uint64_t healed = 0;
  ResilientPolicy policy;
  policy.max_retries = 2;
  policy.sleep_on_backoff = false;  // deterministic: account, don't sleep
  for (int round = 0; round < 40; ++round) {
    ResilientRouter router(m, policy);
    Rng campaign_rng(0x2E53000 + round);
    FaultModel model(m);
    for (const auto& f : FaultModel::random_campaign(m, 2, campaign_rng)) {
      model.add(f);
    }
    router.inject_transient(model, 1);
    const Permutation pi = random_perm(32, rng);
    const ResilientReport report = router.route(pi);
    expect_delivers(pi, report);
    if (report.outcome == ResilientOutcome::kDeliveredAfterRetry) {
      ++healed;
      EXPECT_GE(report.backoffs, 1U);
      EXPECT_GT(report.backoff_ns, 0U);
      EXPECT_GE(router.stats().backoffs, 1U);
    }
  }
  EXPECT_GT(healed, 0U) << "40 random 2-fault glitches: some must fire";
}

TEST(ResilientRouter, BackoffScheduleIsDeterministicExponential) {
  ResilientPolicy policy;
  policy.max_retries = 4;
  policy.backoff_initial_ns = 1000;
  policy.backoff_max_ns = 3000;
  policy.sleep_on_backoff = false;
  const unsigned m = 4;
  ResilientRouter router(m, policy);
  router.inject(always_firing_fault(m));
  Rng rng(0x2E54);
  // A rare permutation may route despite the flip; find one that exhausts
  // the ladder and check the full schedule on it.
  bool exhausted = false;
  for (int round = 0; round < 16 && !exhausted; ++round) {
    const ResilientReport report = router.route(random_perm(16, rng));
    if (report.outcome != ResilientOutcome::kDeliveredByFallback) continue;
    exhausted = true;
    // 5 attempts -> 4 backoffs of 1000, 2000, then capped at 3000.
    ASSERT_EQ(report.attempts, 5U);
    EXPECT_EQ(report.backoffs, 4U);
    EXPECT_EQ(report.backoff_ns, 1000U + 2000U + 3000U + 3000U);
  }
  EXPECT_TRUE(exhausted);
}

TEST(ResilientRouter, DeadlineBudgetBoundsRetries) {
  // A 1 ns budget: the first backoff already exceeds it, so the ladder is
  // cut to a single attempt and the route falls through to the audited
  // spare plane instead of blocking.
  ResilientPolicy policy;
  policy.max_retries = 8;
  policy.backoff_initial_ns = 5'000'000;
  policy.deadline_ns = 1;
  policy.sleep_on_backoff = false;
  const unsigned m = 5;
  ResilientRouter router(m, policy);
  router.inject(always_firing_fault(m));
  Rng rng(0x2E55);
  std::uint64_t cut_short = 0;
  for (int round = 0; round < 6; ++round) {
    const Permutation pi = random_perm(32, rng);
    const ResilientReport report = router.route(pi);
    expect_delivers(pi, report);
    if (report.deadline_exceeded) {
      ++cut_short;
      EXPECT_EQ(report.attempts, 1U);
      EXPECT_EQ(report.backoffs, 0U);
      EXPECT_EQ(report.outcome, ResilientOutcome::kDeliveredByFallback);
    }
  }
  EXPECT_GT(cut_short, 0U);
  EXPECT_EQ(router.stats().deadline_exceeded, cut_short);
}

// ---- breaker integration ------------------------------------------------

TEST(ResilientRouter, PersistentFaultTripsBreakerAfterKDiagnoses) {
  ResilientPolicy policy;
  policy.max_retries = 1;
  policy.sleep_on_backoff = false;
  policy.breaker.trip_threshold = 3;
  const unsigned m = 6;
  ResilientRouter router(m, policy);
  router.inject(always_firing_fault(m));
  Rng rng(0x2E56);

  // Every persistently-failing route is diagnosed, delivered by fallback,
  // and feeds the breaker; after 3 consecutive diagnoses it must be open.
  std::uint64_t fallbacks = 0;
  for (int round = 0; round < 64 && router.health().stats().trips == 0; ++round) {
    const Permutation pi = random_perm(64, rng);
    const ResilientReport report = router.route(pi);
    expect_delivers(pi, report);
    if (report.outcome == ResilientOutcome::kDeliveredByFallback) {
      ++fallbacks;
      EXPECT_TRUE(report.diagnosis.located);
    }
  }
  ASSERT_EQ(router.health().stats().trips, 1U);
  EXPECT_GE(fallbacks, policy.breaker.trip_threshold);

  // Open breaker: non-probe routes go straight to the spare plane with no
  // primary attempts — bounded latency while the fabric is broken.
  std::uint64_t degraded = 0;
  for (int round = 0; round < 8; ++round) {
    const Permutation pi = random_perm(64, rng);
    const ResilientReport report = router.route(pi);
    expect_delivers(pi, report);
    if (report.outcome == ResilientOutcome::kDegraded) {
      ++degraded;
      EXPECT_EQ(report.attempts, 0U);
      EXPECT_NE(report.breaker, BreakerState::kClosed);
    }
  }
  EXPECT_GT(degraded, 0U);
  EXPECT_EQ(router.stats().degraded, degraded);
}

TEST(ResilientRouter, PersistentFaultCountsOneMisroutePerFailedPrimaryAttempt) {
  // The ladder's two robust-routing counters: every failed primary attempt
  // adds one bnb_robust_misroutes_caught_total, and a route that ends on
  // the spare plane leaves bnb_robust_routed_total unchanged.
  obs::MetricsRegistry registry;
  ResilientPolicy policy;
  policy.max_retries = 2;
  policy.sleep_on_backoff = false;
  policy.breaker.trip_threshold = 1000;  // every route runs the ladder
  const unsigned m = 6;
  ResilientRouter router(m, policy, nullptr, &registry);
  const auto counter = [&](const char* name) {
    return registry.snapshot().find(name)->counter;
  };
  Rng rng(0x3C0E);
  const Permutation clean = random_perm(64, rng);
  expect_delivers(clean, router.route(clean));
  EXPECT_EQ(counter("bnb_robust_routed_total"), 1U);
  EXPECT_EQ(counter("bnb_robust_misroutes_caught_total"), 0U);

  router.inject(always_firing_fault(m));
  std::uint64_t fallbacks = 0;
  for (int round = 0; round < 16; ++round) {
    const std::uint64_t routed = counter("bnb_robust_routed_total");
    const std::uint64_t caught = counter("bnb_robust_misroutes_caught_total");
    const Permutation pi = random_perm(64, rng);
    const ResilientReport report = router.route(pi);
    expect_delivers(pi, report);
    if (report.outcome != ResilientOutcome::kDeliveredByFallback) continue;
    ++fallbacks;
    EXPECT_EQ(report.attempts, policy.max_retries + 1);
    EXPECT_EQ(counter("bnb_robust_misroutes_caught_total") - caught, report.attempts);
    EXPECT_EQ(counter("bnb_robust_routed_total"), routed);
  }
  EXPECT_GT(fallbacks, 0U);
}

TEST(ResilientRouter, HalfOpenProbeRestoresFastPath) {
  ResilientPolicy policy;
  policy.max_retries = 0;
  policy.sleep_on_backoff = false;
  policy.breaker.trip_threshold = 2;
  policy.breaker.probe_interval = 2;
  policy.breaker.recovery_threshold = 2;
  const unsigned m = 5;
  ResilientRouter router(m, policy);
  Rng rng(0x2E57);

  router.inject(always_firing_fault(m));
  for (int round = 0; round < 64 && router.health().state() != BreakerState::kOpen;
       ++round) {
    (void)router.route(random_perm(32, rng));
  }
  ASSERT_EQ(router.health().state(), BreakerState::kOpen);

  // Repair the fabric: the half-open probes now come back clean, and after
  // recovery_threshold of them the breaker closes again.
  router.clear_faults();
  std::uint64_t probes_seen = 0;
  for (int round = 0; round < 64 && router.health().state() != BreakerState::kClosed;
       ++round) {
    const Permutation pi = random_perm(32, rng);
    const ResilientReport report = router.route(pi);
    expect_delivers(pi, report);
    if (report.probe) {
      ++probes_seen;
      EXPECT_EQ(report.outcome, ResilientOutcome::kDelivered);
      EXPECT_EQ(report.attempts, 1U) << "a probe gets exactly one attempt";
    }
  }
  EXPECT_EQ(router.health().state(), BreakerState::kClosed);
  EXPECT_EQ(probes_seen, policy.breaker.recovery_threshold);
  EXPECT_EQ(router.health().stats().recoveries, 1U);

  // Fast path restored: the next route is a plain first-attempt delivery.
  const Permutation pi = random_perm(32, rng);
  const ResilientReport report = router.route(pi);
  EXPECT_EQ(report.outcome, ResilientOutcome::kDelivered);
  EXPECT_FALSE(report.probe);
}

// ---- cache quarantine ---------------------------------------------------

TEST(ResilientRouter, FaultRoutesNeverPolluteCache) {
  // While any overlay is active — including an expired transient window
  // before clear_faults() — the cache must be neither consulted nor
  // populated.  Small lane (m = 5) and general lane (m = 7).
  for (const unsigned m : {5U, 7U}) {
    ScheduleCache cache(32);
    ResilientPolicy policy;
    policy.sleep_on_backoff = false;
    // Keep the breaker out of this test: a trip would gate the later clean
    // routes away from the fast path (quarantine is what's under test).
    policy.breaker.trip_threshold = 1000;
    ResilientRouter router(m, policy, &cache);
    Rng rng(0x2E58 + m);

    router.inject(always_firing_fault(m));
    for (int round = 0; round < 6; ++round) {
      const Permutation pi = random_perm(std::size_t{1} << m, rng);
      const ResilientReport report = router.route(pi);
      expect_delivers(pi, report);
      EXPECT_FALSE(report.served_from_cache) << "m=" << m;
    }
    EXPECT_EQ(cache.stats().entries, 0U)
        << "m=" << m << ": fault-era schedules must never enter the cache";

    // A transient overlay that already expired is still suspect.
    router.clear_faults();
    router.inject_transient(always_firing_fault(m), 1);
    const Permutation heal = random_perm(std::size_t{1} << m, rng);
    expect_delivers(heal, router.route(heal));  // retry outlives the glitch
    EXPECT_EQ(cache.stats().entries, 0U)
        << "m=" << m << ": suspect fabric (pre-clear_faults) must not cache";

    // Only after clear_faults() does the fast path repopulate.
    router.clear_faults();
    const Permutation clean = random_perm(std::size_t{1} << m, rng);
    expect_delivers(clean, router.route(clean));
    EXPECT_EQ(cache.stats().entries, 1U) << "m=" << m;
  }
}

TEST(ResilientRouter, QuarantineInvalidatesPoisonedDigest) {
  // Poison the cache: another permutation's schedule filed under pi's
  // digest.  The replay misroutes, the audit catches it, the digest is
  // quarantined, and the retry ladder still delivers pi correctly.
  for (const unsigned m : {5U, 7U}) {
    const std::size_t n = std::size_t{1} << m;
    ScheduleCache cache(16);
    ResilientRouter router(m, {}, &cache);
    Rng rng(0x2E59 + m);
    const Permutation pi = random_perm(n, rng);
    Permutation other = random_perm(n, rng);
    while (other == pi) other = random_perm(n, rng);

    const CompiledBnb& plan = router.engine();
    RouteScratch scratch;
    scratch.prepare(plan);
    const PermutationDigest digest = digest_permutation(pi);
    if (plan.small_capable()) {
      cache.insert_small(digest, plan.compile_small(other, scratch));
    } else {
      ControlSchedule poisoned;
      plan.solve(other, scratch, poisoned);
      cache.insert(digest, poisoned);
    }
    ASSERT_EQ(cache.stats().entries, 1U);

    const ResilientReport report = router.route(pi);
    expect_delivers(pi, report);
    EXPECT_FALSE(report.served_from_cache) << "m=" << m;
    EXPECT_EQ(cache.stats().quarantined, 1U)
        << "m=" << m << ": the poisoned digest must be invalidated";
    EXPECT_GE(report.attempts, 2U)
        << "m=" << m << ": failed replay, then a real primary attempt";

    // The digest is gone (the delivering ladder attempt bypasses the
    // cache): the next route is a clean miss-fill, and only THEN does a
    // replay serve — now with the correct schedule.
    const ResilientReport refill = router.route(pi);
    expect_delivers(pi, refill);
    EXPECT_FALSE(refill.served_from_cache) << "m=" << m;
    const ResilientReport warm = router.route(pi);
    expect_delivers(pi, warm);
    EXPECT_TRUE(warm.served_from_cache) << "m=" << m;
  }
}

TEST(ResilientRouter, DiagnosisQuarantinesTheFailingDigest) {
  // A digest cached while healthy must be dropped when the same
  // permutation later fails persistently: the schedule may predate the
  // damage, but quarantine is deliberately conservative.
  const unsigned m = 5;
  ScheduleCache cache(16);
  ResilientPolicy policy;
  policy.max_retries = 0;
  policy.sleep_on_backoff = false;
  ResilientRouter router(m, policy, &cache);
  Rng rng(0x2E5A);
  const Permutation pi = random_perm(32, rng);

  expect_delivers(pi, router.route(pi));
  ASSERT_EQ(cache.stats().entries, 1U);

  router.inject(always_firing_fault(m));
  const ResilientReport report = router.route(pi);
  expect_delivers(pi, report);
  EXPECT_EQ(report.outcome, ResilientOutcome::kDeliveredByFallback);
  EXPECT_EQ(cache.stats().entries, 0U);
  EXPECT_EQ(cache.stats().quarantined, 1U);
}

}  // namespace
