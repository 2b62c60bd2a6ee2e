// Chaos campaign harness: seeded fault storms against the whole stack
// (ResilientRouter + backpressured StreamEngine + shared ScheduleCache),
// with the harness independently re-checking every delivery.  Includes the
// PR's acceptance campaign: >= 100k permutations, zero silent misroutes,
// zero stalls, and a breaker trip + recovery observed, enforced as a test.
#include <gtest/gtest.h>

#include <cstddef>

#include "fault/chaos.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace bnb;

ChaosConfig fast_config() {
  ChaosConfig cfg;
  cfg.m = 4;
  cfg.seed = 0xC405;
  cfg.router_routes = 1200;
  cfg.policy.sleep_on_backoff = false;  // deterministic and fast
  cfg.stream_perms = 64;
  cfg.stream_runs = 4;
  cfg.watchdog_timeout_ms = 5000;  // headroom for a loaded 1-core CI host
  return cfg;
}

TEST(ChaosCampaign, ShortSeededCampaignPasses) {
  const ChaosConfig cfg = fast_config();
  const ChaosReport report = run_chaos_campaign(cfg);
  EXPECT_TRUE(report.ok(cfg));
  EXPECT_EQ(report.silent_misroutes, 0U);
  EXPECT_EQ(report.stream_stalls, 0U);
  EXPECT_TRUE(report.live);
  EXPECT_GE(report.breaker_trips, 1U);
  EXPECT_GE(report.breaker_recoveries, 1U);
  EXPECT_EQ(report.total_routes, report.router_routes + report.stream_routes);
  EXPECT_GE(report.stream_routes, cfg.stream_perms * cfg.stream_runs -
                                      report.stream_item_failures -
                                      report.stream_shed);
}

TEST(ChaosCampaign, SequentialCampaignIsSeedDeterministic) {
  // With the stream driver run after the router (concurrent = false) the
  // whole campaign is a pure function of the seed: two runs must agree on
  // every tally, and a different seed must drive a different fault process.
  ChaosConfig cfg = fast_config();
  cfg.concurrent = false;
  const ChaosReport a = run_chaos_campaign(cfg);
  const ChaosReport b = run_chaos_campaign(cfg);
  EXPECT_EQ(a.router_routes, b.router_routes);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.retried, b.retried);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.fault_windows, b.fault_windows);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.breaker_trips, b.breaker_trips);
  EXPECT_EQ(a.breaker_recoveries, b.breaker_recoveries);
  EXPECT_EQ(a.backoffs, b.backoffs);
  EXPECT_EQ(a.stream_routes, b.stream_routes);
  EXPECT_TRUE(a.ok(cfg));

  // A different seed still passes (the trip/recover closing phase adds a
  // seed-dependent number of extra routes, so only the floor is fixed).
  cfg.seed ^= 0xDEAD;
  const ChaosReport c = run_chaos_campaign(cfg);
  EXPECT_TRUE(c.ok(cfg));
  EXPECT_GE(c.router_routes, cfg.router_routes);
}

TEST(ChaosCampaign, QuietFabricHasNoFaultMachinery) {
  ChaosConfig cfg = fast_config();
  cfg.fault_arrival = 0.0;
  cfg.force_trip_and_recover = false;
  const ChaosReport report = run_chaos_campaign(cfg);
  EXPECT_TRUE(report.ok(cfg));
  EXPECT_EQ(report.fault_windows, 0U);
  EXPECT_EQ(report.fallbacks, 0U);
  EXPECT_EQ(report.degraded, 0U);
  EXPECT_EQ(report.breaker_trips, 0U);
  EXPECT_EQ(report.delivered, report.router_routes);
}

TEST(ChaosCampaign, AdmissionLimitShedsWithoutFailingTheCampaign) {
  ChaosConfig cfg = fast_config();
  cfg.stream_admission_limit = 16;  // < stream_perms: every run sheds a tail
  const ChaosReport report = run_chaos_campaign(cfg);
  EXPECT_TRUE(report.ok(cfg));
  EXPECT_EQ(report.stream_shed, (cfg.stream_perms - 16) * cfg.stream_runs);
  EXPECT_EQ(report.stream_routes, 16 * cfg.stream_runs);
}

TEST(ChaosCampaign, GeneralLaneCampaignPasses) {
  ChaosConfig cfg = fast_config();
  cfg.m = 7;  // above SmallSchedule::kMaxM: general-lane schedules
  cfg.router_routes = 400;
  cfg.stream_perms = 32;
  cfg.stream_runs = 2;
  const ChaosReport report = run_chaos_campaign(cfg);
  EXPECT_TRUE(report.ok(cfg));
  EXPECT_EQ(report.silent_misroutes, 0U);
}

TEST(ChaosCampaign, WideStreamCampaignPasses) {
  // Three solver workers feeding the ordered ring, concurrent with the
  // fault-injected router over the shared cache, on both lanes.
  for (const unsigned m : {4U, 7U}) {
    ChaosConfig cfg = fast_config();
    cfg.m = m;
    cfg.stream_threads = 4;
    if (m == 7) {
      cfg.router_routes = 400;
      cfg.stream_perms = 32;
    }
    const ChaosReport report = run_chaos_campaign(cfg);
    EXPECT_TRUE(report.ok(cfg)) << "m=" << m;
    EXPECT_EQ(report.silent_misroutes, 0U) << "m=" << m;
    EXPECT_EQ(report.stream_stalls, 0U) << "m=" << m;
    EXPECT_TRUE(report.live) << "m=" << m;
  }
}

// The PR's acceptance criterion, enforced: a campaign of >= 100k routed
// permutations with zero silent misroutes, zero stalls, and at least one
// full breaker trip/recover cycle.  The stream side reuses a 256-perm pool
// across 320 runs (cache-warm small-lane replays), so the volume is cheap:
// the whole campaign is a few seconds even on a 1-core host.
TEST(ChaosCampaign, FullCampaign100kHasNoSilentMisroutesAndStaysLive) {
  ChaosConfig cfg;
  cfg.m = 4;
  cfg.seed = 0x100C;
  cfg.router_routes = 20000;
  cfg.fault_arrival = 0.02;
  cfg.policy.sleep_on_backoff = false;
  cfg.stream_perms = 256;
  cfg.stream_runs = 320;
  cfg.watchdog_timeout_ms = 5000;
  const ChaosReport report = run_chaos_campaign(cfg);
  EXPECT_GE(report.total_routes, 100000U);
  EXPECT_EQ(report.silent_misroutes, 0U);
  EXPECT_EQ(report.stream_stalls, 0U);
  EXPECT_TRUE(report.live);
  EXPECT_GE(report.breaker_trips, 1U);
  EXPECT_GE(report.breaker_recoveries, 1U);
  EXPECT_GT(report.fault_windows, 0U);
  EXPECT_TRUE(report.ok(cfg));
}

}  // namespace
