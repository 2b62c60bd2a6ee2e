// Chaos campaign harness — seeded fault storms against the whole stack.
//
// The resilience layer (fault/resilience.hpp) makes per-subsystem promises:
// no silent misroutes, bounded latency under a tripped breaker, a cache
// that never serves fault-era schedules, a stream that sheds instead of
// drowning and fails instead of hanging.  This harness is the integration
// proof: one seeded campaign drives a ResilientRouter under a randomized
// fault arrival process CONCURRENTLY with a backpressured StreamEngine,
// the two sharing one ScheduleCache and one MetricsRegistry, and
// independently re-checks every delivered destination against the
// requested permutation — the harness trusts no subsystem's own audit.
//
// The fault process (all driven by the repo's deterministic Rng, so a
// campaign replays bit-for-bit from its 64-bit seed):
//
//   * ARRIVALS: each healthy router route opens a fault window with
//     probability `fault_arrival`;
//   * BURSTS: a window injects 1..burst_max faults sampled from
//     FaultModel::random_campaign — coincident damage, all four kinds;
//   * TRANSIENT GLITCHES: a window is transient with probability
//     `transient_fraction` — the overlay expires after a few attempts
//     (inject_transient), modeling a glitch the retry ladder outlives;
//   * PERSISTENT WINDOWS: otherwise the overlay sticks for a sampled
//     number of routes until the "repair crew" (clear_faults) arrives —
//     long enough to trip the breaker when arrivals cluster.
//
// A campaign PASSES (ChaosReport::ok) when zero silent misroutes were
// observed across >= total_routes deliveries, both drivers ran to
// completion (liveness: the stream watchdog never fired, nothing hung),
// and — with force_trip_and_recover — the breaker demonstrably tripped
// AND recovered at least once.  bench/bench_chaos.cpp times campaigns;
// `route_cli --chaos` runs one from the command line with the full
// bnb_breaker_* / bnb_resilient_* / bnb_cache_* / bnb_stream_* counter
// export (docs/RELIABILITY.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "fault/resilience.hpp"
#include "obs/metrics.hpp"

namespace bnb {

struct ChaosConfig {
  unsigned m = 4;              ///< network size 2^m (small lane when m <= 6)
  std::uint64_t seed = 0x42;   ///< replays the whole campaign

  // -- router driver ------------------------------------------------------
  std::size_t router_routes = 4096;  ///< routes through the ResilientRouter
  double fault_arrival = 0.01;       ///< P(open a fault window) per healthy route
  double transient_fraction = 0.5;   ///< P(window is a transient glitch)
  unsigned transient_attempts_max = 3;    ///< glitch width in primary attempts (>= 1)
  std::size_t persistent_routes_max = 12; ///< persistent window width in routes (>= 1)
  std::size_t burst_max = 3;              ///< faults injected per window (>= 1)
  ResilientPolicy policy;            ///< router policy under test

  // -- stream driver (concurrent, shares the cache) -----------------------
  std::size_t stream_perms = 128;  ///< distinct permutations per stream run
  std::size_t stream_runs = 4;     ///< StreamEngine::run calls
  unsigned stream_threads = 2;     ///< >= 2 = pipelined, T - 1 solvers (watchdog armed)
  std::size_t stream_admission_limit = 0;  ///< 0 = admit everything
  std::uint64_t watchdog_timeout_ms = 2000;

  // -- shared fabric ------------------------------------------------------
  std::size_t cache_capacity = 512;
  bool concurrent = true;  ///< drive the stream from a second thread

  /// Deterministic closing phase: inject a persistent burst and route until
  /// the breaker trips, repair and route until it closes — so every
  /// campaign witnesses a full trip/recover cycle regardless of how the
  /// random arrivals fell.
  bool force_trip_and_recover = true;

  /// Non-zero: run a TelemetrySampler over the campaign registry at this
  /// period, producing the bnb.timeseries.v1 timeline in
  /// ChaosReport::timeseries_json (0 = no sampling).
  std::uint64_t sample_interval_ms = 0;
};

struct ChaosReport {
  // -- volume -------------------------------------------------------------
  std::size_t total_routes = 0;   ///< router routes + stream items delivered
  std::size_t router_routes = 0;
  std::size_t stream_routes = 0;  ///< stream items that delivered kOk

  // -- router outcomes ----------------------------------------------------
  std::size_t delivered = 0;        ///< primary-plane deliveries (cache included)
  std::size_t retried = 0;          ///< healed by the retry ladder
  std::size_t fallbacks = 0;        ///< spare plane after persistent failure
  std::size_t degraded = 0;         ///< breaker-open spare deliveries
  std::size_t failed = 0;           ///< kFailed (loud, audited refusals)
  std::size_t deadline_exceeded = 0;

  // -- the two invariants -------------------------------------------------
  std::size_t silent_misroutes = 0;  ///< harness-checked wrong deliveries (MUST be 0)
  bool live = true;                  ///< every driver ran to completion, no hang
  std::size_t stream_stalls = 0;     ///< watchdog firings (MUST be 0)

  // -- stream accounting --------------------------------------------------
  std::size_t stream_item_failures = 0;
  std::size_t stream_shed = 0;

  // -- fault process ------------------------------------------------------
  std::size_t fault_windows = 0;
  std::size_t transient_windows = 0;
  std::size_t persistent_windows = 0;
  std::size_t faults_injected = 0;

  // -- resilience machinery -----------------------------------------------
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_probes = 0;
  std::uint64_t breaker_recoveries = 0;
  std::uint64_t backoffs = 0;
  std::uint64_t quarantined = 0;   ///< cache entries dropped by quarantine
  std::uint64_t cache_served = 0;  ///< router deliveries from cached replays

  // -- telemetry timeline (sample_interval_ms > 0) ------------------------
  std::size_t timeseries_intervals = 0;  ///< sampling intervals captured
  std::string timeseries_json;           ///< bnb.timeseries.v1 export (empty = off)

  /// The campaign's pass criteria: no silent misroute anywhere, full
  /// liveness, watchdog quiet — and, when the config forces it, at least
  /// one observed breaker trip AND recovery.
  [[nodiscard]] bool ok(const ChaosConfig& config) const noexcept {
    if (silent_misroutes != 0 || !live || stream_stalls != 0) return false;
    if (config.force_trip_and_recover &&
        (breaker_trips == 0 || breaker_recoveries == 0)) {
      return false;
    }
    return true;
  }
};

/// Run one seeded campaign.  Counters/gauges land in `registry` (nullptr =
/// the global registry) via the subsystems' own attach contract; the
/// report is the harness's independent tally.  Deterministic given
/// (config, absence of concurrent interference): the fault process and
/// every permutation derive from config.seed.
[[nodiscard]] ChaosReport run_chaos_campaign(const ChaosConfig& config,
                                             obs::MetricsRegistry* registry = nullptr);

}  // namespace bnb
