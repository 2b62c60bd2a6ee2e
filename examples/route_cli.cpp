// Command-line permutation router.
//
// Usage:
//   route_cli                 # demo: random permutation on 16 lines
//   route_cli 3 0 1 2         # route [3 0 1 2] (N inferred, power of two)
//   route_cli --network=batcher 1 0 3 2
//   route_cli --trace 3 1 0 2 # print the stage-by-stage radix-sort trace
//   route_cli --dot 8         # emit the 8-input BNB profile as Graphviz
//   route_cli --batch 500 --threads 4 256
//                             # 500 random permutations on 256 lines through
//                             # the compiled engine's worker pool (N optional,
//                             # default 16) -- doubles as a throughput smoke test
//   route_cli --inject random:3 --rounds 20 64
//                             # damage a 64-line fabric with 3 random faults
//                             # and stream 20 random permutations through the
//                             # ResilientRouter (audit, retry, diagnose,
//                             # spare-plane fallback, circuit breaker)
//   route_cli --inject stuck1:0.0.0.0 16
//                             # one stuck-at-1 switch control at main stage 0,
//                             # BSN column 0, splitter 0, switch 0
//   route_cli --repeat 1000 3 0 1 2
//                             # route [3 0 1 2] 1000 times through a
//                             # ScheduleCache (1 miss, 999 schedule replays)
//                             # and print the hit/miss counters
//   route_cli --repeat 3 --cache-save warm.bnbstore 3 0 1 2
//   route_cli --repeat 3 --cache-load warm.bnbstore 3 0 1 2
//                             # persist the solved schedules as a
//                             # bnb.schedstore.v3 file, then warm-start a
//                             # fresh process from it (3 hits, 0 misses);
//                             # an unreadable or corrupt store exits 2
//   route_cli --stream --batch 200 --repeat 5 --threads 2 64
//                             # stream 200 random 64-line permutations 5 times
//                             # through the StreamEngine (T - 1 solvers and
//                             # an applier at --threads T >= 2, inline at 1) over a
//                             # shared ScheduleCache; passes after the first
//                             # are pure cache hits
//   route_cli --chaos --rounds 2000 --seed 7 16
//                             # seeded chaos campaign on a 16-line fabric:
//                             # a fault-arrival process (transient glitches,
//                             # persistent bursts) against a ResilientRouter
//                             # concurrent with a backpressured StreamEngine
//                             # over a shared ScheduleCache; exits 0 iff no
//                             # silent misroute, no stall, and the circuit
//                             # breaker tripped AND recovered (RELIABILITY.md);
//                             # --threads T sets the stream's width (default 1)
//   route_cli --metrics=prom --repeat 100 3 0 1 2
//                             # any mode + --metrics[=json|prom] dumps the
//                             # global MetricsRegistry (counters, gauges,
//                             # per-phase latency histograms) after the run;
//                             # bare --metrics means Prometheus text
//   route_cli --stream --batch 50 --threads 2 --trace-out=trace.json 4096
//                             # any mode + --trace-out=FILE installs a span
//                             # sink for the run and exports it as Chrome
//                             # trace-event JSON (open in Perfetto / DevTools);
//                             # per-route trace ids link each solve to its
//                             # queue-wait and apply across threads
//   route_cli --chaos --rounds 2000 --timeseries-out=ts.json 16
//                             # any mode + --timeseries-out=FILE samples the
//                             # metrics registry on an interval and exports a
//                             # bnb.timeseries.v1 telemetry timeline (counter
//                             # rates, per-interval histogram percentiles)
//
// --inject SPECs: random:K, stuck0|stuck1|flag0|flag1:i.j.s.e,
//                 dead:i.j.s.e.in.out, flip:i.j.s.line  (see docs/FAULTS.md)
//
// Exit code 0 iff the permutation(s) were routed (always, for valid input);
// under --inject, 0 iff no route ended in a SILENT misroute — caught-and-
// healed faults still exit 0, that is the point of the recovery ladder.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "baselines/batcher.hpp"
#include "baselines/benes.hpp"
#include "baselines/koppelman.hpp"
#include "common/expect.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/bnb_network.hpp"
#include "core/compiled_bnb.hpp"
#include "core/kernels/kernel_set.hpp"
#include "core/dot_export.hpp"
#include "core/schedule_cache.hpp"
#include "core/schedule_store.hpp"
#include "core/trace_render.hpp"
#include "fabric/stream_engine.hpp"
#include "fault/chaos.hpp"
#include "fault/fault_model.hpp"
#include "fault/resilience.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "perm/generators.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--network=bnb|batcher|benes|koppelman] [--trace] "
               "[--dot N] [--batch COUNT [--threads T] [--stream]] "
               "[--repeat K [--cache-load PATH] [--cache-save PATH]] "
               "[--inject SPEC [--rounds R] [--seed S]] "
               "[--chaos [--rounds R] [--seed S] [--threads T]] "
               "[--metrics[=json|prom]] [--trace-out=FILE] "
               "[--timeseries-out=FILE] [image... | N]\n",
               argv0);
  return 2;
}

// --metrics: dump the global registry after the selected mode ran.
void dump_metrics(const std::string& format) {
  const bnb::obs::RegistrySnapshot snap = bnb::obs::MetricsRegistry::global().snapshot();
  const std::string text =
      format == "json" ? bnb::obs::to_json(snap) : bnb::obs::to_prometheus(snap);
  std::fputs(text.c_str(), stdout);
  if (!text.empty() && text.back() != '\n') std::fputc('\n', stdout);
}

// Write `text` to `path`, truncating.  Returns false on any I/O failure.
bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return (std::fclose(f) == 0) && wrote;
}

// Per-phase latency percentiles from the global registry.  Phases that
// never fired (count 0 — always the case under BNB_OBS=OFF) print
// nothing, so the output only carries lines the run actually earned.
void print_latency_percentiles(std::initializer_list<const char*> names) {
  const auto snap = bnb::obs::MetricsRegistry::global().snapshot();
  for (const char* name : names) {
    const auto* metric = snap.find(name);
    if (metric == nullptr || metric->histogram.count == 0) continue;
    const auto& h = metric->histogram;
    std::printf(
        "latency: %s p50=%.1fus p90=%.1fus p99=%.1fus (%llu samples)\n", name,
        h.p50() / 1000.0, h.p90() / 1000.0, h.p99() / 1000.0,
        static_cast<unsigned long long>(h.count));
  }
}

// Current value of the small-lane route counter (0 before any small-N
// route).  Counters survive BNB_OBS=OFF, so lane reporting works in both
// builds; sampled before/after a run, the delta tells which lane served it.
unsigned long long small_route_total() {
  const auto snap = bnb::obs::MetricsRegistry::global().snapshot();
  const auto* metric = snap.find("bnb_small_route_total");
  return metric != nullptr ? metric->counter : 0;
}

// One "lane:" line per routing mode: `small` when every request replayed
// through the register-resident SmallSchedule path, `general` when none
// did, `mixed` otherwise (possible only if a run spans both sides of the
// m <= 6 boundary, which a single CLI invocation never does today).
void print_lane(unsigned long long small_delta, std::uint64_t total_routes) {
  const char* lane = small_delta == 0                ? "general"
                     : small_delta >= total_routes   ? "small"
                                                     : "mixed";
  std::printf("lane: %s (bnb_small_route_total +%llu of %llu route%s)\n", lane,
              small_delta, static_cast<unsigned long long>(total_routes),
              total_routes == 1 ? "" : "s");
}

// Parse one --inject spec into `model`.  Returns false on a malformed or
// out-of-shape spec (FaultModel::add validates coordinates).
bool parse_inject_spec(const std::string& spec, std::uint64_t seed,
                       bnb::FaultModel& model) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) return false;
  const std::string kind = spec.substr(0, colon);
  const std::string args = spec.substr(colon + 1);
  try {
    if (kind == "random") {
      char* end = nullptr;
      const std::uint64_t count = std::strtoull(args.c_str(), &end, 10);
      if (end == args.c_str() || *end != '\0' || count == 0 || count > 64) {
        return false;
      }
      bnb::Rng rng(seed);
      for (const auto& f :
           bnb::FaultModel::random_campaign(model.m(), count, rng)) {
        model.add(f);
      }
      return true;
    }
    bnb::FaultSpec fault;
    unsigned fields[6] = {0, 0, 0, 0, 0, 0};
    int want = 4;
    if (kind == "stuck0" || kind == "stuck1") {
      fault.kind = bnb::FaultKind::kStuckControl;
      fault.value = kind == "stuck1";
    } else if (kind == "flag0" || kind == "flag1") {
      fault.kind = bnb::FaultKind::kStuckFlag;
      fault.value = kind == "flag1";
    } else if (kind == "flip") {
      fault.kind = bnb::FaultKind::kLinkFlip;
    } else if (kind == "dead") {
      fault.kind = bnb::FaultKind::kDeadCrosspoint;
      want = 6;
    } else {
      return false;
    }
    int got = 0;
    const char* cursor = args.c_str();
    while (got < want) {
      char* end = nullptr;
      fields[got] = static_cast<unsigned>(std::strtoul(cursor, &end, 10));
      if (end == cursor) return false;
      ++got;
      cursor = end;
      if (*cursor == '.') {
        ++cursor;
      } else {
        break;
      }
    }
    if (got != want || *cursor != '\0') return false;
    fault.at = {fields[0], fields[1], fields[2], fields[3]};
    fault.in_port = static_cast<std::uint8_t>(fields[4]);
    fault.out_port = static_cast<std::uint8_t>(fields[5]);
    model.add(fault);
    return true;
  } catch (const bnb::contract_violation&) {
    return false;  // in-grammar but out-of-shape coordinates
  }
}

// --inject SPEC: damage the fabric, then stream random permutations
// through a cache-less ResilientRouter and report the recovery ladder's
// work.  Backoff is accounted but not slept, so the campaign runs at
// routing speed.
int run_inject(const std::string& spec, std::uint64_t seed, std::size_t rounds,
               std::size_t n) {
  if (!bnb::is_power_of_two(n) || n < 2 || n > (std::size_t{1} << 14)) {
    std::fputs("--inject needs N a power of two in [2, 2^14]\n", stderr);
    return 2;
  }
  if (rounds == 0 || rounds > 100000) {
    std::fputs("--rounds must be in [1, 100000]\n", stderr);
    return 2;
  }
  const unsigned m = bnb::log2_exact(n);
  bnb::FaultModel model(m);
  if (!parse_inject_spec(spec, seed, model)) {
    std::fprintf(stderr, "bad --inject spec '%s' for N=%zu\n", spec.c_str(), n);
    return 2;
  }

  bnb::ResilientPolicy policy;
  policy.sleep_on_backoff = false;
  bnb::ResilientRouter router(m, policy);
  router.inject(model);
  std::printf("injected %zu fault%s into the %zu-line fabric:\n", model.size(),
              model.size() == 1 ? "" : "s", n);
  for (const auto& f : model.faults()) {
    std::printf("  %s\n", bnb::to_string(f).c_str());
  }

  using Outcome = bnb::ResilientOutcome;
  bnb::Rng rng(seed);
  std::size_t outcome_counts[5] = {0, 0, 0, 0, 0};
  std::size_t misroutes_caught = 0;
  bool silent_misroute = false;
  for (std::size_t round = 0; round < rounds; ++round) {
    const bnb::Permutation pi = bnb::random_perm(n, rng);
    const bnb::ResilientReport report = router.route(pi);
    ++outcome_counts[static_cast<std::size_t>(report.outcome)];
    // Every primary attempt but a clean last one was caught by the audit.
    const bool primary_ok = report.outcome == Outcome::kDelivered ||
                            report.outcome == Outcome::kDeliveredAfterRetry;
    misroutes_caught += report.attempts - (primary_ok ? 1 : 0);
    if (report.delivered()) {
      for (std::size_t j = 0; j < n; ++j) {
        if (report.dest[j] != pi(j)) {
          std::printf("SILENT MISROUTE on round %zu (input %zu)\n", round, j);
          silent_misroute = true;
        }
      }
    } else if (report.diagnosis.located) {
      std::printf(
          "round %zu failed; diagnosis: column %u = main stage %u, BSN column "
          "%u, splitter %u\n",
          round, report.diagnosis.column, report.diagnosis.main_stage,
          report.diagnosis.nested_stage, report.diagnosis.splitter);
    }
  }

  const auto count = [&](Outcome outcome) {
    return outcome_counts[static_cast<std::size_t>(outcome)];
  };
  std::printf(
      "%zu rounds: %zu clean, %zu healed by retry, %zu by fallback, %zu "
      "degraded, %zu failed\n",
      rounds, count(Outcome::kDelivered), count(Outcome::kDeliveredAfterRetry),
      count(Outcome::kDeliveredByFallback), count(Outcome::kDegraded),
      count(Outcome::kFailed));
  std::printf("audit: %zu misroutes caught, %llu retries, breaker %s\n",
              misroutes_caught,
              static_cast<unsigned long long>(router.stats().backoffs),
              bnb::to_string(router.health().state()));
  if (silent_misroute) {
    std::puts("RESULT: SILENT MISROUTE — the robustness contract is broken");
    return 1;
  }
  std::puts("RESULT: no silent misroutes");
  return 0;
}

// --chaos: one seeded chaos campaign (fault/chaos.hpp) — a randomized
// fault-arrival process against the ResilientRouter, concurrent with a
// backpressured StreamEngine over a shared ScheduleCache.  `rounds` is the
// router-side route count; the forced trip/recover phase and the stream
// driver add their own traffic on top.
int run_chaos(std::uint64_t seed, std::size_t rounds, unsigned threads,
              std::size_t n, const std::string& timeseries_out) {
  if (!bnb::is_power_of_two(n) || n < 2 || n > (std::size_t{1} << 10)) {
    std::fputs("--chaos needs N a power of two in [2, 1024]\n", stderr);
    return 2;
  }
  if (rounds == 0 || rounds > 1000000) {
    std::fputs("--rounds must be in [1, 1000000]\n", stderr);
    return 2;
  }
  if (threads == 0 || threads > 256) {
    std::fputs("--chaos needs 1 <= --threads <= 256\n", stderr);
    return 2;
  }
  bnb::ChaosConfig config;
  config.m = bnb::log2_exact(n);
  config.seed = seed;
  config.router_routes = rounds;
  config.stream_threads = threads;
  // --timeseries-out: the campaign runs its own registry, so the sampler
  // has to live inside it (fault/chaos.hpp wires one in when asked).
  if (!timeseries_out.empty()) config.sample_interval_ms = 25;
  const bnb::ChaosReport report = bnb::run_chaos_campaign(config);

  std::printf("chaos: %zu-line fabric, seed %llu: %zu checked deliveries "
              "(%zu router + %zu stream)\n",
              n, static_cast<unsigned long long>(seed), report.total_routes,
              report.router_routes, report.stream_routes);
  std::printf("router: %zu delivered (%llu cached replays), %zu healed by "
              "retry, %zu by fallback, %zu degraded, %zu failed loudly\n",
              report.delivered,
              static_cast<unsigned long long>(report.cache_served),
              report.retried, report.fallbacks, report.degraded, report.failed);
  std::printf("faults: %zu windows (%zu transient, %zu persistent), %zu "
              "faults injected\n",
              report.fault_windows, report.transient_windows,
              report.persistent_windows, report.faults_injected);
  std::printf("breaker: %llu trips, %llu probes, %llu recoveries; %llu "
              "backoffs; %llu cache entries quarantined\n",
              static_cast<unsigned long long>(report.breaker_trips),
              static_cast<unsigned long long>(report.breaker_probes),
              static_cast<unsigned long long>(report.breaker_recoveries),
              static_cast<unsigned long long>(report.backoffs),
              static_cast<unsigned long long>(report.quarantined));
  std::printf("stream: %u thread%s, %zu ok, %zu isolated failures, %zu shed, %zu stalls\n",
              threads, threads == 1 ? "" : "s", report.stream_routes, report.stream_item_failures,
              report.stream_shed, report.stream_stalls);
  print_latency_percentiles({"bnb_route_ns", "bnb_solve_ns", "bnb_apply_ns"});
  if (!timeseries_out.empty()) {
    if (!write_text_file(timeseries_out, report.timeseries_json)) {
      std::fprintf(stderr, "cannot write %s\n", timeseries_out.c_str());
      return 2;
    }
    std::printf("timeseries: %zu interval%s -> %s\n",
                report.timeseries_intervals,
                report.timeseries_intervals == 1 ? "" : "s",
                timeseries_out.c_str());
  }
  if (report.silent_misroutes != 0) {
    std::printf("RESULT: %zu SILENT MISROUTES — the resilience contract is "
                "broken\n",
                report.silent_misroutes);
    return 1;
  }
  if (!report.ok(config)) {
    std::puts("RESULT: chaos campaign FAILED (stall, hang, or no breaker "
              "trip/recover cycle)");
    return 1;
  }
  std::puts("RESULT: chaos campaign OK — no silent misroutes, no stalls, "
            "breaker tripped and recovered");
  return 0;
}

// --batch COUNT: route COUNT random permutations of N lines (optional
// positional N, default 16) through CompiledBnb::route_batch.
int run_batch(std::size_t count, unsigned threads, std::size_t n) {
  if (count == 0 || threads == 0 || threads > 256) {
    std::fputs("--batch needs COUNT >= 1 and 1 <= --threads <= 256\n", stderr);
    return 2;
  }
  if (!bnb::is_power_of_two(n) || n < 2 || n > (std::size_t{1} << 20)) {
    std::fputs("--batch needs N a power of two in [2, 2^20]\n", stderr);
    return 2;
  }
  bnb::Rng rng(2026);
  std::vector<bnb::Permutation> perms;
  perms.reserve(count);
  for (std::size_t i = 0; i < count; ++i) perms.push_back(bnb::random_perm(n, rng));

  const bnb::CompiledBnb engine(bnb::log2_exact(n));
  const auto batch = engine.route_batch(perms, threads);
  std::printf("batch: %zu permutations of %zu lines, %u thread%s: %s\n",
              batch.permutations, n, threads, threads == 1 ? "" : "s",
              batch.all_self_routed ? "all routed OK" : "ROUTING FAILED");
  return batch.all_self_routed ? 0 : 1;
}

// --stream --batch COUNT: stream COUNT random permutations through the
// StreamEngine `repeat` times over one shared ScheduleCache — the first
// pass solves (cold misses), every later pass replays cached schedules.
int run_stream(std::size_t count, unsigned threads, std::size_t repeat,
               std::size_t n) {
  if (count == 0 || threads == 0 || threads > 256) {
    std::fputs("--batch needs COUNT >= 1 and 1 <= --threads <= 256\n", stderr);
    return 2;
  }
  if (!bnb::is_power_of_two(n) || n < 2 || n > (std::size_t{1} << 20)) {
    std::fputs("--batch needs N a power of two in [2, 2^20]\n", stderr);
    return 2;
  }
  bnb::Rng rng(2026);
  std::vector<bnb::Permutation> perms;
  perms.reserve(count);
  for (std::size_t i = 0; i < count; ++i) perms.push_back(bnb::random_perm(n, rng));

  const bnb::CompiledBnb engine(bnb::log2_exact(n));
  bnb::ScheduleCache cache(256);
  bnb::StreamEngine::Options options;
  options.threads = threads;
  options.cache = &cache;
  const bnb::StreamEngine stream(engine, options);

  bool all_ok = true;
  std::uint64_t solved = 0;
  std::uint64_t hits = 0;
  bool pipelined = false;
  const unsigned long long small_before = small_route_total();
  for (std::size_t pass = 0; pass < repeat; ++pass) {
    const auto result = stream.run(perms);
    all_ok &= result.stats.all_self_routed;
    solved += result.stats.solved;
    hits += result.stats.cache_hits;
    pipelined = result.stats.pipelined;
  }
  std::printf("stream: %zu permutations x %zu pass%s of %zu lines, %s: %s\n",
              count, repeat, repeat == 1 ? "" : "es", n,
              pipelined ? "solver/applier pipelined" : "inline",
              all_ok ? "all routed OK" : "ROUTING FAILED");
  std::printf("stream: %llu cold solves, %llu schedule replays\n",
              static_cast<unsigned long long>(solved),
              static_cast<unsigned long long>(hits));
  // Report from the registry: the one coherent view the stream engine and
  // the cache both publish into.
  const auto snap = bnb::obs::MetricsRegistry::global().snapshot();
  const auto counter_of = [&](const char* name) -> unsigned long long {
    const auto* metric = snap.find(name);
    return metric != nullptr ? metric->counter : 0;
  };
  const auto* high_water = snap.find("bnb_stream_ring_high_water");
  // The engine rounds ring_depth up to a power of two and to 2 cells per solver.
  std::printf("ring: high-water %lld solved schedule%s queued (depth %zu)\n",
              high_water != nullptr ? static_cast<long long>(high_water->gauge) : 0,
              high_water != nullptr && high_water->gauge == 1 ? "" : "s",
              std::bit_ceil(std::max<std::size_t>(options.ring_depth, 2 * (threads - 1))));
  std::printf("cache: %llu hits, %llu misses, %llu evictions, %llu bypasses "
              "(%zu entries)\n",
              counter_of("bnb_cache_hits_total"), counter_of("bnb_cache_misses_total"),
              counter_of("bnb_cache_evictions_total"),
              counter_of("bnb_cache_bypasses_total"), cache.size());
  print_lane(small_route_total() - small_before,
             static_cast<std::uint64_t>(count) * repeat);
  print_latency_percentiles(
      {"bnb_solve_ns", "bnb_stream_queue_wait_ns", "bnb_apply_ns",
       "bnb_small_apply_ns"});
  return all_ok ? 0 : 1;
}

// --repeat K on a single permutation: route it K times through a
// ScheduleCache (one arbiter-tree solve, K-1 schedule replays).  With
// --cache-load the cache warm-starts from a bnb.schedstore.v3 file before
// the first route (a prior save makes every pass a hit); with --cache-save
// the cache is persisted after the last.  A store the build cannot read —
// wrong magic, unsupported version, foreign byte order, CRC damage — is a
// usage-level failure: diagnostic on stderr, exit 2.
int run_repeat(const bnb::Permutation& pi, std::size_t repeat,
               const std::string& cache_load, const std::string& cache_save) {
  const bnb::CompiledBnb engine(bnb::log2_exact(pi.size()));
  bnb::RouteScratch scratch;
  bnb::ScheduleCache cache(16);
  if (!cache_load.empty()) {
    try {
      const std::size_t loaded = cache.load(cache_load);
      std::printf("cache: loaded %zu schedule%s from %s\n", loaded,
                  loaded == 1 ? "" : "s", cache_load.c_str());
    } catch (const bnb::schedule_store_error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  bool all_ok = true;
  const unsigned long long small_before = small_route_total();
  for (std::size_t k = 0; k < repeat; ++k) {
    all_ok &= cache.route(engine, pi, scratch).self_routed;
  }
  const auto stats = cache.stats();
  std::printf("repeat: %s routed %zu time%s: %s\n", pi.to_string().c_str(),
              repeat, repeat == 1 ? "" : "s", all_ok ? "OK" : "FAILED");
  std::printf("cache: %llu hits, %llu misses, %llu evictions, %llu bypasses\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.evictions),
              static_cast<unsigned long long>(stats.bypasses));
  print_lane(small_route_total() - small_before, repeat);
  print_latency_percentiles(
      {"bnb_solve_ns", "bnb_apply_ns", "bnb_small_apply_ns"});
  if (!cache_save.empty()) {
    try {
      const std::size_t saved = cache.save(cache_save);
      std::printf("cache: saved %zu schedule%s to %s\n", saved,
                  saved == 1 ? "" : "s", cache_save.c_str());
    } catch (const bnb::schedule_store_error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  return all_ok ? 0 : 1;
}

int emit_dot(std::size_t n) {
  if (!bnb::is_power_of_two(n) || n < 2 || n > 2048) {
    std::fputs("--dot needs a power of two in [2, 2048]\n", stderr);
    return 2;
  }
  std::fputs(bnb::bnb_profile_to_dot(bnb::log2_exact(n)).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Surface a bad BNB_KERNELS override as a clean usage error up front,
    // not a terminate() from whichever mode first builds a CompiledBnb.
    (void)bnb::kernels::kernels_from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::string network = "bnb";
  bool trace = false;
  bool batch = false;
  bool stream = false;
  std::size_t batch_count = 0;
  unsigned threads = 1;
  bool repeat_given = false;
  std::size_t repeat = 1;
  std::string inject_spec;
  bool chaos = false;
  bool rounds_given = false;
  std::size_t rounds = 20;
  std::uint64_t seed = 2026;
  bool metrics = false;
  std::string metrics_format = "prom";
  std::string cache_load;
  std::string cache_save;
  std::string trace_out;
  std::string timeseries_out;
  std::vector<bnb::Permutation::value_type> image;

  for (int a = 1; a < argc; ++a) {
    const char* arg = argv[a];
    if (std::strncmp(arg, "--network=", 10) == 0) {
      network = arg + 10;
    } else if (std::strcmp(arg, "--metrics") == 0) {
      metrics = true;
    } else if (std::strncmp(arg, "--metrics=", 10) == 0) {
      metrics = true;
      metrics_format = arg + 10;
      if (metrics_format != "json" && metrics_format != "prom") {
        std::fprintf(stderr, "--metrics wants json or prom, not '%s'\n",
                     metrics_format.c_str());
        return 2;
      }
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      trace_out = arg + 12;
      if (trace_out.empty()) {
        std::fputs("--trace-out needs a file path\n", stderr);
        return 2;
      }
    } else if (std::strncmp(arg, "--timeseries-out=", 17) == 0) {
      timeseries_out = arg + 17;
      if (timeseries_out.empty()) {
        std::fputs("--timeseries-out needs a file path\n", stderr);
        return 2;
      }
    } else if (std::strcmp(arg, "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(arg, "--dot") == 0) {
      if (a + 1 >= argc) return usage(argv[0]);
      return emit_dot(std::strtoull(argv[a + 1], nullptr, 10));
    } else if (std::strcmp(arg, "--batch") == 0) {
      if (a + 1 >= argc) return usage(argv[0]);
      batch = true;
      batch_count = std::strtoull(argv[++a], nullptr, 10);
    } else if (std::strcmp(arg, "--threads") == 0) {
      if (a + 1 >= argc) return usage(argv[0]);
      threads = static_cast<unsigned>(std::strtoul(argv[++a], nullptr, 10));
    } else if (std::strcmp(arg, "--stream") == 0) {
      stream = true;
    } else if (std::strcmp(arg, "--repeat") == 0) {
      if (a + 1 >= argc) return usage(argv[0]);
      repeat_given = true;
      repeat = std::strtoull(argv[++a], nullptr, 10);
    } else if (std::strcmp(arg, "--cache-load") == 0) {
      if (a + 1 >= argc) return usage(argv[0]);
      cache_load = argv[++a];
    } else if (std::strcmp(arg, "--cache-save") == 0) {
      if (a + 1 >= argc) return usage(argv[0]);
      cache_save = argv[++a];
    } else if (std::strcmp(arg, "--inject") == 0) {
      if (a + 1 >= argc) return usage(argv[0]);
      inject_spec = argv[++a];
    } else if (std::strcmp(arg, "--chaos") == 0) {
      chaos = true;
    } else if (std::strcmp(arg, "--rounds") == 0) {
      if (a + 1 >= argc) return usage(argv[0]);
      rounds_given = true;
      rounds = std::strtoull(argv[++a], nullptr, 10);
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (a + 1 >= argc) return usage(argv[0]);
      seed = std::strtoull(argv[++a], nullptr, 10);
    } else if (arg[0] == '-' && !(arg[1] >= '0' && arg[1] <= '9')) {
      return usage(argv[0]);
    } else {
      image.push_back(static_cast<bnb::Permutation::value_type>(
          std::strtoul(arg, nullptr, 10)));
    }
  }

  // --trace-out: install the structured span sink before any traffic runs.
  // Every span the run records lands in this ring; finish() exports it as
  // Chrome trace-event JSON.  65536 slots hold the tail of even a large
  // --batch; overflow is counted, not silent.
  bnb::obs::SpanTrace span_trace(65536);
  if (!trace_out.empty()) bnb::obs::set_trace(&span_trace);

  // --timeseries-out outside --chaos samples the global registry on a
  // short interval (chaos campaigns publish into their own registry, so
  // run_chaos wires the sampler into the campaign instead).
  bnb::obs::TelemetrySampler::Options sampler_options;
  sampler_options.interval_ms = 25;
  bnb::obs::TelemetrySampler sampler(sampler_options);
  if (!timeseries_out.empty() && !chaos) sampler.start();

  // Modes below route real traffic; finish() appends the registry dump
  // --metrics asked for and writes the telemetry files once the selected
  // mode has run.
  const auto finish = [&](int code) {
    if (metrics) dump_metrics(metrics_format);
    if (!trace_out.empty()) {
      bnb::obs::set_trace(nullptr);
      const std::vector<bnb::obs::SpanRecord> spans = span_trace.snapshot();
      if (!write_text_file(trace_out,
                           bnb::obs::trace_to_chrome(spans, span_trace.dropped()))) {
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
        return 2;
      }
      std::printf("trace: %zu span%s (%llu dropped) -> %s\n", spans.size(),
                  spans.size() == 1 ? "" : "s",
                  static_cast<unsigned long long>(span_trace.dropped()),
                  trace_out.c_str());
    }
    if (!timeseries_out.empty() && !chaos) {
      sampler.stop();
      if (!write_text_file(timeseries_out, sampler.to_json())) {
        std::fprintf(stderr, "cannot write %s\n", timeseries_out.c_str());
        return 2;
      }
      std::printf("timeseries: %zu interval%s -> %s\n",
                  sampler.intervals().size(),
                  sampler.intervals().size() == 1 ? "" : "s",
                  timeseries_out.c_str());
    }
    return code;
  };

  if (repeat_given && (repeat == 0 || repeat > 1000000)) {
    std::fputs("--repeat must be in [1, 1000000]\n", stderr);
    return 2;
  }
  if (stream && !batch) {
    std::fputs("--stream needs --batch COUNT (it streams a random pool)\n",
               stderr);
    return 2;
  }
  if ((!cache_load.empty() || !cache_save.empty()) && !repeat_given) {
    std::fputs("--cache-load/--cache-save persist the --repeat mode's "
               "ScheduleCache; add --repeat K\n",
               stderr);
    return 2;
  }
  if (repeat_given && !inject_spec.empty()) return usage(argv[0]);
  if (repeat_given && trace) {
    std::fputs("--repeat exercises the schedule cache, which --trace bypasses; "
               "drop one of them\n",
               stderr);
    return 2;
  }

  if (chaos) {
    // In chaos mode the single optional positional argument is N; the mode
    // owns the whole run and composes only with --metrics and the
    // telemetry outputs.
    if (!inject_spec.empty() || batch || repeat_given || trace ||
        image.size() > 1) {
      return usage(argv[0]);
    }
    return finish(run_chaos(seed, rounds_given ? rounds : 2000, threads,
                            image.empty() ? 16 : image[0], timeseries_out));
  }

  if (!inject_spec.empty()) {
    // In inject mode the single optional positional argument is N.
    if (batch || image.size() > 1) return usage(argv[0]);
    return finish(
        run_inject(inject_spec, seed, rounds, image.empty() ? 16 : image[0]));
  }

  if (batch) {
    // In batch mode the single optional positional argument is N.
    if (image.size() > 1) return usage(argv[0]);
    if (stream) {
      return finish(
          run_stream(batch_count, threads, repeat, image.empty() ? 16 : image[0]));
    }
    if (repeat_given) {
      std::fputs("--repeat with --batch needs --stream (route_batch has no "
                 "cache to repeat into)\n",
                 stderr);
      return 2;
    }
    return finish(run_batch(batch_count, threads, image.empty() ? 16 : image[0]));
  }

  bnb::Permutation pi;
  if (image.empty()) {
    bnb::Rng rng(2026);
    pi = bnb::random_perm(16, rng);
    std::printf("no permutation given; demo with random %s\n\n",
                pi.to_string().c_str());
  } else {
    if (!bnb::is_power_of_two(image.size()) ||
        !bnb::Permutation::is_valid_image(image)) {
      std::fputs("input must be a permutation of 0..N-1 with N a power of two\n",
                 stderr);
      return 2;
    }
    pi = bnb::Permutation(image);
  }
  const unsigned m = bnb::log2_exact(pi.size());

  if (trace) {
    const bnb::BnbNetwork net(m);
    std::fputs(bnb::render_trace(net, pi).c_str(), stdout);
    return 0;
  }

  if (repeat_given) {
    if (network != "bnb") {
      std::fputs("--repeat replays compiled BNB schedules; it needs "
                 "--network=bnb\n",
                 stderr);
      return 2;
    }
    return finish(run_repeat(pi, repeat, cache_load, cache_save));
  }

  bool routed = false;
  if (network == "bnb") {
    if (metrics) {
      // Route through the compiled engine so the dump carries the engine's
      // phase histograms, not just an empty registry.
      const bnb::CompiledBnb engine(m);
      bnb::RouteScratch scratch;
      routed = engine.route(pi, scratch).self_routed;
    } else {
      routed = bnb::BnbNetwork(m).route(pi).self_routed;
    }
  } else if (network == "batcher") {
    routed = bnb::BatcherNetwork(m).route(pi).self_routed;
  } else if (network == "benes") {
    routed = bnb::BenesNetwork(m).route(pi).self_routed;
  } else if (network == "koppelman") {
    routed = bnb::KoppelmanSrpn(m).route(pi).self_routed;
  } else {
    return usage(argv[0]);
  }

  std::printf("%s: %s routed %s\n", network.c_str(), pi.to_string().c_str(),
              routed ? "OK" : "FAILED");
  return finish(routed ? 0 : 1);
}
