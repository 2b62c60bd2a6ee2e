// Telemetry layer tests: metric primitives, registry aggregation, span
// taxonomy, exporters, and the BNB_OBS_OFF compiled-out path.
//
// Suite naming: every suite here starts with "Obs" so the tsan preset's
// test filter picks the concurrency cases up (see CMakePresets.json).
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "core/compiled_bnb.hpp"
#include "core/schedule_cache.hpp"
#include "fabric/stream_engine.hpp"
#include "fault/resilience.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "obs/trace_context.hpp"
#include "perm/generators.hpp"

#include "alloc_count_hook.hpp"

// Exported by obs_off_probe.cpp, which is force-compiled with BNB_OBS_OFF
// even when the rest of this binary has telemetry on.
namespace bnb::testhook {
int obs_off_compiled();
void obs_off_span_burst(int n);
}  // namespace bnb::testhook

namespace bnb {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricKind;
using obs::MetricsRegistry;
using obs::Phase;

// ---- primitives -------------------------------------------------------

TEST(ObsCounter, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsGauge, SetAddAndRunningMax) {
  Gauge g;
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  g.add(10);
  EXPECT_EQ(g.value(), 3);
  g.update_max(17);
  EXPECT_EQ(g.value(), 17);
  g.update_max(5);  // lower than current: no change
  EXPECT_EQ(g.value(), 17);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(ObsHistogram, BucketBoundariesArePowersOfTwo) {
  // Bucket b holds v <= 2^b; the last bucket is +Inf.
  EXPECT_EQ(Histogram::upper_bound(0), 1u);
  EXPECT_EQ(Histogram::upper_bound(1), 2u);
  EXPECT_EQ(Histogram::upper_bound(30), 1u << 30);
  EXPECT_EQ(Histogram::upper_bound(Histogram::kBuckets - 1), ~std::uint64_t{0});

  Histogram h;
  h.record(0);  // bucket 0
  h.record(1);  // bucket 0
  h.record(2);  // bucket 1
  h.record(3);  // bucket 2 (2 < 3 <= 4)
  h.record(4);  // bucket 2
  h.record(5);  // bucket 3
  h.record(std::uint64_t{1} << 30);         // bucket 30, the last finite bound
  h.record((std::uint64_t{1} << 30) + 1);   // past every finite bound: +Inf
  h.record(~std::uint64_t{0});              // +Inf
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.bucket_count(30), 1u);
  EXPECT_EQ(h.bucket_count(Histogram::kBuckets - 1), 2u);
  EXPECT_EQ(h.total_count(), 9u);
  h.reset();
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

TEST(ObsHistogram, SumAccumulates) {
  Histogram h;
  h.record(10);
  h.record(100);
  EXPECT_EQ(h.sum(), 110u);
  EXPECT_EQ(h.total_count(), 2u);
}

TEST(ObsHistogram, PercentileEstimatesFromBuckets) {
  obs::HistogramSnapshot snap;
  EXPECT_EQ(snap.percentile(0.5), 0.0);  // empty histogram

  // 100 samples all in bucket 3 (values in (4, 8]): every percentile
  // interpolates inside that bucket's range.
  snap.buckets[3] = 100;
  snap.count = 100;
  EXPECT_GT(snap.p50(), 4.0);
  EXPECT_LE(snap.p50(), 8.0);
  EXPECT_GT(snap.p99(), snap.p50());
  EXPECT_LE(snap.p99(), 8.0);

  // Split distribution: 90 fast samples (bucket 3), 10 slow (bucket 10,
  // values in (512, 1024]).  p50 stays fast, p99 lands in the slow bucket.
  snap = {};
  snap.buckets[3] = 90;
  snap.buckets[10] = 10;
  snap.count = 100;
  EXPECT_LE(snap.p50(), 8.0);
  EXPECT_GT(snap.p99(), 512.0);
  EXPECT_LE(snap.p99(), 1024.0);
  EXPECT_LE(snap.p90(), 8.0);  // rank 90 is the last fast sample
}

TEST(ObsHistogram, PercentileClampsInfinityBucket) {
  obs::HistogramSnapshot snap;
  snap.buckets[Histogram::kBuckets - 1] = 10;  // everything in +Inf
  snap.count = 10;
  // No finite upper bound exists; the estimate clamps to the last finite
  // boundary instead of reporting UINT64_MAX nanoseconds.
  const double last_finite =
      static_cast<double>(Histogram::upper_bound(Histogram::kBuckets - 2));
  EXPECT_EQ(snap.p50(), last_finite);
  EXPECT_EQ(snap.p99(), last_finite);
}

TEST(ObsHistogram, PercentileMatchesExactRanksOnSmallCounts) {
  obs::HistogramSnapshot snap;
  snap.buckets[0] = 1;  // one sample <= 1
  snap.buckets[5] = 1;  // one sample in (16, 32]
  snap.count = 2;
  EXPECT_LE(snap.percentile(0.5), 1.0);   // rank 1: the fast sample
  EXPECT_GT(snap.percentile(0.99), 16.0);  // rank 2: the slow one
  EXPECT_LE(snap.percentile(0.99), 32.0);
  // Quantiles are clamped to [0, 1].
  EXPECT_EQ(snap.percentile(-1.0), snap.percentile(0.0));
  EXPECT_EQ(snap.percentile(2.0), snap.percentile(1.0));
}

// ---- registry ---------------------------------------------------------

TEST(ObsRegistry, GetOrCreateReturnsStableIdentity) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x_total", "first help wins");
  Counter& b = reg.counter("x_total", "ignored");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
  a.inc(5);
  const auto snap = reg.snapshot();
  ASSERT_NE(snap.find("x_total"), nullptr);
  EXPECT_EQ(snap.find("x_total")->counter, 5u);
  EXPECT_EQ(snap.find("x_total")->help, "first help wins");
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(ObsRegistry, KindMismatchIsAContractViolation) {
  MetricsRegistry reg;
  (void)reg.counter("name");
  EXPECT_THROW((void)reg.gauge("name"), contract_violation);
  EXPECT_THROW((void)reg.histogram("name"), contract_violation);
  EXPECT_THROW(reg.attach_gauge("name", nullptr), contract_violation);
}

TEST(ObsRegistry, AttachedInstancesSumWithOwned) {
  MetricsRegistry reg;
  reg.counter("c_total").inc(1);  // owned
  Counter inst1;
  Counter inst2;
  inst1.inc(10);
  inst2.inc(100);
  reg.attach_counter("c_total", &inst1);
  reg.attach_counter("c_total", &inst2);
  EXPECT_EQ(reg.snapshot().find("c_total")->counter, 111u);

  reg.detach_counter("c_total", &inst2);
  EXPECT_EQ(reg.snapshot().find("c_total")->counter, 11u);
  reg.detach_counter("c_total", &inst1);
  EXPECT_EQ(reg.snapshot().find("c_total")->counter, 1u);
  // Detaching something never attached is a harmless no-op.
  reg.detach_counter("c_total", &inst1);
  reg.detach_counter("never_attached", &inst1);
}

TEST(ObsRegistry, AttachedGaugesSumLevels) {
  MetricsRegistry reg;
  Gauge a;
  Gauge b;
  a.set(5);
  b.set(-2);
  reg.attach_gauge("level", &a);
  reg.attach_gauge("level", &b);
  EXPECT_EQ(reg.snapshot().find("level")->gauge, 3);
  reg.detach_gauge("level", &a);
  reg.detach_gauge("level", &b);
}

TEST(ObsRegistry, SnapshotIsNameSorted) {
  MetricsRegistry reg;
  (void)reg.counter("zeta");
  (void)reg.counter("alpha");
  (void)reg.gauge("mid");
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "alpha");
  EXPECT_EQ(snap.metrics[1].name, "mid");
  EXPECT_EQ(snap.metrics[2].name, "zeta");
}

TEST(Obs, CounterConcurrentWritersExact) {
  // Relaxed fetch_add loses nothing: the total is exact once the writers
  // join.  Runs under the tsan preset.
  Counter c;
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.record(static_cast<std::uint64_t>(i & 1023));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.total_count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Obs, RegistryConcurrentRegistrationAndSnapshot) {
  MetricsRegistry reg;
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      for (int i = 0; i < 200; ++i) {
        reg.counter("shared_total").inc();
        reg.counter("own_" + std::to_string(t)).inc();
        if (i % 50 == 0) (void)reg.snapshot();
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.find("shared_total")->counter, static_cast<std::uint64_t>(kThreads) * 200);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.find("own_" + std::to_string(t))->counter, 200u);
  }
}

// ---- spans and trace --------------------------------------------------

TEST(ObsSpan, PhaseNamesAndHistogramsCoverTheTaxonomy) {
  const Phase all[] = {Phase::kSolve,     Phase::kApply,      Phase::kRoute,
                       Phase::kAudit,     Phase::kDiagnose,   Phase::kFallback,
                       Phase::kStreamRun, Phase::kSmallApply, Phase::kQueueWait,
                       Phase::kCacheLookup};
  static_assert(obs::kPhaseCount == 10);
  const char* names[] = {"solve",      "apply",       "route",     "audit",
                         "diagnose",   "fallback",    "stream_run", "small_apply",
                         "queue_wait", "cache_lookup"};
  // Histogram names mostly follow bnb_<phase>_ns; the two newest phases
  // carry their own descriptive names.
  const char* histogram_names[] = {
      "bnb_solve_ns",      "bnb_apply_ns",       "bnb_route_ns",
      "bnb_audit_ns",      "bnb_diagnose_ns",    "bnb_fallback_ns",
      "bnb_stream_run_ns", "bnb_small_apply_ns", "bnb_stream_queue_wait_ns",
      "bnb_cache_lookup_ns"};
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    EXPECT_STREQ(obs::to_string(all[i]), names[i]);
    // Each phase has its own histogram; all are distinct objects.
    for (std::size_t j = i + 1; j < obs::kPhaseCount; ++j) {
      EXPECT_NE(&obs::phase_histogram(all[i]), &obs::phase_histogram(all[j]));
    }
  }
  const auto snap = MetricsRegistry::global().snapshot();
  for (const char* name : histogram_names) {
    const auto* metric = snap.find(name);
    ASSERT_NE(metric, nullptr) << name;
    EXPECT_EQ(metric->kind, MetricKind::kHistogram);
  }
}

TEST(ObsSpan, LiveSpanRecordsIntoHistogramAndTrace) {
  obs::set_enabled(true);
  obs::SpanTrace trace(8);
  obs::set_trace(&trace);
  const std::uint64_t before = obs::phase_histogram(Phase::kDiagnose).total_count();
  {
    obs::LiveSpan span(Phase::kDiagnose);
  }
  obs::set_trace(nullptr);
  EXPECT_EQ(obs::phase_histogram(Phase::kDiagnose).total_count(), before + 1);
  const auto spans = trace.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].phase, Phase::kDiagnose);
}

TEST(ObsSpan, FinishIsIdempotent) {
  obs::set_enabled(true);
  const std::uint64_t before = obs::phase_histogram(Phase::kFallback).total_count();
  obs::LiveSpan span(Phase::kFallback);
  span.finish();
  span.finish();  // second call must not double-record
  EXPECT_EQ(obs::phase_histogram(Phase::kFallback).total_count(), before + 1);
}

TEST(ObsSpan, RuntimeDisableSkipsRecording) {
  obs::set_enabled(false);
  const std::uint64_t before = obs::phase_histogram(Phase::kAudit).total_count();
  {
    obs::LiveSpan span(Phase::kAudit);
  }
  obs::set_enabled(true);
  EXPECT_EQ(obs::phase_histogram(Phase::kAudit).total_count(), before);
}

TEST(ObsSpan, TraceRingKeepsMostRecentAndWraps) {
  obs::SpanTrace trace(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    trace.record(Phase::kSolve, /*start_ns=*/i, /*duration_ns=*/i * 10);
  }
  EXPECT_EQ(trace.recorded(), 10u);
  EXPECT_EQ(trace.capacity(), 4u);
  const auto spans = trace.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(spans[k].start_ns, 6 + k);  // oldest retained first
    EXPECT_EQ(spans[k].duration_ns, (6 + k) * 10);
  }
  trace.clear();
  EXPECT_EQ(trace.recorded(), 0u);
  EXPECT_TRUE(trace.snapshot().empty());
}

TEST(ObsSpan, RingOverflowIsCountedAsDropped) {
  obs::SpanTrace trace(4);
  for (std::uint64_t i = 0; i < 4; ++i) trace.record(Phase::kSolve, i, 1);
  EXPECT_EQ(trace.dropped(), 0u);  // exactly full: nothing lost yet
  trace.record(Phase::kSolve, 4, 1);
  trace.record(Phase::kSolve, 5, 1);
  EXPECT_EQ(trace.dropped(), 2u);
  trace.clear();
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_EQ(trace.recorded(), 0u);
}

// ---- trace context ----------------------------------------------------

TEST(ObsTrace, NewTraceIdsAreUniqueAndNonZero) {
  const std::uint64_t a = obs::new_trace_id();
  const std::uint64_t b = obs::new_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(ObsTrace, ScopeInstallsAndRestoresContext) {
  EXPECT_EQ(obs::current_context().trace_id, 0u);  // untraced by default
  {
    obs::TraceScope outer(42, 7);
    EXPECT_EQ(obs::current_context().trace_id, 42u);
    EXPECT_EQ(obs::current_context().parent_id, 7u);
    {
      obs::TraceScope inner(43, 42);
      EXPECT_EQ(obs::current_context().trace_id, 43u);
    }
    EXPECT_EQ(obs::current_context().trace_id, 42u);  // restored
  }
  EXPECT_EQ(obs::current_context().trace_id, 0u);
}

TEST(ObsTrace, RootScopeStartsOnlyWhenUntraced) {
  obs::set_enabled(true);
  {
    obs::TraceScope root(obs::TraceScope::kRoot);
    const std::uint64_t started = obs::current_context().trace_id;
    EXPECT_NE(started, 0u);
    {
      // A nested root INHERITS instead of fragmenting the trace.
      obs::TraceScope nested(obs::TraceScope::kRoot);
      EXPECT_EQ(obs::current_context().trace_id, started);
    }
  }
  EXPECT_EQ(obs::current_context().trace_id, 0u);
}

TEST(ObsTrace, RootScopeAllocatesNothingWhenRuntimeDisabled) {
  obs::set_enabled(false);
  {
    obs::TraceScope root(obs::TraceScope::kRoot);
    EXPECT_EQ(obs::current_context().trace_id, 0u);
  }
  obs::set_enabled(true);
}

TEST(ObsTrace, ThreadIdsAreDenseAndDistinctAcrossThreads) {
  const std::uint32_t mine = obs::current_thread_id();
  EXPECT_NE(mine, 0u);
  EXPECT_EQ(obs::current_thread_id(), mine);  // cached, stable
  std::uint32_t other = 0;
  std::thread([&other] { other = obs::current_thread_id(); }).join();
  EXPECT_NE(other, 0u);
  EXPECT_NE(other, mine);
}

TEST(ObsTrace, LiveSpanStampsCurrentContextIntoTheSink) {
  obs::set_enabled(true);
  obs::SpanTrace trace(8);
  obs::set_trace(&trace);
  {
    obs::TraceScope scope(77, 11);
    obs::LiveSpan span(Phase::kAudit);
  }
  {
    obs::LiveSpan span(Phase::kAudit);  // untraced: ids stay zero
  }
  obs::set_trace(nullptr);
  const auto spans = trace.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].trace_id, 77u);
  EXPECT_EQ(spans[0].parent_id, 11u);
  EXPECT_EQ(spans[0].thread_id, obs::current_thread_id());
  EXPECT_EQ(spans[1].trace_id, 0u);
  EXPECT_EQ(spans[1].parent_id, 0u);
}

TEST(ObsTrace, CompiledRouteSharesOneTraceAcrossItsPhases) {
#if !BNB_OBS_COMPILED
  GTEST_SKIP() << "BNB_OBS_OFF: engine spans (and their trace ids) are "
                  "compiled out";
#else
  // A CompiledBnb::route opens a root trace; the solve/apply work inside
  // shares it, and two routes get two different ids.
  obs::set_enabled(true);
  obs::SpanTrace trace(64);
  obs::set_trace(&trace);
  const CompiledBnb engine(3);
  RouteScratch scratch;
  Rng rng(23);
  (void)engine.route(random_perm(engine.inputs(), rng), scratch);
  (void)engine.route(random_perm(engine.inputs(), rng), scratch);
  obs::set_trace(nullptr);
  const auto spans = trace.snapshot();
  std::vector<std::uint64_t> route_ids;
  for (const auto& span : spans) {
    if (span.phase == Phase::kRoute && span.trace_id != 0) {
      route_ids.push_back(span.trace_id);
    }
  }
  ASSERT_EQ(route_ids.size(), 2u);
  EXPECT_NE(route_ids[0], route_ids[1]);
#endif
}

// ---- telemetry sampler ------------------------------------------------

TEST(ObsSampler, FirstSampleIsBaselineThenDeltas) {
  MetricsRegistry reg;
  Counter& c = reg.counter("s_events_total");
  Histogram& h = reg.histogram("s_lat_ns");
  obs::TelemetrySampler::Options options;
  options.registry = &reg;
  obs::TelemetrySampler sampler(options);

  c.inc(5);
  EXPECT_FALSE(sampler.sample_now());  // baseline: no interval pushed
  EXPECT_TRUE(sampler.intervals().empty());

  c.inc(10);
  h.record(100);
  h.record(200);
  EXPECT_TRUE(sampler.sample_now());
  auto intervals = sampler.intervals();
  ASSERT_EQ(intervals.size(), 1u);
  ASSERT_EQ(intervals[0].counters.size(), 1u);
  EXPECT_EQ(intervals[0].counters[0].name, "s_events_total");
  EXPECT_EQ(intervals[0].counters[0].delta, 10u);  // NOT the 15 total
  EXPECT_GT(intervals[0].counters[0].rate_per_sec, 0.0);
  ASSERT_EQ(intervals[0].histograms.size(), 1u);
  EXPECT_EQ(intervals[0].histograms[0].count, 2u);
  EXPECT_EQ(intervals[0].histograms[0].sum, 300u);
  EXPECT_GT(intervals[0].histograms[0].p50, 0.0);
  EXPECT_LE(intervals[0].histograms[0].p99, 256.0);  // bucket bound of 200

  // A quiet interval reports no counter/histogram movement.
  EXPECT_TRUE(sampler.sample_now());
  intervals = sampler.intervals();
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_TRUE(intervals[1].counters.empty());
  EXPECT_TRUE(intervals[1].histograms.empty());
}

TEST(ObsSampler, RingIsBoundedAndCountsEvictions) {
  MetricsRegistry reg;
  Counter& c = reg.counter("s_total");
  obs::TelemetrySampler::Options options;
  options.registry = &reg;
  options.capacity = 3;
  obs::TelemetrySampler sampler(options);
  (void)sampler.sample_now();  // baseline
  for (int i = 0; i < 5; ++i) {
    c.inc();
    (void)sampler.sample_now();
  }
  EXPECT_EQ(sampler.intervals().size(), 3u);
  EXPECT_EQ(sampler.dropped_intervals(), 2u);
}

TEST(ObsSampler, ToJsonCarriesSchemaAndSeries) {
  MetricsRegistry reg;
  Counter& c = reg.counter("s_requests_total");
  reg.gauge("s_depth").set(9);
  obs::TelemetrySampler::Options options;
  options.registry = &reg;
  options.interval_ms = 50;
  obs::TelemetrySampler sampler(options);
  (void)sampler.sample_now();
  c.inc(4);
  (void)sampler.sample_now();
  const std::string json = sampler.to_json();
  EXPECT_NE(json.find("\"schema\": \"bnb.timeseries.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"interval_ms\": 50"), std::string::npos);
  EXPECT_NE(json.find("\"s_requests_total\": {\"delta\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"s_depth\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_intervals\": 0"), std::string::npos);

  // Empty sampler: still a valid envelope.
  obs::TelemetrySampler empty(options);
  EXPECT_NE(empty.to_json().find("\"intervals\": []"), std::string::npos);
}

TEST(ObsSampler, BackgroundThreadSamplesAndStopsPromptly) {
  // Runs under the tsan preset: the sampler thread races the recording
  // threads below by design.
  MetricsRegistry reg;
  Counter& c = reg.counter("s_bg_total");
  Histogram& h = reg.histogram("s_bg_lat_ns");
  obs::TelemetrySampler::Options options;
  options.registry = &reg;
  options.interval_ms = 5;
  obs::TelemetrySampler sampler(options);
  sampler.start();
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        c.inc();
        h.record(static_cast<std::uint64_t>(i & 511));
      }
    });
  }
  for (auto& w : writers) w.join();
  sampler.stop();  // joins + takes the flush sample
  const auto intervals = sampler.intervals();
  ASSERT_FALSE(intervals.empty());
  std::uint64_t total = 0;
  for (const auto& interval : intervals) {
    for (const auto& counter : interval.counters) {
      if (counter.name == "s_bg_total") total += counter.delta;
    }
  }
  // Quiescent at stop(): the interval deltas reassemble the exact total.
  EXPECT_EQ(total, 40000u);
  // start() again after stop() works (baseline resets are not required --
  // the previous baseline carries forward, so no interval is lost).
  sampler.start();
  sampler.stop();
}

TEST(Obs, TraceConcurrentRecordIsLossyButRaceFree) {
  obs::SpanTrace trace(64);
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (std::uint64_t i = 0; i < 5000; ++i) trace.record(Phase::kApply, i, 1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(trace.recorded(), static_cast<std::uint64_t>(kThreads) * 5000);
  EXPECT_EQ(trace.snapshot().size(), 64u);
}

TEST(ObsSpan, SpanBurstAllocatesNothing) {
  // Spans must be legal inside the zero-allocation steady state: warm the
  // phase table and preallocate the trace, then record with the global
  // operator-new hook watching.
  obs::set_enabled(true);
  (void)obs::phase_histogram(Phase::kRoute);
  obs::SpanTrace trace(256);
  obs::set_trace(&trace);

  testhook::reset_allocation_count();
  for (int i = 0; i < 1000; ++i) {
    obs::LiveSpan span(Phase::kRoute);
    span.finish();
  }
  const std::size_t allocs = testhook::allocation_count();
  obs::set_trace(nullptr);
  EXPECT_EQ(allocs, 0u);
}

// ---- BNB_OBS_OFF compiled-out path ------------------------------------

TEST(ObsOff, ProbeSeesInstrumentationCompiledOut) {
  EXPECT_EQ(testhook::obs_off_compiled(), 0);
}

TEST(ObsOff, CompiledOutSpansRecordNothing) {
  obs::set_enabled(true);
  obs::SpanTrace trace(16);
  obs::set_trace(&trace);
  const std::uint64_t before = obs::phase_histogram(Phase::kRoute).total_count();
  testhook::obs_off_span_burst(100);
  obs::set_trace(nullptr);
  EXPECT_EQ(obs::phase_histogram(Phase::kRoute).total_count(), before);
  EXPECT_EQ(trace.recorded(), 0u);
}

// ---- exporters --------------------------------------------------------

TEST(ObsExport, PrometheusGoldenForCountersAndGauges) {
  MetricsRegistry reg;
  reg.counter("t_events_total", "events seen").inc(3);
  reg.gauge("t_level").set(-7);
  const std::string expected =
      "# HELP t_events_total events seen\n"
      "# TYPE t_events_total counter\n"
      "t_events_total 3\n"
      "# TYPE t_level gauge\n"
      "t_level -7\n";
  EXPECT_EQ(obs::to_prometheus(reg.snapshot()), expected);
}

TEST(ObsExport, PrometheusHistogramIsCumulative) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("t_lat_ns", "latency");
  h.record(1);     // bucket 0
  h.record(5);     // bucket 3 (le 8)
  h.record(5000);  // bucket 13 (le 8192)
  const std::string text = obs::to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# TYPE t_lat_ns histogram\n"), std::string::npos);
  EXPECT_NE(text.find("t_lat_ns_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("t_lat_ns_bucket{le=\"4\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("t_lat_ns_bucket{le=\"8\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("t_lat_ns_bucket{le=\"4096\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("t_lat_ns_bucket{le=\"8192\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("t_lat_ns_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("t_lat_ns_sum 5006\n"), std::string::npos);
  EXPECT_NE(text.find("t_lat_ns_count 3\n"), std::string::npos);
}

TEST(ObsExport, JsonGolden) {
  MetricsRegistry reg;
  reg.counter("t_events_total", "events").inc(7);
  reg.gauge("t_depth").set(4);
  const std::string json = obs::to_json(reg.snapshot());
  const std::string expected =
      "{\n"
      "  \"schema\": \"bnb.metrics.v1\",\n"
      "  \"counters\": {\n"
      "    \"t_events_total\": 7\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"t_depth\": 4\n"
      "  },\n"
      "  \"histograms\": {}\n"
      "}\n";
  EXPECT_EQ(json, expected);
}

TEST(ObsExport, JsonHistogramCarriesCumulativeBuckets) {
  MetricsRegistry reg;
  reg.histogram("t_lat_ns").record(3);
  const std::string json = obs::to_json(reg.snapshot());
  EXPECT_NE(json.find("\"t_lat_ns\": {\"count\": 1, \"sum\": 3, \"buckets\": ["),
            std::string::npos);
  EXPECT_NE(json.find("{\"le\": \"2\", \"count\": 0}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\": \"4\", \"count\": 1}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\": \"+Inf\", \"count\": 1}"), std::string::npos);
}

TEST(ObsExport, ChromeTraceCarriesDroppedTotal) {
  // The envelope's otherData reports the ring's overwrite tally next to the
  // events; it defaults to 0 for a caller with no SpanTrace.
  obs::SpanRecord records[2];
  records[0] = {Phase::kSolve, 100, 50, 7, 3, 1};
  records[1] = {Phase::kApply, 150, 25, 7, 3, 2};
  const std::string json = obs::trace_to_chrome(records, /*dropped_total=*/4);
  EXPECT_TRUE(json.starts_with("{\n  \"displayTimeUnit\": \"ns\",\n"
                              "  \"otherData\": {\"dropped_total\": 4},\n"
                              "  \"traceEvents\": ["))
      << json;
  EXPECT_NE(obs::trace_to_chrome({}).find("\"otherData\": {\"dropped_total\": 0}"),
            std::string::npos);
}

TEST(ObsExport, ChromeTraceGolden) {
  obs::SpanRecord records[2];
  records[0] = {Phase::kSolve, 1000, 500, 7, 3, 1};
  records[1] = {Phase::kApply, 2000, 250, 7, 3, 2};
  const std::string json = obs::trace_to_chrome(records);
  // Envelope + metadata.
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"process_name\", \"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"name\": \"bnb-thread-1\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"name\": \"bnb-thread-2\"}"), std::string::npos);
  // Complete events in microseconds, causal ids in args.
  EXPECT_NE(json.find("\"name\": \"solve\", \"cat\": \"bnb\", \"ph\": \"X\", "
                      "\"ts\": 1.000, \"dur\": 0.500, \"pid\": 1, \"tid\": 1, "
                      "\"args\": {\"trace_id\": 7, \"parent_id\": 3}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"apply\", \"cat\": \"bnb\", \"ph\": \"X\", "
                      "\"ts\": 2.000, \"dur\": 0.250, \"pid\": 1, \"tid\": 2, "
                      "\"args\": {\"trace_id\": 7, \"parent_id\": 3}"),
            std::string::npos);
  // Trace 7 crosses two threads: flow start leaves the solve at its end
  // (1.5 us) and finishes on the apply's start.
  EXPECT_NE(json.find("\"ph\": \"s\", \"id\": 7, \"ts\": 1.500, \"pid\": 1, "
                      "\"tid\": 1"),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\", \"id\": 7, \"ts\": 2.000, \"pid\": 1, "
                      "\"tid\": 2, \"bp\": \"e\""),
            std::string::npos);
}

TEST(ObsExport, ChromeTraceEmptyAndSingleThreadEdges) {
  // Empty span list: a valid envelope with only the process metadata.
  const std::string empty = obs::trace_to_chrome({});
  EXPECT_NE(empty.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(empty.find("process_name"), std::string::npos);
  EXPECT_EQ(empty.find("\"ph\": \"X\""), std::string::npos);

  // A single-thread trace gets NO flow events (nothing to stitch), and an
  // untraced span (trace_id 0) never participates in flows.
  obs::SpanRecord records[3];
  records[0] = {Phase::kSolve, 100, 10, 5, 0, 1};
  records[1] = {Phase::kApply, 200, 10, 5, 0, 1};
  records[2] = {Phase::kRoute, 300, 10, 0, 0, 2};
  const std::string json = obs::trace_to_chrome(records);
  EXPECT_EQ(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\": \"f\""), std::string::npos);
}

TEST(ObsExport, ChromeTraceFromWrappedRing) {
  // A ring-wrapped snapshot (oldest spans overwritten) still exports: the
  // retained suffix appears, the dropped count reports the loss.
  obs::SpanTrace trace(4);
  for (std::uint64_t i = 0; i < 9; ++i) {
    trace.record(Phase::kSolve, 100 * i, 10, i + 1, 0,
                 static_cast<std::uint32_t>(1 + (i & 1)));
  }
  EXPECT_EQ(trace.dropped(), 5u);
  const auto spans = trace.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  const std::string json = obs::trace_to_chrome(spans, trace.dropped());
  // Oldest retained span is i=5 (ts 500 ns = 0.5 us).
  EXPECT_NE(json.find("\"ts\": 0.500"), std::string::npos);
  EXPECT_NE(json.find("\"otherData\": {\"dropped_total\": 5}"), std::string::npos);
}

TEST(ObsExport, JsonStringEscapingInPhaseNames) {
  // The exporters escape event names; to_string today returns plain
  // identifiers, so drive the escaper through a record whose name passes
  // the same path (every phase name must round-trip unchanged).
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    obs::SpanRecord record{static_cast<Phase>(p), 1, 1, 1, 0, 1};
    const std::string json = obs::trace_to_chrome({&record, 1});
    const std::string name = obs::to_string(static_cast<Phase>(p));
    EXPECT_NE(json.find("\"name\": \"" + name + "\""), std::string::npos) << name;
    // No raw control characters, quotes, or backslashes leaked into the
    // emitted event names.
    EXPECT_EQ(name.find('"'), std::string::npos);
    EXPECT_EQ(name.find('\\'), std::string::npos);
  }
}

TEST(ObsExport, EveryMetricRoundTripsThroughBothExporters) {
  // Exercise the real subsystems against a LOCAL registry (where they
  // accept one) and the global registry (engine + fabric metrics), then
  // require every snapshotted name to surface in both export formats.
  MetricsRegistry reg;
  ScheduleCache cache(4, 1, &reg);
  RouteScratch scratch;
  const CompiledBnb engine(3);
  Rng rng(7);
  for (int i = 0; i < 3; ++i) {
    const Permutation pi = random_perm(engine.inputs(), rng);
    (void)cache.route(engine, pi, scratch);
    (void)cache.route(engine, pi, scratch);  // second pass: cache hit
  }
  ResilientPolicy policy;
  policy.sleep_on_backoff = false;
  ResilientRouter router(3, policy, nullptr, &reg);
  (void)router.route(random_perm(router.inputs(), rng));
  StreamEngine::Options options;
  options.threads = 1;
  options.registry = &reg;
  StreamEngine stream(engine, options);
  const std::vector<Permutation> perms = {random_perm(engine.inputs(), rng)};
  (void)stream.run(perms);

  for (const MetricsRegistry* source : {&reg, &MetricsRegistry::global()}) {
    const auto snap = source->snapshot();
    ASSERT_FALSE(snap.metrics.empty());
    const std::string prom = obs::to_prometheus(snap);
    const std::string json = obs::to_json(snap);
    for (const auto& metric : snap.metrics) {
      EXPECT_NE(prom.find(metric.name), std::string::npos) << metric.name;
      EXPECT_NE(json.find("\"" + metric.name + "\""), std::string::npos) << metric.name;
    }
  }
  // The local registry carries the full per-subsystem catalog.
  const auto snap = reg.snapshot();
  for (const char* name :
       {"bnb_cache_hits_total", "bnb_cache_misses_total", "bnb_cache_evictions_total",
        "bnb_cache_bypasses_total", "bnb_cache_entries", "bnb_robust_routed_total",
        "bnb_robust_misroutes_caught_total", "bnb_resilient_backoffs_total",
        "bnb_resilient_degraded_total", "bnb_breaker_state",
        "bnb_stream_runs_total", "bnb_stream_permutations_total",
        "bnb_stream_solves_total", "bnb_stream_cache_hits_total",
        "bnb_stream_ring_high_water"}) {
    EXPECT_NE(snap.find(name), nullptr) << name;
  }
  EXPECT_EQ(snap.find("bnb_cache_hits_total")->counter, 3u);
  EXPECT_EQ(snap.find("bnb_cache_entries")->gauge, 3);
  EXPECT_EQ(snap.find("bnb_robust_routed_total")->counter, 1u);
  EXPECT_EQ(snap.find("bnb_stream_permutations_total")->counter, 1u);
}

// ---- subsystem integration -------------------------------------------

TEST(Obs, TwoCachesAggregateInOneRegistry) {
  MetricsRegistry reg;
  {
    ScheduleCache a(4, 1, &reg);
    ScheduleCache b(4, 1, &reg);
    a.record_bypass();
    a.record_bypass();
    b.record_bypass();
    EXPECT_EQ(reg.snapshot().find("bnb_cache_bypasses_total")->counter, 3u);
    // Per-instance stats stay exact.
    EXPECT_EQ(a.stats().bypasses, 2u);
    EXPECT_EQ(b.stats().bypasses, 1u);
  }
  // Counters are monotonic across instance lifetimes: a destroyed cache's
  // totals fold into the registry's owned counters instead of vanishing.
  EXPECT_EQ(reg.snapshot().find("bnb_cache_bypasses_total")->counter, 3u);
  EXPECT_EQ(reg.snapshot().find("bnb_cache_entries")->gauge, 0);
}

TEST(Obs, CacheEntriesGaugeTracksInsertEvictClear) {
  MetricsRegistry reg;
  ScheduleCache cache(2, 1, &reg);
  RouteScratch scratch;
  const CompiledBnb engine(3);
  Rng rng(11);
  for (int i = 0; i < 3; ++i) {
    (void)cache.route(engine, random_perm(engine.inputs(), rng), scratch);
  }
  // Capacity 2, three distinct inserts: one eviction, two live entries.
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.find("bnb_cache_evictions_total")->counter, 1u);
  EXPECT_EQ(snap.find("bnb_cache_entries")->gauge, 2);
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(reg.snapshot().find("bnb_cache_entries")->gauge, 0);
}

TEST(Obs, StreamEngineReportsRingHighWater) {
  const CompiledBnb engine(3);
  MetricsRegistry reg;
  StreamEngine::Options options;
  options.threads = 2;
  options.ring_depth = 4;
  options.registry = &reg;
  const StreamEngine stream(engine, options);
  Rng rng(13);
  std::vector<Permutation> perms;
  for (int i = 0; i < 32; ++i) perms.push_back(random_perm(engine.inputs(), rng));
  const auto result = stream.run(perms);
  EXPECT_TRUE(result.stats.all_self_routed);
  EXPECT_LE(result.stats.ring_high_water, 4u);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.find("bnb_stream_runs_total")->counter, 1u);
  EXPECT_EQ(snap.find("bnb_stream_permutations_total")->counter, 32u);
  EXPECT_EQ(static_cast<std::uint64_t>(snap.find("bnb_stream_ring_high_water")->gauge),
            result.stats.ring_high_water);
}

}  // namespace
}  // namespace bnb
