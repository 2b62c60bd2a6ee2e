// Wall-clock routing throughput of every permutation network in the
// repository (google-benchmark).  Not a paper table — the paper's model is
// gate delay — but a sanity check that the behavioral simulators scale as
// their asymptotics promise, and a practical comparison for users of the
// library as a software permutation router.  The DeliveryAudit and
// ResilientRouter rows time the layers of a warm cache hit: the audit on a
// clean delivery (the clean-delivery proof alone), on a delivery with one
// bad line (proof plus the exact classifier), and the whole audited hit;
// the small-lane rows time an audited miss at m = 4..6 and, apart, the
// Beneš flatten that no serving path runs.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "baselines/batcher.hpp"
#include "baselines/benes.hpp"
#include "baselines/crossbar.hpp"
#include "baselines/koppelman.hpp"
#include "common/rng.hpp"
#include "core/bnb_network.hpp"
#include "core/compiled_bnb.hpp"
#include "core/schedule_cache.hpp"
#include "fault/delivery_audit.hpp"
#include "fault/resilience.hpp"
#include "perm/generators.hpp"

namespace {

bnb::Permutation test_perm(std::size_t n) {
  bnb::Rng rng(0xBEEF ^ n);
  return bnb::random_perm(n, rng);
}

void BM_BnbRoute(benchmark::State& state) {
  const unsigned m = static_cast<unsigned>(state.range(0));
  const bnb::BnbNetwork net(m);
  const auto pi = test_perm(net.inputs());
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.route(pi));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.inputs()));
}
BENCHMARK(BM_BnbRoute)->DenseRange(4, 14, 2);

void BM_CompiledBnbRoute(benchmark::State& state) {
  // The flat engine with a prepared scratch: the zero-allocation fast path.
  const unsigned m = static_cast<unsigned>(state.range(0));
  const bnb::CompiledBnb engine(m);
  const auto pi = test_perm(engine.inputs());
  bnb::RouteScratch scratch;
  scratch.prepare(engine);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.route(pi, scratch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(engine.inputs()));
}
BENCHMARK(BM_CompiledBnbRoute)->DenseRange(4, 14, 2);

void BM_CompiledBnbSolve(benchmark::State& state) {
  // The control plane alone — what every cache miss pays: arbiters, the
  // live address slices through every column, the fused tail, the fill
  // and drain.
  const unsigned m = static_cast<unsigned>(state.range(0));
  const bnb::CompiledBnb engine(m);
  const auto pi = test_perm(engine.inputs());
  bnb::RouteScratch scratch;
  bnb::ControlSchedule schedule;
  engine.solve(pi, scratch, schedule);
  for (auto _ : state) {
    engine.solve(pi, scratch, schedule);
    benchmark::DoNotOptimize(schedule.line_of_input().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(engine.inputs()));
}
BENCHMARK(BM_CompiledBnbSolve)->DenseRange(4, 14, 1);

void BM_CompiledBnbApply(benchmark::State& state) {
  // Replay of a solved schedule: the floor a warm cache hit is measured
  // against.
  const unsigned m = static_cast<unsigned>(state.range(0));
  const bnb::CompiledBnb engine(m);
  const auto pi = test_perm(engine.inputs());
  bnb::RouteScratch scratch;
  bnb::ControlSchedule schedule;
  engine.solve(pi, scratch, schedule);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.apply(schedule, pi, scratch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(engine.inputs()));
}
BENCHMARK(BM_CompiledBnbApply)->DenseRange(4, 14, 2);

/// A clean delivery of pi: line pi(j) holds {address pi(j), payload j}.
std::vector<bnb::Word> clean_delivery(const bnb::Permutation& pi) {
  std::vector<bnb::Word> out(pi.size());
  for (std::size_t j = 0; j < pi.size(); ++j) {
    out[pi(j)] = bnb::Word{pi(j), std::uint64_t{j}};
  }
  return out;
}

void BM_DeliveryAuditClean(benchmark::State& state) {
  const unsigned m = static_cast<unsigned>(state.range(0));
  const bnb::DeliveryAudit audit(m);
  const auto pi = test_perm(audit.inputs());
  const auto out = clean_delivery(pi);
  for (auto _ : state) {
    benchmark::DoNotOptimize(audit.audit(pi, out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(audit.inputs()));
}
BENCHMARK(BM_DeliveryAuditClean)->DenseRange(4, 14, 2);

void BM_DeliveryAuditOneBadLine(benchmark::State& state) {
  // Two words swapped: the proof fails and the classifier reports both.
  const unsigned m = static_cast<unsigned>(state.range(0));
  const bnb::DeliveryAudit audit(m);
  const auto pi = test_perm(audit.inputs());
  auto out = clean_delivery(pi);
  std::swap(out[0], out[audit.inputs() / 2]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(audit.audit(pi, out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(audit.inputs()));
}
BENCHMARK(BM_DeliveryAuditOneBadLine)->DenseRange(4, 14, 2);

void BM_ResilientRouterWarmHit(benchmark::State& state) {
  // The serving path's common case: digest, cache replay, audit, dest copy.
  const unsigned m = static_cast<unsigned>(state.range(0));
  bnb::ScheduleCache cache(16);
  bnb::ResilientRouter router(m, {}, &cache);
  const auto pi = test_perm(router.inputs());
  (void)router.route(pi);  // the miss that fills the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.route(pi));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(router.inputs()));
}
BENCHMARK(BM_ResilientRouterWarmHit)->DenseRange(4, 14, 2);

void BM_ResilientRouterSmallMiss(benchmark::State& state) {
  // The small lane's miss: every call cycles a 64-permutation pool through
  // a cache of 8, so each route is digest, probe, solve and line-map copy,
  // deliver, audit, insert with eviction, dest copy.
  const unsigned m = static_cast<unsigned>(state.range(0));
  bnb::ScheduleCache cache(8);
  bnb::ResilientRouter router(m, {}, &cache);
  bnb::Rng rng(0x5A11 ^ m);
  std::vector<bnb::Permutation> pool;
  for (int i = 0; i < 64; ++i) pool.push_back(bnb::random_perm(router.inputs(), rng));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.route(pool[i++ & 63]));
  }
  if (cache.stats().hits != 0) state.SkipWithError("a small-miss row hit the cache");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(router.inputs()));
}
BENCHMARK(BM_ResilientRouterSmallMiss)->DenseRange(4, 6, 1);

void BM_FlattenSmall(benchmark::State& state) {
  // The Beneš flatten alone, off every serving path: a compiled line map
  // into at most 2m - 1 register butterfly steps.
  const unsigned m = static_cast<unsigned>(state.range(0));
  const bnb::CompiledBnb plan(m);
  bnb::RouteScratch scratch;
  bnb::Rng rng(0xF1A7 ^ m);
  std::vector<bnb::SmallSchedule> pool;
  for (int i = 0; i < 16; ++i) {
    pool.push_back(plan.compile_small(bnb::random_perm(plan.inputs(), rng), scratch));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.flatten_small(pool[i++ & 15]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(plan.inputs()));
}
BENCHMARK(BM_FlattenSmall)->DenseRange(4, 6, 1);

void BM_CompiledBnbBatch(benchmark::State& state) {
  // 64-permutation batches through the worker pool; range(1) = threads.
  const unsigned m = static_cast<unsigned>(state.range(0));
  const unsigned threads = static_cast<unsigned>(state.range(1));
  const bnb::CompiledBnb engine(m);
  bnb::Rng rng(0xBA7C4 ^ m);
  std::vector<bnb::Permutation> perms;
  for (int i = 0; i < 64; ++i) perms.push_back(bnb::random_perm(engine.inputs(), rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.route_batch(perms, threads));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(perms.size()) *
                          static_cast<std::int64_t>(engine.inputs()));
}
BENCHMARK(BM_CompiledBnbBatch)
    ->ArgsProduct({{10, 14}, {1, 2, 4, 8}});

void BM_BatcherRoute(benchmark::State& state) {
  const unsigned m = static_cast<unsigned>(state.range(0));
  const bnb::BatcherNetwork net(m);
  const auto pi = test_perm(net.inputs());
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.route(pi));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.inputs()));
}
BENCHMARK(BM_BatcherRoute)->DenseRange(4, 14, 2);

void BM_BenesSetupAndRoute(benchmark::State& state) {
  const unsigned m = static_cast<unsigned>(state.range(0));
  const bnb::BenesNetwork net(m);
  const auto pi = test_perm(net.inputs());
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.route(pi));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.inputs()));
}
BENCHMARK(BM_BenesSetupAndRoute)->DenseRange(4, 14, 2);

void BM_BenesApplyOnly(benchmark::State& state) {
  // Amortized case: the plan is precomputed once and reused.
  const unsigned m = static_cast<unsigned>(state.range(0));
  const bnb::BenesNetwork net(m);
  const auto pi = test_perm(net.inputs());
  const auto plan = net.set_up(pi);
  std::vector<bnb::Word> words(net.inputs());
  for (std::size_t j = 0; j < net.inputs(); ++j) {
    words[j] = bnb::Word{pi(j), j};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.apply_plan(plan, words));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.inputs()));
}
BENCHMARK(BM_BenesApplyOnly)->DenseRange(4, 14, 2);

void BM_KoppelmanRoute(benchmark::State& state) {
  const unsigned m = static_cast<unsigned>(state.range(0));
  const bnb::KoppelmanSrpn net(m);
  const auto pi = test_perm(net.inputs());
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.route(pi));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.inputs()));
}
BENCHMARK(BM_KoppelmanRoute)->DenseRange(4, 14, 2);

void BM_CrossbarRoute(benchmark::State& state) {
  const unsigned m = static_cast<unsigned>(state.range(0));
  const bnb::Crossbar net(std::size_t{1} << m);
  const auto pi = test_perm(net.inputs());
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.route(pi));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(net.inputs()));
}
BENCHMARK(BM_CrossbarRoute)->DenseRange(4, 14, 2);

}  // namespace

BENCHMARK_MAIN();
