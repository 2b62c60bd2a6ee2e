// StreamEngine correctness: the stage-overlapped solver/applier pipeline
// must deliver the same bits as CompiledBnb::route_batch — in-order inline
// degeneration, the ordered-ring pipeline with one and several solver
// workers, and all again with a ScheduleCache attached (repeated traffic
// streams as hits) — and must preserve route_batch's first-error-wins
// contract (the failing stream index survives the pipeline).  The
// threaded cases double as the tsan targets for the ring.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/rng.hpp"
#include "core/compiled_bnb.hpp"
#include "core/schedule_cache.hpp"
#include "fabric/stream_engine.hpp"
#include "obs/span.hpp"
#include "obs/trace_context.hpp"
#include "perm/generators.hpp"

namespace {

using namespace bnb;

std::vector<Permutation> random_pool(unsigned m, std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Permutation> pool;
  for (std::size_t i = 0; i < count; ++i) {
    pool.push_back(random_perm(std::size_t{1} << m, rng));
  }
  return pool;
}

void expect_matches_route_batch(unsigned m, std::span<const Permutation> perms,
                                const StreamEngine::Options& options) {
  const CompiledBnb plan(m);
  const BatchResult want = plan.route_batch(perms);
  const StreamEngine engine(plan, options);
  const StreamEngine::Result got = engine.run(perms);
  EXPECT_EQ(got.dest, want.dest);
  EXPECT_EQ(got.stats.all_self_routed, want.all_self_routed);
  EXPECT_EQ(got.stats.permutations, perms.size());
}

TEST(StreamEngine, InlineModeMatchesRouteBatch) {
  const auto pool = random_pool(6, 24, 0x57E01);
  StreamEngine::Options options;
  options.threads = 1;
  expect_matches_route_batch(6, pool, options);
}

TEST(StreamEngine, PipelinedModeMatchesRouteBatch) {
  // One solver (threads = 2) and several; m = 3 and 6 take the small
  // lane, 8 and 12 the general one.  Each runs without a cache, then cold
  // and warm through one.
  for (const unsigned m : {3U, 6U, 8U, 12U}) {
    const CompiledBnb plan(m);
    const auto pool = random_pool(m, m == 12 ? 12 : 40, 0x57E02 + m);
    const BatchResult want = plan.route_batch(pool);
    for (const unsigned threads : {2U, 3U, 4U, 8U}) {
      SCOPED_TRACE(testing::Message() << "m=" << m << " threads=" << threads);
      const StreamEngine bare(plan, {.threads = threads, .ring_depth = 4});
      const auto cold = bare.run(pool);
      EXPECT_EQ(cold.dest, want.dest);
      EXPECT_EQ(cold.stats.all_self_routed, want.all_self_routed);
      EXPECT_EQ(cold.stats.solved, pool.size());

      ScheduleCache cache(64);
      const StreamEngine cached(plan, {.threads = threads, .cache = &cache});
      const auto miss = cached.run(pool);
      const auto hit = cached.run(pool);
      EXPECT_EQ(miss.dest, want.dest);
      EXPECT_EQ(hit.dest, want.dest);
      EXPECT_EQ(miss.stats.solved, pool.size());
      EXPECT_EQ(hit.stats.cache_hits, pool.size());
      EXPECT_EQ(hit.stats.solved, 0U);
    }
  }
}

TEST(StreamEngine, PipelinedSurvivesTinyAndDeepRings) {
  const auto pool = random_pool(5, 40, 0x57E03);
  for (const std::size_t depth : {1UL, 2UL, 64UL}) {  // 1 rounds up to 2
    StreamEngine::Options options;
    options.threads = 2;
    options.ring_depth = depth;
    expect_matches_route_batch(5, pool, options);
  }
}

TEST(StreamEngine, ThreadPolicyAndStatsAreReported) {
  const CompiledBnb plan(4);
  const auto pool = random_pool(4, 8, 0x57E04);

  StreamEngine inline_engine(plan, {.threads = 1});
  const auto inline_result = inline_engine.run(pool);
  EXPECT_EQ(inline_engine.threads(), 1U);
  EXPECT_FALSE(inline_result.stats.pipelined);
  EXPECT_EQ(inline_result.stats.threads_used, 1U);
  EXPECT_EQ(inline_result.stats.solved, pool.size());
  EXPECT_EQ(inline_result.stats.cache_hits, 0U);

  // T threads = T - 1 solver workers plus the applier, with the solver
  // count capped at the number of items in the run.
  for (const unsigned threads : {2U, 4U, 8U, 16U}) {
    StreamEngine engine(plan, {.threads = threads});
    const auto result = engine.run(pool);
    EXPECT_TRUE(result.stats.pipelined) << "threads=" << threads;
    EXPECT_EQ(result.stats.threads_used, std::min<std::size_t>(threads - 1, pool.size()) + 1)
        << "threads=" << threads;
    EXPECT_EQ(result.stats.solved, pool.size()) << "threads=" << threads;
    EXPECT_EQ(engine.run(std::span<const Permutation>(pool).first(2)).stats.threads_used,
              std::min(threads - 1, 2U) + 1)
        << "threads=" << threads;
  }

  // Auto (threads = 0) resolves to one thread per usable CPU.
  StreamEngine auto_engine(plan);
  EXPECT_GE(auto_engine.threads(), 1U);
  EXPECT_LE(auto_engine.threads(), std::max(std::thread::hardware_concurrency(), 1U));
  EXPECT_EQ(auto_engine.run(pool).stats.permutations, pool.size());
}

#if defined(__linux__)
TEST(StreamEngine, AutoThreadsFollowTheAffinityMask) {
  // Narrow the calling thread to one CPU it may already use: the auto
  // engine must then run inline instead of sizing itself to the host.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved)) ++cpu;
  ASSERT_LT(cpu, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);

  const CompiledBnb plan(4);
  const auto pool = random_pool(4, 8, 0xAFF1);
  const StreamEngine narrowed(plan);
  const unsigned narrowed_threads = narrowed.threads();
  const auto result = narrowed.run(pool);

  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(narrowed_threads, 1U);
  EXPECT_FALSE(result.stats.pipelined);
  EXPECT_EQ(result.stats.permutations, pool.size());
  EXPECT_EQ(StreamEngine(plan).threads(),
            std::clamp(static_cast<unsigned>(CPU_COUNT(&saved)), 1U, 256U));
}
#endif

TEST(StreamEngine, RingHighWaterStaysWithinTheRingDepth) {
  // ring_high_water counts items published and not yet retired, so it is
  // at least 1 on any pipelined run and never exceeds the ring depth:
  // ring_depth rounded up to a power of two and to 2 x the solver count.
  const unsigned m = 6;
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 96, 0x57E12);
  for (const unsigned solvers : {1U, 3U, 7U}) {
    const std::size_t depth = std::bit_ceil(std::max<std::size_t>(4, 2 * solvers));
    const StreamEngine engine(plan, {.threads = solvers + 1, .ring_depth = 4});
    for (int rep = 0; rep < 5; ++rep) {
      const auto result = engine.run(pool);
      EXPECT_EQ(result.stats.threads_used, solvers + 1);
      EXPECT_GT(result.stats.ring_high_water, 0U) << "solvers=" << solvers;
      EXPECT_LE(result.stats.ring_high_water, depth) << "solvers=" << solvers;
    }
  }
}

TEST(StreamEngine, EmptyStreamIsTriviallyClean) {
  const CompiledBnb plan(4);
  for (const unsigned threads : {1U, 2U, 4U}) {
    StreamEngine engine(plan, {.threads = threads});
    const auto result = engine.run({});
    EXPECT_TRUE(result.stats.all_self_routed);
    EXPECT_TRUE(result.dest.empty());
  }
}

TEST(StreamEngine, CacheTurnsRepeatedTrafficIntoHits) {
  const unsigned m = 6;
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 16, 0x57E05);
  const BatchResult want = plan.route_batch(pool);

  for (const unsigned threads : {1U, 2U, 4U}) {
    ScheduleCache cache(64);
    StreamEngine::Options options;
    options.threads = threads;
    options.cache = &cache;
    const StreamEngine engine(plan, options);

    const auto cold = engine.run(pool);
    EXPECT_EQ(cold.dest, want.dest) << "threads=" << threads;
    EXPECT_EQ(cold.stats.solved, pool.size());
    EXPECT_EQ(cold.stats.cache_hits, 0U);

    const auto warm = engine.run(pool);
    EXPECT_EQ(warm.dest, want.dest) << "threads=" << threads;
    EXPECT_EQ(warm.stats.solved, 0U) << "warm stream must not re-solve";
    EXPECT_EQ(warm.stats.cache_hits, pool.size());
    EXPECT_EQ(warm.stats.all_self_routed, want.all_self_routed);
  }
}

TEST(StreamEngine, PipelinedAndInlineCacheCountsAgreeOnALongReuseStream) {
  // A stream of distinct permutations cycled so that each comes back only
  // after more than capacity + ring depth other items.  The pipelined
  // solvers may look up and insert in any interleaving, but the clock
  // evicts an entry that is never hit within `capacity` inserts, so no
  // lookup may hit and both runs must report the same cache counters.
  const unsigned m = 7;
  const CompiledBnb plan(m);
  const std::size_t capacity = 32;
  const std::size_t ring_depth = 8;
  const auto pool = random_pool(m, 2 * (capacity + ring_depth), 0x57E08);
  std::vector<Permutation> stream;
  for (int cycle = 0; cycle < 40; ++cycle) {
    stream.insert(stream.end(), pool.begin(), pool.end());
  }

  ScheduleCache inline_cache(capacity, /*shards=*/1);
  ScheduleCache pipelined_cache(capacity, /*shards=*/1);
  StreamEngine::Options options;
  options.ring_depth = ring_depth;
  options.threads = 1;
  options.cache = &inline_cache;
  const auto a = StreamEngine(plan, options).run(stream);
  options.threads = 4;
  options.cache = &pipelined_cache;
  const auto b = StreamEngine(plan, options).run(stream);
  EXPECT_EQ(a.dest, b.dest);

  const ScheduleCacheStats x = inline_cache.stats();
  const ScheduleCacheStats y = pipelined_cache.stats();
  EXPECT_EQ(x.hits, 0U);
  EXPECT_EQ(y.hits, 0U);
  EXPECT_EQ(x.misses, y.misses);
  EXPECT_EQ(x.misses, stream.size());
  EXPECT_EQ(x.evictions, y.evictions);
  EXPECT_EQ(x.entries, y.entries);
  EXPECT_EQ(x.bypasses, y.bypasses);
  EXPECT_EQ(x.quarantined, y.quarantined);
  EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits);
  EXPECT_EQ(a.stats.solved, b.stats.solved);
}

TEST(StreamEngine, FirstErrorWinsNamesTheFailingIndex) {
  const unsigned m = 5;
  const CompiledBnb plan(m);
  auto pool = random_pool(m, 12, 0x57E06);
  pool[7] = identity_perm(8);  // wrong size: the solver's contract trips

  for (const unsigned threads : {1U, 2U, 4U}) {
    StreamEngine engine(plan, {.threads = threads});
    try {
      (void)engine.run(pool);
      FAIL() << "wrong-size permutation must throw (threads=" << threads << ")";
    } catch (const batch_route_error& e) {
      EXPECT_EQ(e.index(), 7U) << "threads=" << threads;
      EXPECT_NE(e.cause(), nullptr);
      EXPECT_THROW(std::rethrow_exception(e.cause()), contract_violation);
    }
  }
}

// ---- error isolation ----------------------------------------------------

TEST(StreamEngine, IsolatedErrorsCarryPerIndexStatus) {
  // Under isolate_errors a poisoned item must not kill the stream: its
  // index retires as kFailed with a zeroed dest row, every other item
  // still delivers in order, and no exception escapes.  Failures hit both
  // the solve (wrong-size permutations) and the apply (a throwing hook).
  const unsigned m = 5;
  const std::size_t n = 32;
  const CompiledBnb plan(m);
  auto pool = random_pool(m, 24, 0x57E08);
  pool[3] = identity_perm(8);  // wrong size: the solver's contract trips
  pool[9] = identity_perm(4);
  pool[10] = identity_perm(4);
  const std::set<std::size_t> bad = {3, 9, 10, 17};

  for (const unsigned threads : {1U, 2U, 4U}) {
    StreamEngine::Options options;
    options.threads = threads;
    options.isolate_errors = true;
    options.apply_hook = [](std::size_t i) {
      if (i == 17) throw std::runtime_error("apply fault");
    };
    StreamEngine engine(plan, options);
    const auto result = engine.run(pool);
    ASSERT_EQ(result.status.size(), pool.size()) << "threads=" << threads;
    EXPECT_EQ(result.stats.failed, bad.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (bad.contains(i)) {
        EXPECT_EQ(result.status[i], StreamItemStatus::kFailed)
            << "threads=" << threads << " i=" << i;
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_EQ(result.dest[i * n + j], 0U) << "failed rows read zero";
        }
      } else {
        EXPECT_EQ(result.status[i], StreamItemStatus::kOk)
            << "threads=" << threads << " i=" << i;
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(result.dest[i * n + j], pool[i](j))
              << "threads=" << threads << " i=" << i;
        }
      }
    }
  }
}

TEST(StreamEngine, MultipleFailuresAreRetainedInTheBatchError) {
  // Without isolation the stream still throws first-error-wins, but every
  // failing index observed before the stop drained is retained.
  const unsigned m = 5;
  const CompiledBnb plan(m);
  auto pool = random_pool(m, 12, 0x57E09);
  pool[4] = identity_perm(8);

  StreamEngine engine(plan, {.threads = 1});
  try {
    (void)engine.run(pool);
    FAIL() << "wrong-size permutation must throw";
  } catch (const batch_route_error& e) {
    EXPECT_EQ(e.index(), 4U);
    ASSERT_FALSE(e.failed_indices().empty());
    EXPECT_EQ(e.failed_indices().front(), e.index());
    EXPECT_EQ(e.additional_failures(), e.failed_indices().size() - 1);
  }
}

TEST(StreamEngine, StrictModeKeepsEveryConcurrentFailureUnderThreeSolvers) {
  // Items 2, 3 and 4 are held in the solve hook until all three are in
  // flight on the three solvers, then all throw: the batch error names
  // the first one recorded and keeps every failing index.
  const unsigned m = 5;
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 24, 0x57E14);
  std::atomic<int> arrived{0};
  StreamEngine::Options options;
  options.threads = 4;
  options.solve_hook = [&](std::size_t i) {
    if (i < 2 || i > 4) return;
    arrived.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < 3 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    throw std::runtime_error("solve fault");
  };
  const StreamEngine engine(plan, options);
  try {
    (void)engine.run(pool);
    FAIL() << "failing solves must throw";
  } catch (const batch_route_error& e) {
    const std::set<std::size_t> got(e.failed_indices().begin(), e.failed_indices().end());
    EXPECT_EQ(got, (std::set<std::size_t>{2, 3, 4}));
    EXPECT_EQ(e.failed_indices().size(), 3U);
    EXPECT_EQ(e.index(), e.failed_indices().front());
    EXPECT_EQ(e.additional_failures(), 2U);
  }
}

TEST(BatchRouteError, RecordsAdditionalFailedWorkers) {
  // Direct contract of the extended exception: explicit index list, and
  // the single-index default.
  const auto cause = std::make_exception_ptr(std::runtime_error("boom"));
  const batch_route_error multi(3, cause, "3 of 12 threw (+2 more worker failures)",
                                {3, 7, 9});
  EXPECT_EQ(multi.index(), 3U);
  EXPECT_EQ(multi.failed_indices(), (std::vector<std::size_t>{3, 7, 9}));
  EXPECT_EQ(multi.additional_failures(), 2U);

  const batch_route_error single(5, cause, "5 threw");
  EXPECT_EQ(single.failed_indices(), (std::vector<std::size_t>{5}));
  EXPECT_EQ(single.additional_failures(), 0U);
}

TEST(CompiledBnb, RouteBatchReportsEveryObservedWorkerFailure) {
  // Two poisoned items across a threaded batch: the pool throws once, the
  // winning index is one of the bad ones, and every retained index is bad.
  const unsigned m = 5;
  const CompiledBnb plan(m);
  Rng rng(0x57E0A);
  std::vector<Permutation> pool;
  for (int i = 0; i < 16; ++i) pool.push_back(random_perm(32, rng));
  pool[3] = identity_perm(8);
  pool[9] = identity_perm(8);

  try {
    (void)plan.route_batch(pool, /*threads=*/2);
    FAIL() << "wrong-size permutations must throw";
  } catch (const batch_route_error& e) {
    EXPECT_TRUE(e.index() == 3U || e.index() == 9U);
    ASSERT_FALSE(e.failed_indices().empty());
    EXPECT_EQ(e.failed_indices().front(), e.index());
    EXPECT_EQ(e.additional_failures(), e.failed_indices().size() - 1);
    for (const std::size_t idx : e.failed_indices()) {
      EXPECT_TRUE(idx == 3U || idx == 9U) << "a healthy index was blamed";
    }
  }
}

// ---- admission control --------------------------------------------------

TEST(StreamEngine, StrictAdmissionRefusesTheWholeStream) {
  const unsigned m = 4;
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 8, 0x57E0B);

  for (const unsigned threads : {1U, 2U, 4U}) {
    StreamEngine::Options options;
    options.threads = threads;
    options.admission_limit = 5;
    StreamEngine engine(plan, options);
    try {
      (void)engine.run(pool);
      FAIL() << "overflow must shed loudly (threads=" << threads << ")";
    } catch (const stream_overload_error& e) {
      EXPECT_EQ(e.limit(), 5U);
      EXPECT_EQ(e.offered(), 8U);
    }
    // A stream within the limit is untouched by admission control.
    const auto ok = engine.run(std::span<const Permutation>(pool).first(5));
    EXPECT_EQ(ok.stats.permutations, 5U);
    EXPECT_EQ(ok.stats.shed, 0U);
  }
}

TEST(StreamEngine, IsolatingAdmissionShedsTheTail) {
  // With isolation on, overload degrades instead of refusing: the prefix
  // routes, the tail is marked kShed with zeroed dest rows.
  const unsigned m = 4;
  const std::size_t n = 16;
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 8, 0x57E0C);

  for (const unsigned threads : {1U, 2U, 4U}) {
    StreamEngine::Options options;
    options.threads = threads;
    options.admission_limit = 5;
    options.isolate_errors = true;
    StreamEngine engine(plan, options);
    const auto result = engine.run(pool);
    ASSERT_EQ(result.status.size(), 8U);
    ASSERT_EQ(result.dest.size(), 8U * n);
    EXPECT_EQ(result.stats.permutations, 8U);
    EXPECT_EQ(result.stats.shed, 3U);
    for (std::size_t i = 0; i < 8; ++i) {
      if (i < 5) {
        EXPECT_EQ(result.status[i], StreamItemStatus::kOk);
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(result.dest[i * n + j], pool[i](j));
        }
      } else {
        EXPECT_EQ(result.status[i], StreamItemStatus::kShed);
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_EQ(result.dest[i * n + j], 0U);
        }
      }
    }
  }
}

// ---- watchdog -----------------------------------------------------------

TEST(StreamEngine, WatchdogFailsAStalledSolverInsteadOfHanging) {
  // A solver stuck in user code past the timeout: the applier declares the
  // stream stalled and run() throws stream_stall_error — a diagnostic,
  // not a hang.  (The stuck hook here is finite so the join completes.)
  // With three solvers the healthy two run ahead, then wait behind the
  // stuck item with the applier, and the watchdog fires all the same.
  const unsigned m = 4;
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 24, 0x57E0D);

  for (const unsigned threads : {2U, 4U}) {
    StreamEngine::Options options;
    options.threads = threads;
    options.watchdog_timeout_ms = 100;
    options.solve_hook = [](std::size_t i) {
      if (i == 2) std::this_thread::sleep_for(std::chrono::milliseconds(500));
    };
    StreamEngine engine(plan, options);
    try {
      (void)engine.run(pool);
      FAIL() << "a stalled solver must fail the stream (threads=" << threads << ")";
    } catch (const stream_stall_error& e) {
      EXPECT_EQ(e.total(), pool.size());
      EXPECT_LE(e.applied(), 2U) << "the applier cannot pass the stalled item";
      EXPECT_LT(e.solved(), pool.size());
    }
  }
}

TEST(StreamEngine, WatchdogStaysQuietOnAHealthyStream) {
  const unsigned m = 5;
  const auto pool = random_pool(m, 48, 0x57E0E);
  StreamEngine::Options options;
  options.threads = 2;
  options.watchdog_timeout_ms = 5000;
  expect_matches_route_batch(m, pool, options);
}

// ---- cancellation / destruction -----------------------------------------

TEST(StreamEngine, CancelStopsAnInFlightRun) {
  const unsigned m = 4;
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 64, 0x57E0F);

  for (const unsigned threads : {1U, 2U, 4U}) {
    StreamEngine::Options options;
    options.threads = threads;
    std::atomic<bool> started{false};
    options.solve_hook = [&](std::size_t) {
      started.store(true, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    };
    StreamEngine engine(plan, options);

    std::atomic<bool> cancelled_seen{false};
    std::thread runner([&] {
      try {
        (void)engine.run(pool);
      } catch (const stream_cancelled_error&) {
        cancelled_seen.store(true, std::memory_order_release);
      }
    });
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
    engine.cancel();
    runner.join();
    EXPECT_TRUE(cancelled_seen.load()) << "threads=" << threads;
    EXPECT_TRUE(engine.cancelled());
    // cancel() is sticky: later runs are refused immediately.
    EXPECT_THROW((void)engine.run(pool), stream_cancelled_error);
  }
}

TEST(StreamEngine, DestructorDuringStreamCancelsAndJoins) {
  // Destroying the engine mid-stream must cancel the run and block until
  // it has fully exited — never leaving a worker touching freed state.
  // This is the tsan target for the drain path.
  const unsigned m = 4;
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 64, 0x57E10);

  for (const unsigned threads : {1U, 2U, 4U}) {
    StreamEngine::Options options;
    options.threads = threads;
    std::atomic<bool> started{false};
    options.solve_hook = [&](std::size_t) {
      started.store(true, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    };
    auto engine = std::make_unique<StreamEngine>(plan, options);

    std::atomic<bool> cancelled_seen{false};
    std::thread runner([&] {
      try {
        (void)engine->run(pool);
      } catch (const stream_cancelled_error&) {
        cancelled_seen.store(true, std::memory_order_release);
      }
    });
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
    engine.reset();  // cancels, then blocks until the run has exited
    runner.join();
    EXPECT_TRUE(cancelled_seen.load()) << "threads=" << threads;
  }
}

TEST(StreamEngine, PipelinedItemsShareOneTraceAcrossTheHandoff) {
#if !BNB_OBS_COMPILED
  GTEST_SKIP() << "BNB_OBS_OFF: spans and trace ids are compiled out";
#else
  // The acceptance shape of the causal-tracing work: every pipelined
  // stream item must retire a solve, a queue-wait, and an apply span under
  // ONE trace id, parented to the run's trace, with the solve and apply on
  // different threads (the id rode the ring, not thread-local state) —
  // with one solver and with three.
  const unsigned m = 12;  // general lane: solves go through kSolve spans
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 12, 0x57E0C);
  for (const unsigned threads : {2U, 4U}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);

    obs::set_enabled(true);
    obs::SpanTrace trace(4096);
    obs::set_trace(&trace);
    StreamEngine::Options options;
    options.threads = threads;
    options.ring_depth = 4;
    const StreamEngine engine(plan, options);
    const auto result = engine.run(pool);
    obs::set_trace(nullptr);
    EXPECT_TRUE(result.stats.all_self_routed);

    const auto spans = trace.snapshot();
    EXPECT_EQ(trace.dropped(), 0u);

    // The run span carries the root trace id every item is parented to.
    std::uint64_t run_id = 0;
    for (const auto& span : spans) {
      if (span.phase == obs::Phase::kStreamRun) run_id = span.trace_id;
    }
    ASSERT_NE(run_id, 0u);

    struct PerItem {
      int solves = 0;
      int waits = 0;
      int applies = 0;
      std::uint32_t solve_tid = 0;
      std::uint32_t apply_tid = 0;
    };
    std::map<std::uint64_t, PerItem> items;
    for (const auto& span : spans) {
      if (span.trace_id == 0 || span.trace_id == run_id) continue;
      EXPECT_EQ(span.parent_id, run_id) << "item spans parent to the run";
      PerItem& item = items[span.trace_id];
      switch (span.phase) {
        case obs::Phase::kSolve:
          ++item.solves;
          item.solve_tid = span.thread_id;
          break;
        case obs::Phase::kQueueWait:
          ++item.waits;
          break;
        case obs::Phase::kApply:
          ++item.applies;
          item.apply_tid = span.thread_id;
          break;
        default:
          break;
      }
    }
    ASSERT_EQ(items.size(), pool.size());
    for (const auto& [trace_id, item] : items) {
      EXPECT_EQ(item.solves, 1) << "trace " << trace_id;
      EXPECT_EQ(item.waits, 1) << "trace " << trace_id;
      EXPECT_EQ(item.applies, 1) << "trace " << trace_id;
      EXPECT_NE(item.solve_tid, item.apply_tid)
          << "solve and apply must land on different threads";
    }
    // The queue-wait histogram saw every item.
    EXPECT_GE(obs::phase_histogram(obs::Phase::kQueueWait).total_count(), pool.size());
  }
#endif
}

TEST(StreamEngine, InlineItemsGetPerItemTracesWithoutQueueWaits) {
#if !BNB_OBS_COMPILED
  GTEST_SKIP() << "BNB_OBS_OFF: spans and trace ids are compiled out";
#else
  const unsigned m = 4;
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 6, 0x57E0D);
  obs::set_enabled(true);
  obs::SpanTrace trace(1024);
  obs::set_trace(&trace);
  StreamEngine::Options options;
  options.threads = 1;
  const StreamEngine engine(plan, options);
  (void)engine.run(pool);
  obs::set_trace(nullptr);

  std::uint64_t run_id = 0;
  std::set<std::uint64_t> item_ids;
  bool saw_queue_wait = false;
  for (const auto& span : trace.snapshot()) {
    if (span.phase == obs::Phase::kStreamRun) run_id = span.trace_id;
    if (span.phase == obs::Phase::kQueueWait) saw_queue_wait = true;
    if (span.trace_id != 0 && span.phase == obs::Phase::kSmallApply) {
      item_ids.insert(span.trace_id);
    }
  }
  ASSERT_NE(run_id, 0u);
  // m=4 streams take the small lane: one apply_small span per item, each
  // under its own child trace.  No ring, no queue-wait pseudo-spans.
  EXPECT_EQ(item_ids.size(), pool.size());
  EXPECT_FALSE(saw_queue_wait);
#endif
}

TEST(StreamEngine, SharedCacheAcrossEnginesAndRuns) {
  // Two engines (inline and pipelined) over one cache: whichever runs
  // first fills it, the other streams pure hits — and the outputs agree.
  const unsigned m = 7;
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 10, 0x57E07);
  const BatchResult want = plan.route_batch(pool);

  ScheduleCache cache(32);
  StreamEngine first(plan, {.threads = 2, .cache = &cache});
  StreamEngine second(plan, {.threads = 1, .cache = &cache});

  const auto cold = first.run(pool);
  const auto warm = second.run(pool);
  EXPECT_EQ(cold.dest, want.dest);
  EXPECT_EQ(warm.dest, want.dest);
  EXPECT_EQ(warm.stats.cache_hits, pool.size());
  EXPECT_EQ(cache.stats().entries, pool.size());
}

}  // namespace
