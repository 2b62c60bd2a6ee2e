// Machine-readable routing-engine benchmark: seed behavioral router vs the
// compiled flat engine (single thread, m in {8,10,12,14}), per-kernel-tier
// microbenchmarks of the compiled engine at m = 12, batch scaling of
// CompiledBnb::route_batch at m = 14 across worker-thread counts, the
// ScheduleCache cold-vs-warm economics (repeated traffic replays a solved
// schedule instead of re-running the arbiter trees), the contended-cache
// interior (1/2/4/8 reader threads hammering a hot working set with
// precomputed digests: flat seqlock replay vs the PR 4 sharded
// mutex+LRU+shared_ptr baseline, plus probe-length stats), the
// register-resident small-N lane (m in {4,5,6}: SmallReplay::apply /
// apply8 replay vs the general warm-cache path at the same size),
// StreamEngine throughput (inline vs solver/applier-pipelined, with and
// without a warm cache), and the telemetry overhead of the obs spans (each
// m=12 phase timed with spans runtime-enabled vs runtime-disabled).
// Results are written as JSON (schema "bnb.bench_routing.v6") so the
// checked-in BENCH_routing.json can be regenerated and diffed; see
// docs/PERF.md for the schema and EXPERIMENTS.md for regeneration
// instructions.
//
// The batch section only times thread counts the host can actually run in
// parallel (threads <= hardware_threads) — except threads=2, which is
// always timed so the checked-in file keeps a scaling curve even when
// generated on a 1-core container; --force-threads times the full ladder.
// Rows beyond the core count carry "oversubscribed": true so a reader
// never mistakes a contended number for a scaling number.
//
// Usage: bench_engine [--quick] [--force-threads] [output.json]
//        (default output: BENCH_routing.json; --quick shortens the timing
//        budget for CI)
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/bnb_network.hpp"
#include "core/compiled_bnb.hpp"
#include "core/kernels/kernel_set.hpp"
#include "core/schedule_cache.hpp"
#include "fabric/stream_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "perm/generators.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Time `fn` (one call = one routed permutation) until the measured run is
/// at least `min_seconds` long; returns nanoseconds per call.
template <typename F>
double ns_per_call(F&& fn, double min_seconds) {
  fn();  // warm-up (first-touch, scratch prepare)
  std::size_t iters = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double sec = seconds_since(t0);
    if (sec >= min_seconds) return sec * 1e9 / static_cast<double>(iters);
    const double grow = sec > 0 ? min_seconds / sec * 1.3 : 16.0;
    iters = static_cast<std::size_t>(static_cast<double>(iters) * grow) + 1;
  }
}

std::vector<bnb::Permutation> perm_pool(std::size_t n, std::size_t count,
                                        bnb::Rng& rng) {
  std::vector<bnb::Permutation> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) pool.push_back(bnb::random_perm(n, rng));
  return pool;
}

struct SingleRow {
  unsigned m = 0;
  double seed_ns = 0;
  double compiled_ns = 0;
};

struct TierRow {
  const bnb::kernels::KernelSet* set = nullptr;
  double ns_per_perm = 0;
};

struct BatchRow {
  unsigned threads = 0;
  double ns_per_perm = 0;
  bool oversubscribed = false;
};

struct StreamRow {
  unsigned threads = 0;
  bool pipelined = false;
  bool cached = false;
  bool oversubscribed = false;
  double ns_per_perm = 0;
};

struct ObsRow {
  const char* phase = nullptr;
  double enabled_ns = 0;   ///< spans live (histogram record per phase)
  double disabled_ns = 0;  ///< runtime-disabled (one relaxed load left)
};

struct ContendedRow {
  unsigned threads = 0;
  double old_hit_ns = 0;  ///< PR 4 mutex+LRU baseline: find + apply per op
  double new_hit_ns = 0;  ///< flat seqlock replay() per op
  bool oversubscribed = false;
};

/// The PR 4 cache interior, reconstructed as a measurement baseline: one
/// mutex per shard, a 128-bit-digest-keyed unordered_map, an LRU list
/// spliced on every hit, shared_ptr schedule hand-off, and a hit counter —
/// each detail matches the pre-flat production hit path (including the fat
/// list node that carried a small-lane slot inline).  The production
/// ScheduleCache no longer works this way — this keeps "old vs new hit ns"
/// measurable forever.
class LegacyShardedCache {
 public:
  LegacyShardedCache(std::size_t capacity, std::size_t shards)
      : shard_capacity_((capacity + shards - 1) / shards), shards_(shards) {}

  [[nodiscard]] std::shared_ptr<const bnb::ControlSchedule> find(
      const bnb::PermutationDigest& digest) {
    Shard& shard = shard_for(digest);
    std::scoped_lock lock(shard.mu);
    const auto it = shard.index.find(digest);
    if (it == shard.index.end() || it->second->schedule == nullptr) return nullptr;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // promote to MRU
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->schedule;
  }

  void insert(const bnb::PermutationDigest& digest,
              std::shared_ptr<const bnb::ControlSchedule> schedule) {
    Shard& shard = shard_for(digest);
    std::scoped_lock lock(shard.mu);
    while (shard.lru.size() >= shard_capacity_) {
      shard.index.erase(shard.lru.back().digest);
      shard.lru.pop_back();
    }
    shard.lru.push_front(Entry{digest, std::move(schedule), {}});
    shard.index.emplace(shard.lru.front().digest, shard.lru.begin());
  }

 private:
  // 128->64 bit key fold, exactly the PR 4 DigestHash.
  struct DigestHash {
    std::size_t operator()(const bnb::PermutationDigest& d) const noexcept {
      return static_cast<std::size_t>(d.lo ^ (d.hi * 0x9E3779B97F4A7C15ULL));
    }
  };
  struct Entry {
    bnb::PermutationDigest digest;
    std::shared_ptr<const bnb::ControlSchedule> schedule;
    /// The ~0.2 KB small-lane slot the node carried inline (a 184-byte
    /// flattened schedule at the time), kept so the node stays that fat.
    std::array<std::uint64_t, 23> small;
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;
    std::unordered_map<bnb::PermutationDigest, std::list<Entry>::iterator, DigestHash>
        index;
  };
  Shard& shard_for(const bnb::PermutationDigest& d) noexcept {
    return shards_[d.hi % shards_.size()];
  }
  std::size_t shard_capacity_;
  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> hits_{0};
};

struct SmallRow {
  unsigned m = 0;
  double general_warm_ns = 0;  ///< digest + general-lane find + apply (pre-lane warm path)
  double small_route_ns = 0;   ///< full cache.route through the small lane
  double apply_ns = 0;         ///< raw SmallReplay::apply register replay
  double apply8_ns = 0;        ///< apply8 per permutation (one 8-lane call / 8)
};

/// Data sink so the optimizer cannot delete the register-only replay loops.
volatile std::uint64_t g_small_sink = 0;

}  // namespace

int main(int argc, char** argv) {
  double budget = 0.25;  // seconds of measurement per timed quantity
  bool force_threads = false;
  std::string out_path = "BENCH_routing.json";
  constexpr const char* kUsage = "usage: bench_engine [--quick] [--force-threads] [output.json]\n";
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--quick") == 0) {
      budget = 0.02;
    } else if (std::strcmp(argv[a], "--force-threads") == 0) {
      force_threads = true;
    } else if (std::strcmp(argv[a], "--help") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (argv[a][0] == '-') {
      // An unknown option is never an output path: refuse it before any
      // timing runs or any file is written.
      std::fprintf(stderr, "bench_engine: unknown option '%s'\n%s", argv[a], kUsage);
      return 2;
    } else {
      out_path = argv[a];
    }
  }

  bnb::Rng rng(0xB16B00);
  const unsigned hardware_threads =
      std::max(1U, std::thread::hardware_concurrency());
  const bnb::kernels::KernelSet& selected = bnb::kernels::active_kernels();
  std::printf("kernel dispatch: %s\n", selected.name);

  // Per-kernel-tier microbenchmark at a fixed mid size: one plan per
  // supported tier, identical permutation pool, so the rows isolate the
  // kernel implementation (the scalar row is the portable baseline).
  const unsigned tier_m = 12;
  std::vector<TierRow> tiers;
  {
    const auto pool = perm_pool(std::size_t{1} << tier_m, 8, rng);
    for (const bnb::kernels::KernelSet* set : bnb::kernels::supported_kernel_sets()) {
      const bnb::CompiledBnb plan(tier_m, set);
      bnb::RouteScratch scratch;
      scratch.prepare(plan);
      std::size_t i = 0;
      const double ns = ns_per_call(
          [&] {
            const auto r = plan.route(pool[i++ & 7], scratch);
            if (!r.self_routed) std::exit(1);
          },
          budget);
      tiers.push_back({set, ns});
      std::printf("kernels m=%u %-7s %9.0f ns/perm  vs scalar %5.2fx\n", tier_m,
                  set->name, ns, tiers.front().ns_per_perm / ns);
    }
  }

  std::vector<SingleRow> single;
  for (const unsigned m : {8U, 10U, 12U, 14U}) {
    const std::size_t n = std::size_t{1} << m;
    const bnb::BnbNetwork seed(m);
    const bnb::CompiledBnb engine(m);
    bnb::RouteScratch scratch;
    scratch.prepare(engine);
    const auto pool = perm_pool(n, 8, rng);

    std::size_t i_seed = 0;
    const double seed_ns = ns_per_call(
        [&] {
          const auto r = seed.route(pool[i_seed++ & 7]);
          if (!r.self_routed) std::exit(1);
        },
        budget);
    std::size_t i_fast = 0;
    const double compiled_ns = ns_per_call(
        [&] {
          const auto r = engine.route(pool[i_fast++ & 7], scratch);
          if (!r.self_routed) std::exit(1);
        },
        budget);
    single.push_back({m, seed_ns, compiled_ns});
    std::printf("m=%2u N=%6zu  seed %10.0f ns/perm  compiled %9.0f ns/perm  speedup %5.2fx\n",
                m, n, seed_ns, compiled_ns, seed_ns / compiled_ns);
  }

  // Batch throughput at the largest size: one route_batch call per timing
  // sample so thread spawn/join cost is included (the honest steady-state
  // number for callers streaming batches of this size).
  const unsigned batch_m = 14;
  const std::size_t batch_perms = 64;
  const bnb::CompiledBnb engine(batch_m);
  const auto batch_pool = perm_pool(std::size_t{1} << batch_m, batch_perms, rng);
  std::vector<BatchRow> batch;
  for (const unsigned threads : {1U, 2U, 4U, 8U}) {
    const bool oversubscribed = threads > hardware_threads;
    // threads=2 is always timed (oversubscribed or not): the checked-in
    // JSON must keep a scaling curve even when generated on a 1-core host.
    if (oversubscribed && !force_threads && threads != 2) {
      std::printf("batch m=%u threads=%u  skipped (host has %u hardware threads; "
                  "--force-threads to time anyway)\n",
                  batch_m, threads, hardware_threads);
      continue;
    }
    const double ns = ns_per_call(
                          [&] {
                            const auto r = engine.route_batch(batch_pool, threads);
                            if (!r.all_self_routed) std::exit(1);
                          },
                          budget) /
                      static_cast<double>(batch_perms);
    batch.push_back({threads, ns, oversubscribed});
    const double scaling = batch.front().ns_per_perm / ns;
    std::printf("batch m=%u threads=%u  %9.0f ns/perm  scaling %5.2fx%s\n", batch_m,
                threads, ns, scaling, oversubscribed ? "  (oversubscribed)" : "");
    // Scaling regression gate: a multi-thread row the host can genuinely
    // run in parallel must not come out SLOWER than single-thread.  An
    // oversubscribed row is a contention measurement, not a scaling
    // measurement, so the gate deliberately does not apply there (see
    // docs/PERF.md on the `oversubscribed` flag).
    if (!oversubscribed && threads > 1 && scaling < 0.9) {
      std::fprintf(stderr, "batch m=%u threads=%u scaling regression: %.2fx < 0.9x\n",
                   batch_m, threads, scaling);
      return 1;
    }
  }

  // Schedule-cache economics at the tier benchmark size: cold = a fresh
  // solve+apply per call (what any unseen permutation costs), warm = the
  // all-hit replay of a pre-filled cache.  The ratio is the payoff for
  // repeated traffic on the selected tier.
  const unsigned cache_m = 12;
  const std::size_t cache_pool_size = 8;
  const std::size_t cache_capacity = 64;
  double cache_cold_ns = 0;
  double cache_warm_ns = 0;
  bnb::ScheduleCacheStats cache_stats;
  {
    const bnb::CompiledBnb plan(cache_m);
    bnb::RouteScratch scratch;
    scratch.prepare(plan);
    const auto pool = perm_pool(std::size_t{1} << cache_m, cache_pool_size, rng);

    bnb::ControlSchedule schedule;
    std::size_t i_cold = 0;
    cache_cold_ns = ns_per_call(
        [&] {
          const auto& pi = pool[i_cold++ & (cache_pool_size - 1)];
          plan.solve(pi, scratch, schedule);
          const auto r = plan.apply(schedule, pi, scratch);
          if (!r.self_routed) std::exit(1);
        },
        budget);

    bnb::ScheduleCache cache(cache_capacity);
    for (const auto& pi : pool) (void)cache.route(plan, pi, scratch);
    std::size_t i_warm = 0;
    cache_warm_ns = ns_per_call(
        [&] {
          const auto r =
              cache.route(plan, pool[i_warm++ & (cache_pool_size - 1)], scratch);
          if (!r.self_routed) std::exit(1);
        },
        budget);
    cache_stats = cache.stats();
    std::printf("cache m=%u cold %9.0f ns/perm  warm %9.0f ns/perm  speedup %5.2fx  "
                "(hits=%llu misses=%llu)\n",
                cache_m, cache_cold_ns, cache_warm_ns, cache_cold_ns / cache_warm_ns,
                static_cast<unsigned long long>(cache_stats.hits),
                static_cast<unsigned long long>(cache_stats.misses));
  }

  // Contended cache interior: reader threads hammering a hot working set
  // with PRECOMPUTED digests, so the measurement isolates probe + validate
  // + replay from the input hash.  m=7 is the smallest general-lane size —
  // the interior is the largest possible fraction of a hit there.  "old"
  // is the PR 4 sharded mutex+LRU+shared_ptr interior, reconstructed above
  // as LegacyShardedCache so old-vs-new stays measurable now that the
  // production cache is the flat seqlock table.
  const unsigned cont_m = 7;
  const std::size_t cont_pool_size = 8;
  std::vector<ContendedRow> contended;
  double cont_probe_avg = 0;
  std::uint64_t cont_probe_max = 0;
  {
    const bnb::CompiledBnb plan(cont_m);
    bnb::RouteScratch scratch;
    scratch.prepare(plan);
    const auto pool = perm_pool(std::size_t{1} << cont_m, cont_pool_size, rng);
    std::vector<bnb::PermutationDigest> digests;
    digests.reserve(pool.size());
    for (const auto& pi : pool) digests.push_back(bnb::digest_permutation(pi));

    bnb::obs::MetricsRegistry cont_registry;  // private: isolated probe stats
    bnb::ScheduleCache flat(64, 8, &cont_registry);
    for (const auto& pi : pool) (void)flat.route(plan, pi, scratch);

    LegacyShardedCache legacy(64, 8);
    {
      bnb::ControlSchedule solved;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        plan.solve(pool[i], scratch, solved);
        legacy.insert(digests[i], std::make_shared<bnb::ControlSchedule>(solved));
      }
    }

    const auto new_op = [&](bnb::RouteScratch& s, std::size_t i) {
      const std::size_t k = i & (cont_pool_size - 1);
      bnb::CompiledBnb::Output out{};
      if (!flat.replay(plan, digests[k], pool[k], s, out) || !out.self_routed) {
        std::exit(1);
      }
    };
    const auto old_op = [&](bnb::RouteScratch& s, std::size_t i) {
      const std::size_t k = i & (cont_pool_size - 1);
      const auto schedule = legacy.find(digests[k]);
      if (schedule == nullptr || schedule->m() != plan.m()) std::exit(1);
      const auto r = plan.apply(*schedule, pool[k], s);
      if (!r.self_routed) std::exit(1);
    };

    // Wall-time `threads` workers running `iters` ops each behind a
    // start-line barrier; per-op ns is what ONE thread experiences
    // (wall / iters) — the latency contention degrades.  Each row is the
    // minimum over a few trials: on a shared/1-core host a single trial
    // absorbs scheduler preemption that has nothing to do with the cache.
    const auto hammer = [&](unsigned threads, std::size_t iters, auto&& op) {
      double best = 0;
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<std::thread> workers;
        workers.reserve(threads);
        std::atomic<unsigned> ready{0};
        std::atomic<bool> go{false};
        const auto body = [&] {
          bnb::RouteScratch local;
          local.prepare(plan);
          op(local, 0);  // warm the scratch before the clock starts
          ready.fetch_add(1, std::memory_order_acq_rel);
          while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
          for (std::size_t i = 0; i < iters; ++i) op(local, i);
        };
        for (unsigned t = 0; t < threads; ++t) workers.emplace_back(body);
        while (ready.load(std::memory_order_acquire) != threads) {
          std::this_thread::yield();
        }
        const auto t0 = Clock::now();
        go.store(true, std::memory_order_release);
        for (auto& w : workers) w.join();
        const double ns = seconds_since(t0) * 1e9 / static_cast<double>(iters);
        if (trial == 0 || ns < best) best = ns;
      }
      return best;
    };

    // Calibrate the per-thread iteration count once, single-threaded, on
    // the slower (legacy) op so every row runs long enough to time.
    std::size_t iters = 512;
    {
      bnb::RouteScratch cal;
      cal.prepare(plan);
      old_op(cal, 0);
      for (;;) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < iters; ++i) old_op(cal, i);
        const double sec = seconds_since(t0);
        if (sec >= budget / 8) break;
        iters = static_cast<std::size_t>(static_cast<double>(iters) *
                                         (sec > 0 ? budget / 8 / sec * 1.3 : 16.0)) +
                1;
      }
    }

    for (const unsigned threads : {1U, 2U, 4U, 8U}) {
      ContendedRow row;
      row.threads = threads;
      row.oversubscribed = threads > hardware_threads;
      row.old_hit_ns = hammer(threads, iters, old_op);
      row.new_hit_ns = hammer(threads, iters, new_op);
      contended.push_back(row);
      std::printf("contended m=%u threads=%u  old %8.1f ns/hit  new %8.1f ns/hit  "
                  "speedup %5.2fx%s\n",
                  cont_m, threads, row.old_hit_ns, row.new_hit_ns,
                  row.old_hit_ns / row.new_hit_ns,
                  row.oversubscribed ? "  (oversubscribed)" : "");
    }

    const auto snap = cont_registry.snapshot();
    if (const auto* probe = snap.find("bnb_cache_probe_len");
        probe != nullptr && probe->histogram.count > 0) {
      cont_probe_avg = static_cast<double>(probe->histogram.sum) /
                       static_cast<double>(probe->histogram.count);
      for (std::size_t b = 0; b < probe->histogram.buckets.size(); ++b) {
        if (probe->histogram.buckets[b] != 0) {
          cont_probe_max = bnb::obs::Histogram::upper_bound(b);
        }
      }
      std::printf("contended m=%u probe length avg %.2f  max bucket <= %llu\n", cont_m,
                  cont_probe_avg, static_cast<unsigned long long>(cont_probe_max));
    }
  }

  // Register-resident small-N lane: at each m <= 6 size, the warm general
  // path (digest + general-lane find + schedule apply — exactly what
  // repeated small traffic cost before the lane existed) vs the full
  // small-lane cache.route, the raw SmallReplay::apply replay (a chained
  // data dependency so each call really waits for the last), and apply8
  // through the selected tier's 8-wide kernel.
  std::vector<SmallRow> small_rows;
  for (const unsigned m : {4U, 5U, 6U}) {
    const std::size_t n = std::size_t{1} << m;
    const bnb::CompiledBnb plan(m);
    bnb::RouteScratch scratch;
    scratch.prepare(plan);
    const auto pool = perm_pool(n, 8, rng);
    SmallRow row;
    row.m = m;

    // Pre-lane warm path: general-lane entries only (route() would take
    // the small lane now, so the fill goes through insert() by hand).
    bnb::ScheduleCache general_cache(64);
    {
      bnb::ControlSchedule solved;
      for (const auto& pi : pool) {
        plan.solve(pi, scratch, solved);
        general_cache.insert(bnb::digest_permutation(pi), solved);
      }
    }
    std::size_t i_gen = 0;
    bnb::ControlSchedule fetched;
    row.general_warm_ns = ns_per_call(
        [&] {
          const auto& pi = pool[i_gen++ & 7];
          if (!general_cache.find(bnb::digest_permutation(pi), fetched)) std::exit(1);
          const auto r = plan.apply(fetched, pi, scratch);
          if (!r.self_routed) std::exit(1);
        },
        budget);

    bnb::ScheduleCache small_cache(64);
    for (const auto& pi : pool) (void)small_cache.route(plan, pi, scratch);
    std::size_t i_small = 0;
    row.small_route_ns = ns_per_call(
        [&] {
          const auto r = small_cache.route(plan, pool[i_small++ & 7], scratch);
          if (!r.self_routed) std::exit(1);
        },
        budget);

    bnb::SmallReplay scheds[8];
    for (std::size_t j = 0; j < 8; ++j) {
      scheds[j] = plan.flatten_small(plan.compile_small(pool[j], scratch));
    }
    // Throughput, not latency: each call's input derives from the loop
    // counter alone, so successive replays overlap in the out-of-order
    // window exactly as independent permutations would; the XOR
    // accumulator keeps the work observable.
    std::uint64_t acc = 0;
    const std::uint64_t apply_seed = rng.next();
    std::size_t i_apply = 0;
    row.apply_ns = ns_per_call(
        [&] {
          acc ^= scheds[i_apply & 7].apply(apply_seed + i_apply);
          ++i_apply;
        },
        budget);
    std::uint64_t lanes[8];
    for (std::uint64_t& lane : lanes) lane = rng.next();
    std::size_t i_wide = 0;
    row.apply8_ns =
        ns_per_call([&] { scheds[i_wide++ & 7].apply8(lanes); }, budget) / 8.0;
    g_small_sink = g_small_sink ^ acc ^ lanes[0];

    small_rows.push_back(row);
    std::printf("small m=%u general warm %8.1f ns/perm  small route %8.1f ns/perm  "
                "apply %6.2f ns/perm (%5.1fx)  apply8 %6.2f ns/perm (%4.2fx)\n",
                m, row.general_warm_ns, row.small_route_ns, row.apply_ns,
                row.general_warm_ns / row.apply_ns, row.apply8_ns,
                row.apply_ns / row.apply8_ns);
  }

  // Stream throughput: the same 64-permutation stream through every
  // StreamEngine shape.  Cached rows time the warm steady state (the
  // engine's first run fills the shared cache).
  const unsigned stream_m = 12;
  const std::size_t stream_perms = 64;
  std::vector<StreamRow> stream;
  {
    const bnb::CompiledBnb plan(stream_m);
    const auto pool = perm_pool(std::size_t{1} << stream_m, stream_perms, rng);
    for (const bool cached : {false, true}) {
      for (const unsigned threads : {1U, 2U}) {
        bnb::ScheduleCache cache(128);
        bnb::StreamEngine::Options options;
        options.threads = threads;
        options.cache = cached ? &cache : nullptr;
        const bnb::StreamEngine stream_engine(plan, options);
        const double ns = ns_per_call(
                              [&] {
                                const auto r = stream_engine.run(pool);
                                if (!r.stats.all_self_routed) std::exit(1);
                              },
                              budget) /
                          static_cast<double>(stream_perms);
        const bool oversubscribed = threads > hardware_threads;
        stream.push_back({threads, threads >= 2, cached, oversubscribed, ns});
        std::printf("stream m=%u threads=%u %-9s %-6s %9.0f ns/perm  %12.3f perms/sec%s\n",
                    stream_m, threads, threads >= 2 ? "pipelined" : "inline",
                    cached ? "cached" : "cold", ns, 1e9 / ns,
                    oversubscribed ? "  (oversubscribed)" : "");
      }
    }
  }

  // Telemetry overhead: identical m=12 phase work timed with the spans
  // runtime-enabled (two clock reads + a lock-free histogram record per
  // phase) vs runtime-disabled (one relaxed atomic load).  The acceptance
  // bar is <3% on route and warm apply; clock reads are ~tens of ns
  // against routes in the hundreds of microseconds, so measured deltas sit
  // inside timing noise (small negative percentages are noise, not gain).
  const unsigned obs_m = 12;
  std::vector<ObsRow> obs_rows;
  std::vector<ObsRow> tracing_rows;  // traced (sink installed) vs untraced
  {
    const bnb::CompiledBnb plan(obs_m);
    bnb::RouteScratch scratch;
    scratch.prepare(plan);
    const auto pool = perm_pool(std::size_t{1} << obs_m, 8, rng);
    bnb::ControlSchedule solve_out;
    bnb::ControlSchedule applied;  // solved once for the fixed apply perm
    plan.solve(pool[0], scratch, applied);

    const auto measure = [&](const char* phase, auto&& fn) {
      // Interleaved best-of-9: alternate disabled/enabled reps and keep
      // each mode's minimum, so slow noise (scheduler bursts, frequency
      // drift, VM steal time) lands on both modes instead of biasing
      // whichever ran second; many short windows give the min a clean shot.
      double disabled_ns = 0;
      double enabled_ns = 0;
      for (int rep = 0; rep < 9; ++rep) {
        bnb::obs::set_enabled(false);
        const double off = ns_per_call(fn, budget / 8);
        bnb::obs::set_enabled(true);
        const double on = ns_per_call(fn, budget / 8);
        disabled_ns = rep == 0 ? off : std::min(disabled_ns, off);
        enabled_ns = rep == 0 ? on : std::min(enabled_ns, on);
      }
      obs_rows.push_back({phase, enabled_ns, disabled_ns});
      std::printf("obs m=%u %-6s enabled %9.0f ns  disabled %9.0f ns  overhead %+6.2f%%\n",
                  obs_m, phase, enabled_ns, disabled_ns,
                  (enabled_ns - disabled_ns) / disabled_ns * 100.0);
    };
    std::size_t i_route = 0;
    measure("route", [&] {
      const auto r = plan.route(pool[i_route++ & 7], scratch);
      if (!r.self_routed) std::exit(1);
    });
    std::size_t i_solve = 0;
    measure("solve", [&] { plan.solve(pool[i_solve++ & 7], scratch, solve_out); });
    measure("apply", [&] {
      const auto r = plan.apply(applied, pool[0], scratch);
      if (!r.self_routed) std::exit(1);
    });

    // Tracing overhead (v7): the same phase work with a SpanTrace sink
    // installed vs without, spans runtime-enabled on both sides.  The
    // traced side pays the full causal-tracing path per span: a trace-id
    // allocation in the root scope, the TLS context read, and six relaxed
    // stores into the ring.  Same <3% acceptance bar as the enablement
    // rows (test_bench_schema enforces it on route, solve, and apply).
    bnb::obs::set_enabled(true);
    bnb::obs::SpanTrace sink(65536);
    const auto measure_tracing = [&](const char* phase, auto&& fn) {
      double untraced_ns = 0;
      double traced_ns = 0;
      for (int rep = 0; rep < 9; ++rep) {
        bnb::obs::set_trace(nullptr);
        const double off = ns_per_call(fn, budget / 8);
        bnb::obs::set_trace(&sink);
        const double on = ns_per_call(fn, budget / 8);
        bnb::obs::set_trace(nullptr);
        untraced_ns = rep == 0 ? off : std::min(untraced_ns, off);
        traced_ns = rep == 0 ? on : std::min(traced_ns, on);
      }
      tracing_rows.push_back({phase, traced_ns, untraced_ns});
      std::printf("obs m=%u %-6s traced  %9.0f ns  untraced %9.0f ns  overhead %+6.2f%%\n",
                  obs_m, phase, traced_ns, untraced_ns,
                  (traced_ns - untraced_ns) / untraced_ns * 100.0);
    };
    measure_tracing("route", [&] {
      const auto r = plan.route(pool[i_route++ & 7], scratch);
      if (!r.self_routed) std::exit(1);
    });
    measure_tracing("solve", [&] { plan.solve(pool[i_solve++ & 7], scratch, solve_out); });
    measure_tracing("apply", [&] {
      const auto r = plan.apply(applied, pool[0], scratch);
      if (!r.self_routed) std::exit(1);
    });
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": \"bnb.bench_routing.v7\",\n");
  std::fprintf(f, "  \"generated_by\": \"bench_engine\",\n");
  // Batch scaling is bounded by the host: on a 1-core container the
  // thread rows stay flat regardless of the pool implementation.
  std::fprintf(f, "  \"hardware_threads\": %u,\n", hardware_threads);
  std::fprintf(f, "  \"kernels\": {\n");
  std::fprintf(f, "    \"selected\": \"%s\",\n", selected.name);
  std::fprintf(f, "    \"available\": [");
  {
    bool first = true;
    for (const bnb::kernels::KernelSet* set : bnb::kernels::supported_kernel_sets()) {
      std::fprintf(f, "%s\"%s\"", first ? "" : ", ", set->name);
      first = false;
    }
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "    \"m\": %u,\n    \"tiers\": [\n", tier_m);
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const auto& row = tiers[i];
    std::fprintf(f,
                 "      {\"name\": \"%s\", "
                 "\"ns_per_perm\": %.1f, \"speedup_vs_scalar\": %.2f}%s\n",
                 row.set->name,
                 row.ns_per_perm, tiers.front().ns_per_perm / row.ns_per_perm,
                 i + 1 < tiers.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  std::fprintf(f, "  \"single_thread\": [\n");
  for (std::size_t i = 0; i < single.size(); ++i) {
    const auto& row = single[i];
    std::fprintf(f,
                 "    {\"m\": %u, \"n\": %zu, \"seed_ns_per_perm\": %.1f, "
                 "\"compiled_ns_per_perm\": %.1f, \"speedup\": %.2f}%s\n",
                 row.m, std::size_t{1} << row.m, row.seed_ns, row.compiled_ns,
                 row.seed_ns / row.compiled_ns, i + 1 < single.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"batch\": {\n    \"m\": %u,\n    \"permutations\": %zu,\n",
               batch_m, batch_perms);
  std::fprintf(f, "    \"results\": [\n");
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& row = batch[i];
    std::fprintf(f,
                 "      {\"threads\": %u, \"ns_per_perm\": %.1f, "
                 "\"perms_per_sec\": %.3f, \"scaling\": %.2f, "
                 "\"oversubscribed\": %s}%s\n",
                 row.threads, row.ns_per_perm, 1e9 / row.ns_per_perm,
                 batch.front().ns_per_perm / row.ns_per_perm,
                 row.oversubscribed ? "true" : "false",
                 i + 1 < batch.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  std::fprintf(f, "  \"cache\": {\n");
  std::fprintf(f, "    \"m\": %u,\n    \"capacity\": %zu,\n    \"pool\": %zu,\n",
               cache_m, cache_capacity, cache_pool_size);
  std::fprintf(f, "    \"cold_ns_per_perm\": %.1f,\n", cache_cold_ns);
  std::fprintf(f, "    \"warm_ns_per_perm\": %.1f,\n", cache_warm_ns);
  std::fprintf(f, "    \"warm_speedup\": %.2f,\n", cache_cold_ns / cache_warm_ns);
  std::fprintf(f, "    \"hits\": %llu,\n    \"misses\": %llu,\n",
               static_cast<unsigned long long>(cache_stats.hits),
               static_cast<unsigned long long>(cache_stats.misses));
  std::fprintf(f, "    \"evictions\": %llu,\n    \"bypasses\": %llu,\n",
               static_cast<unsigned long long>(cache_stats.evictions),
               static_cast<unsigned long long>(cache_stats.bypasses));
  // contended (v6): old = PR 4 sharded mutex+LRU+shared_ptr interior, new =
  // flat open-addressing seqlock replay; hit ns is per-thread latency under
  // 1/2/4/8 readers on a hot 8-permutation working set at m=7.
  std::fprintf(f, "    \"contended_m\": %u,\n", cont_m);
  std::fprintf(f, "    \"probe_len_avg\": %.3f,\n", cont_probe_avg);
  std::fprintf(f, "    \"probe_len_max_bucket\": %llu,\n",
               static_cast<unsigned long long>(cont_probe_max));
  std::fprintf(f, "    \"contended\": [\n");
  for (std::size_t i = 0; i < contended.size(); ++i) {
    const auto& row = contended[i];
    std::fprintf(f,
                 "      {\"threads\": %u, \"old_hit_ns\": %.1f, "
                 "\"new_hit_ns\": %.1f, \"speedup\": %.2f, "
                 "\"oversubscribed\": %s}%s\n",
                 row.threads, row.old_hit_ns, row.new_hit_ns,
                 row.old_hit_ns / row.new_hit_ns,
                 row.oversubscribed ? "true" : "false",
                 i + 1 < contended.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  // small (v5): the register-resident lane vs the general warm path at the
  // same size.  apply8 rows ran through the tier named here.
  std::fprintf(f, "  \"small\": {\n    \"pool\": 8,\n");
  std::fprintf(f, "    \"apply8_tier\": \"%s\",\n", selected.name);
  std::fprintf(f, "    \"results\": [\n");
  for (std::size_t i = 0; i < small_rows.size(); ++i) {
    const auto& row = small_rows[i];
    std::fprintf(f,
                 "      {\"m\": %u, \"n\": %zu, \"general_warm_ns_per_perm\": %.1f, "
                 "\"small_route_warm_ns_per_perm\": %.1f, \"apply_ns_per_perm\": %.3f, "
                 "\"apply8_ns_per_perm\": %.3f, \"apply_speedup_vs_general\": %.2f, "
                 "\"apply8_speedup_vs_apply\": %.2f}%s\n",
                 row.m, std::size_t{1} << row.m, row.general_warm_ns,
                 row.small_route_ns, row.apply_ns, row.apply8_ns,
                 row.general_warm_ns / row.apply_ns, row.apply_ns / row.apply8_ns,
                 i + 1 < small_rows.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  std::fprintf(f, "  \"stream\": {\n    \"m\": %u,\n    \"permutations\": %zu,\n",
               stream_m, stream_perms);
  std::fprintf(f, "    \"results\": [\n");
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto& row = stream[i];
    std::fprintf(f,
                 "      {\"threads\": %u, \"pipelined\": %s, \"cached\": %s, "
                 "\"ns_per_perm\": %.1f, \"perms_per_sec\": %.3f, "
                 "\"oversubscribed\": %s}%s\n",
                 row.threads, row.pipelined ? "true" : "false",
                 row.cached ? "true" : "false", row.ns_per_perm,
                 1e9 / row.ns_per_perm, row.oversubscribed ? "true" : "false",
                 i + 1 < stream.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  std::fprintf(f, "  \"obs\": {\n    \"m\": %u,\n    \"phases\": [\n", obs_m);
  for (std::size_t i = 0; i < obs_rows.size(); ++i) {
    const auto& row = obs_rows[i];
    std::fprintf(f,
                 "      {\"phase\": \"%s\", \"enabled_ns_per_call\": %.1f, "
                 "\"disabled_ns_per_call\": %.1f, \"overhead_pct\": %.3f}%s\n",
                 row.phase, row.enabled_ns, row.disabled_ns,
                 (row.enabled_ns - row.disabled_ns) / row.disabled_ns * 100.0,
                 i + 1 < obs_rows.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  // tracing (v7): same phases with a SpanTrace sink installed vs not,
  // runtime-enabled on both sides — the marginal cost of causal tracing.
  std::fprintf(f, "    \"tracing\": [\n");
  for (std::size_t i = 0; i < tracing_rows.size(); ++i) {
    const auto& row = tracing_rows[i];
    std::fprintf(f,
                 "      {\"phase\": \"%s\", \"traced_ns_per_call\": %.1f, "
                 "\"untraced_ns_per_call\": %.1f, \"overhead_pct\": %.3f}%s\n",
                 row.phase, row.enabled_ns, row.disabled_ns,
                 (row.enabled_ns - row.disabled_ns) / row.disabled_ns * 100.0,
                 i + 1 < tracing_rows.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
