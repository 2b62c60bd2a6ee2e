// ScheduleCache correctness: cached-hit routes must be BIT-IDENTICAL to
// cold routes (exhaustive m <= 3, randomized to m = 12, across every
// kernel tier this host supports — schedules are tier-invariant, so one
// cache may even serve plans pinned to different tiers), fault overlays
// and ControlTrace capture must BYPASS the cache (fault semantics are
// never served from, or recorded into, it), clock eviction over frames
// must spare recently-hit entries and evict an untouched one within
// `capacity` inserts (no table rebuild lets it escape), find() must copy
// out the line map as an ordinary solved schedule, warm hits in BOTH
// lanes must be allocation-free, and one cache must stay coherent under
// concurrent mixed hit/miss traffic and under invalidate() racing a reader
// storm (the seqlock proof, run under the tsan preset).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "alloc_count_hook.hpp"
#include "common/expect.hpp"
#include "common/rng.hpp"
#include "core/compiled_bnb.hpp"
#include "core/kernels/kernel_set.hpp"
#include "core/schedule_cache.hpp"
#include "core/small_schedule.hpp"
#include "fault/fault_model.hpp"
#include "fault/injection.hpp"
#include "perm/generators.hpp"

namespace {

using namespace bnb;
using kernels::KernelSet;

/// Route `pi` cold, then twice through the cache (miss-fill, then hit) on
/// every supported tier, demanding bit-identical output each time.  The
/// cache is shared across the tiers, so a hit may replay a schedule that a
/// DIFFERENT tier solved — the strongest form of the tier-invariance claim.
void expect_cached_equivalence(unsigned m, const Permutation& pi) {
  const std::size_t n = std::size_t{1} << m;
  ScheduleCache cache(64);
  for (const KernelSet* set : kernels::supported_kernel_sets()) {
    const CompiledBnb plan(m, set);
    RouteScratch scratch;
    const auto cold = plan.route(pi, scratch);
    std::vector<std::uint32_t> cold_dest(cold.dest.begin(), cold.dest.end());
    std::vector<Word> cold_out(cold.outputs.begin(), cold.outputs.end());

    const auto before = cache.stats();
    const auto first = cache.route(plan, pi, scratch);
    ASSERT_EQ(first.self_routed, cold.self_routed) << set->name;
    for (std::size_t line = 0; line < n; ++line) {
      ASSERT_EQ(first.dest[line], cold_dest[line]) << set->name;
      ASSERT_EQ(first.outputs[line].address, cold_out[line].address) << set->name;
      ASSERT_EQ(first.outputs[line].payload, cold_out[line].payload) << set->name;
    }

    const auto mid = cache.stats();
    const auto warm = cache.route(plan, pi, scratch);
    const auto after = cache.stats();
    ASSERT_EQ(after.hits, mid.hits + 1)
        << set->name << ": second identical route must be a cache hit";
    ASSERT_EQ(after.misses, mid.misses) << set->name;
    // The first tier misses; every later tier hits the shared schedule.
    ASSERT_EQ(mid.misses + mid.hits, before.misses + before.hits + 1) << set->name;

    ASSERT_EQ(warm.self_routed, cold.self_routed) << set->name;
    for (std::size_t line = 0; line < n; ++line) {
      ASSERT_EQ(warm.dest[line], cold_dest[line])
          << set->name << " warm dest[" << line << "]";
      ASSERT_EQ(warm.outputs[line].address, cold_out[line].address)
          << set->name << " warm address at line " << line;
      ASSERT_EQ(warm.outputs[line].payload, cold_out[line].payload)
          << set->name << " warm payload at line " << line;
    }
  }
}

// ---- digest ------------------------------------------------------------

/// splitmix64 finalizer, for spreading synthetic digests over the table.
std::uint64_t mix_for_test(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

bool digest_less(const PermutationDigest& x, const PermutationDigest& y) {
  return x.hi != y.hi ? x.hi < y.hi : x.lo < y.lo;
}

/// `base` and every single transposition of it, as images.
std::vector<std::vector<std::uint32_t>> with_transpositions(const Permutation& base) {
  std::vector<std::vector<std::uint32_t>> out;
  std::vector<std::uint32_t> image(base.image().begin(), base.image().end());
  out.push_back(image);
  for (std::size_t a = 0; a < image.size(); ++a) {
    for (std::size_t b = a + 1; b < image.size(); ++b) {
      std::swap(image[a], image[b]);
      out.push_back(image);
      std::swap(image[a], image[b]);
    }
  }
  return out;
}

/// Number of distinct digests over `images` (which must be distinct).
std::size_t distinct_digests(const std::vector<std::vector<std::uint32_t>>& images) {
  std::vector<PermutationDigest> d;
  d.reserve(images.size());
  for (const auto& image : images) d.push_back(digest_permutation(Permutation(image)));
  std::sort(d.begin(), d.end(), digest_less);
  return static_cast<std::size_t>(std::unique(d.begin(), d.end()) - d.begin());
}

TEST(ScheduleCache, DigestIsDeterministicAndDiscriminates) {
  Rng rng(0xCAC4E01);
  const Permutation a = random_perm(256, rng);
  EXPECT_EQ(digest_permutation(a), digest_permutation(a));

  // Every lexicographic m=3 permutation gets a distinct digest, and so do
  // identity permutations of different sizes (the size is mixed in).
  std::vector<PermutationDigest> seen;
  Permutation pi = identity_perm(8);
  do {
    seen.push_back(digest_permutation(pi));
  } while (pi.next_lexicographic());
  ASSERT_EQ(seen.size(), 40320U);
  std::sort(seen.begin(), seen.end(), digest_less);
  EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end());
  EXPECT_FALSE(digest_permutation(identity_perm(8)) ==
               digest_permutation(identity_perm(16)));

  // Near repeats are the cache's hardest keys: all 256*255/2 = 32,640
  // single transpositions of a random m=8 base must get distinct digests,
  // whether the swapped elements share a 64-bit chunk, a lane, or neither.
  const auto m8 = with_transpositions(random_perm(256, rng));
  ASSERT_EQ(m8.size(), 1U + 32640U);
  EXPECT_EQ(distinct_digests(m8), m8.size());

  // Sizes 1..16 cover every tail shorter than one lane stride (8 image
  // elements), a lone odd element included.  The identity and a random
  // base of each size, with all their transpositions, pooled across sizes
  // (the size is mixed in), must all get distinct digests.
  std::vector<std::vector<std::uint32_t>> pool;
  for (std::size_t n = 1; n <= 16; ++n) {
    for (const Permutation& base : {identity_perm(n), random_perm(n, rng)}) {
      const auto images = with_transpositions(base);
      pool.insert(pool.end(), images.begin(), images.end());
    }
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  ASSERT_GE(pool.size(), 16U + 680U);  // identities + their C(n,2) swaps, at least
  EXPECT_EQ(distinct_digests(pool), pool.size());
}

// ---- hit equivalence ---------------------------------------------------

TEST(ScheduleCache, CachedRoutesBitIdenticalExhaustiveSmallM) {
  for (unsigned m = 1; m <= 3; ++m) {
    Permutation pi = identity_perm(std::size_t{1} << m);
    do {
      expect_cached_equivalence(m, pi);
    } while (pi.next_lexicographic());
  }
}

TEST(ScheduleCache, CachedRoutesBitIdenticalRandomizedUpToM12) {
  Rng rng(0xCAC4E02);
  for (const unsigned m : {4U, 6U, 8U, 10U, 12U}) {
    const int reps = m <= 8 ? 3 : 2;
    for (int r = 0; r < reps; ++r) {
      expect_cached_equivalence(m, random_perm(std::size_t{1} << m, rng));
    }
  }
}

// ---- fault / trace bypass ----------------------------------------------

TEST(ScheduleCache, FaultRoutesBypassAndNeverPolluteTheCache) {
  Rng rng(0xCAC4E03);
  const unsigned m = 4;
  const std::size_t n = std::size_t{1} << m;
  const Permutation pi = random_perm(n, rng);

  for (const FaultSpec& spec : FaultModel::all_single_faults(m)) {
    FaultModel model(m);
    model.add(spec);
    const EngineFaults overlay = compile_engine_faults(model);
    if (overlay.empty()) continue;

    ScheduleCache cache(16);
    const CompiledBnb plan(m);
    RouteScratch scratch;

    // Reference: the fused engine under the same overlay.
    const auto want = plan.route(pi, scratch, nullptr, &overlay);
    std::vector<std::uint32_t> want_dest(want.dest.begin(), want.dest.end());
    std::vector<Word> want_out(want.outputs.begin(), want.outputs.end());

    const auto got = cache.route(plan, pi, scratch, nullptr, &overlay);
    ASSERT_EQ(got.self_routed, want.self_routed);
    for (std::size_t line = 0; line < n; ++line) {
      ASSERT_EQ(got.dest[line], want_dest[line]);
      ASSERT_EQ(got.outputs[line].address, want_out[line].address);
      ASSERT_EQ(got.outputs[line].payload, want_out[line].payload);
    }

    const auto stats = cache.stats();
    EXPECT_EQ(stats.bypasses, 1U) << "a faulty route must bypass the cache";
    EXPECT_EQ(stats.hits + stats.misses, 0U);
    EXPECT_EQ(stats.entries, 0U) << "a faulty route must never be cached";

    // The clean route afterwards must be a genuine miss (no pollution) and
    // must match the clean fused engine, not the faulty delivery.
    RouteScratch clean_scratch;
    const auto clean_want = plan.route(pi, clean_scratch);
    std::vector<std::uint32_t> clean_dest(clean_want.dest.begin(), clean_want.dest.end());
    const auto clean_got = cache.route(plan, pi, scratch);
    EXPECT_EQ(cache.stats().misses, 1U);
    for (std::size_t line = 0; line < n; ++line) {
      ASSERT_EQ(clean_got.dest[line], clean_dest[line]);
    }

    // ... and the faulty route after THAT still bypasses the now-warm cache.
    const auto faulty_again = cache.route(plan, pi, scratch, nullptr, &overlay);
    for (std::size_t line = 0; line < n; ++line) {
      ASSERT_EQ(faulty_again.dest[line], want_dest[line])
          << "fault semantics served from the cache";
    }
    EXPECT_EQ(cache.stats().bypasses, 2U);
  }
}

TEST(ScheduleCache, TraceRoutesBypassTheCache) {
  Rng rng(0xCAC4E04);
  const unsigned m = 5;
  const Permutation pi = random_perm(std::size_t{1} << m, rng);
  const CompiledBnb plan(m);
  ScheduleCache cache(16);
  RouteScratch scratch;

  ControlTrace want_trace;
  (void)plan.route(pi, scratch, &want_trace);

  ControlTrace got_trace;
  (void)cache.route(plan, pi, scratch, &got_trace);
  EXPECT_EQ(got_trace.column_controls, want_trace.column_controls);
  EXPECT_EQ(cache.stats().bypasses, 1U);
  EXPECT_EQ(cache.stats().entries, 0U);

  // Even with the schedule already cached, a trace request bypasses: the
  // replay path has no arbiters to observe.
  (void)cache.route(plan, pi, scratch);
  ASSERT_EQ(cache.stats().entries, 1U);
  ControlTrace after_warm;
  (void)cache.route(plan, pi, scratch, &after_warm);
  EXPECT_EQ(after_warm.column_controls, want_trace.column_controls);
  EXPECT_EQ(cache.stats().bypasses, 2U);
}

// ---- clock eviction ----------------------------------------------------

TEST(ScheduleCache, ClockEvictionSparesTouchedEntriesAndEvictsOneUntouched) {
  // Clock over frames: a hit adds 1 to an entry's reference count, and the
  // hand takes 1 from each frame it passes, evicting the first one already
  // at 0.  Entries fill frames in insertion order and the hand starts at
  // frame 0, so the victim is exactly the oldest untouched entry: the
  // touched pool[0] is passed over and pool[1] is evicted.
  Rng rng(0xCAC4E05);
  const unsigned m = 4;
  const CompiledBnb plan(m);
  RouteScratch scratch;
  std::vector<Permutation> pool;
  for (int i = 0; i < 5; ++i) pool.push_back(random_perm(std::size_t{1} << m, rng));

  ScheduleCache cache(4, /*shards=*/1);
  for (int i = 0; i < 4; ++i) (void)cache.route(plan, pool[i], scratch);
  ASSERT_EQ(cache.size(), 4U);
  ASSERT_EQ(cache.stats().evictions, 0U);

  // Touch pool[0] (its count goes to 1), then overflow with pool[4].
  (void)cache.route(plan, pool[0], scratch);
  EXPECT_EQ(cache.stats().hits, 1U);
  (void)cache.route(plan, pool[4], scratch);
  EXPECT_EQ(cache.stats().evictions, 1U);
  EXPECT_EQ(cache.size(), 4U);

  // The victim is pool[1]; every other entry is still resident.
  SmallSchedule probe;
  EXPECT_FALSE(cache.find_small(digest_permutation(pool[1]), probe))
      << "the oldest untouched entry must be the one evicted";
  for (const int i : {0, 2, 3, 4}) {
    EXPECT_TRUE(cache.find_small(digest_permutation(pool[i]), probe))
        << "pool[" << i << "]";
  }
}

/// `count` distinct synthetic digests (the table never sees a payload's
/// permutation, only its digest).
std::vector<PermutationDigest> synthetic_digests(std::size_t count) {
  std::vector<PermutationDigest> out;
  for (std::uint64_t k = 1; k <= count; ++k) {
    out.push_back(PermutationDigest{mix_for_test(k), k * 0x9E3779B97F4A7C15ULL});
  }
  return out;
}

TEST(ScheduleCache, UnreferencedEntryIsGoneAfterCapacityInserts) {
  // The age bound: with no hits, every insert into a full cache evicts,
  // and an entry is evicted by the capacity-th eviction after its insert —
  // so the digest inserted `capacity` inserts ago is always gone.  Enough
  // inserts run to rebuild the id table many times over; a rebuild must
  // not let any entry escape the hand.
  const CompiledBnb plan(4);
  RouteScratch scratch;
  Rng rng(0xCAC4E11);
  const SmallSchedule schedule = plan.compile_small(random_perm(16, rng), scratch);
  for (const std::size_t capacity : {1, 3, 16, 100, 256}) {
    SCOPED_TRACE(testing::Message() << "capacity=" << capacity);
    ScheduleCache cache(capacity, /*shards=*/1);
    const auto digests = synthetic_digests(12 * capacity + 40);
    std::size_t survivors = 0;
    SmallSchedule probe;
    for (std::size_t i = 0; i < digests.size(); ++i) {
      cache.insert_small(digests[i], schedule);
      if (i >= capacity && cache.find_small(digests[i - capacity], probe)) ++survivors;
    }
    EXPECT_EQ(survivors, 0U) << "entries outlived capacity inserts without a hit";
    EXPECT_EQ(cache.stats().hits, 0U);
    EXPECT_EQ(cache.stats().evictions, digests.size() - capacity);
    EXPECT_EQ(cache.size(), capacity);
  }
}

TEST(ScheduleCache, CyclingMoreDigestsThanCapacityNeverHits) {
  // 1024 distinct digests cycled through a 256-entry cache: each digest
  // comes back after 1023 other inserts, far past the age bound, so no
  // lookup may ever hit (FIFO, LRU and CLOCK all agree on 0).
  const CompiledBnb plan(4);
  RouteScratch scratch;
  Rng rng(0xCAC4E12);
  const SmallSchedule schedule = plan.compile_small(random_perm(16, rng), scratch);
  ScheduleCache cache(256, /*shards=*/1);
  const auto digests = synthetic_digests(1024);
  SmallSchedule probe;
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (const PermutationDigest& d : digests) {
      if (!cache.find_small(d, probe)) cache.insert_small(d, schedule);
    }
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0U);
  EXPECT_EQ(stats.misses, 100U * digests.size());
  EXPECT_EQ(stats.evictions, 100U * digests.size() - 256);
}

TEST(ScheduleCache, ClearDropsEntriesAndKeepsCounters) {
  Rng rng(0xCAC4E06);
  const unsigned m = 4;
  const CompiledBnb plan(m);
  RouteScratch scratch;
  ScheduleCache cache(8, /*shards=*/1);
  for (int i = 0; i < 3; ++i) (void)cache.route(plan, random_perm(16, rng), scratch);
  ASSERT_EQ(cache.size(), 3U);
  cache.clear();
  EXPECT_EQ(cache.size(), 0U);
  EXPECT_EQ(cache.stats().misses, 3U);
  EXPECT_EQ(cache.capacity(), 8U);
}

// ---- concurrency -------------------------------------------------------

TEST(ScheduleCache, ConcurrentMixedHitMissTrafficStaysCoherent) {
  // One small cache, several threads hammering an overlapping pool larger
  // than capacity: constant hits, misses, racing inserts of the same
  // digest, and evictions — every delivered result must still equal the
  // cold reference.  Each thread routes every permutation twice in a row,
  // so its second route hits unless capacity-many evictions intervene
  // (the clock evicts an untouched entry no sooner than that); the walk
  // over the pool between repeats is longer than the capacity, so misses
  // and evictions never stop.  Run under the tsan preset, this is the
  // data-race proof for the seqlock frames.
  Rng rng(0xCAC4E07);
  const unsigned m = 6;
  const std::size_t n = std::size_t{1} << m;
  const CompiledBnb plan(m);
  const std::size_t pool_size = 24;
  std::vector<Permutation> pool;
  std::vector<std::vector<std::uint32_t>> want;
  {
    RouteScratch scratch;
    for (std::size_t i = 0; i < pool_size; ++i) {
      pool.push_back(random_perm(n, rng));
      const auto out = plan.route(pool.back(), scratch);
      want.emplace_back(out.dest.begin(), out.dest.end());
    }
  }

  ScheduleCache cache(8, /*shards=*/4);  // far smaller than the pool: evict constantly
  constexpr int kThreads = 4;
  constexpr int kIters = 400;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      RouteScratch scratch;
      for (int i = 0; i < kIters; ++i) {
        const std::size_t idx =
            (static_cast<std::size_t>(t) * 7 + static_cast<std::size_t>(i / 2) * 13) %
            pool_size;
        const auto out = cache.route(plan, pool[idx], scratch);
        for (std::size_t j = 0; j < n; ++j) {
          if (out.dest[j] != want[idx][j]) {
            ++mismatches[t];
            break;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_GT(stats.hits, 0U);
  EXPECT_GT(stats.misses, 0U);
  EXPECT_GT(stats.evictions, 0U) << "capacity 8 over a 24-perm pool must evict";
  EXPECT_LE(cache.size(), cache.capacity());
}

// ---- small lane --------------------------------------------------------

TEST(ScheduleCache, SmallLaneFindInsertRoundTripAndCrossLaneMiss) {
  // find_small/insert_small share the frames and counters with the
  // general lane; a digest held by one lane is a counted miss for the
  // other (never a type confusion).
  Rng rng(0xCAC4E08);
  const CompiledBnb plan(4);
  RouteScratch scratch;
  ScheduleCache cache(8, /*shards=*/1);

  const Permutation a = random_perm(16, rng);
  const PermutationDigest da = digest_permutation(a);
  SmallSchedule out;
  ASSERT_FALSE(cache.find_small(da, out));
  EXPECT_EQ(cache.stats().misses, 1U);

  const SmallSchedule compiled = plan.compile_small(a, scratch);
  cache.insert_small(da, compiled);
  EXPECT_EQ(cache.size(), 1U);
  ASSERT_TRUE(cache.find_small(da, out));
  EXPECT_EQ(cache.stats().hits, 1U);
  ASSERT_TRUE(out.solved());
  for (std::size_t j = 0; j < 16; ++j) {
    EXPECT_EQ(out.line_of_input(j), compiled.line_of_input(j)) << "input " << j;
  }

  // General-lane lookup of a small-lane entry: a miss, not a crash.
  ControlSchedule fetched;
  EXPECT_FALSE(cache.find(da, fetched));
  EXPECT_EQ(cache.stats().misses, 2U);

  // And the mirror image: a general-lane entry misses the small lane.
  const Permutation b = random_perm(16, rng);
  const PermutationDigest db = digest_permutation(b);
  ControlSchedule schedule;
  plan.solve(b, scratch, schedule);
  cache.insert(db, schedule);
  EXPECT_FALSE(cache.find_small(db, out));
  EXPECT_EQ(cache.stats().misses, 3U);
  EXPECT_TRUE(cache.find(db, fetched));
  EXPECT_TRUE(fetched.solved());
}

TEST(ScheduleCache, SmallLaneRouteCountsHitsMissesAndEvictions) {
  // route() on a small-capable plan takes the small lane end to end, with
  // the same observable hit/miss/eviction accounting as the general lane.
  Rng rng(0xCAC4E09);
  const unsigned m = 5;
  const std::size_t n = std::size_t{1} << m;
  const CompiledBnb plan(m);
  RouteScratch scratch;
  ScheduleCache cache(2, /*shards=*/1);  // tiny: the victim is predictable

  const Permutation a = random_perm(n, rng);
  const Permutation b = random_perm(n, rng);
  const Permutation c = random_perm(n, rng);

  (void)cache.route(plan, a, scratch);
  (void)cache.route(plan, b, scratch);
  EXPECT_EQ(cache.stats().misses, 2U);
  (void)cache.route(plan, a, scratch);  // hit: the hand passes over a once
  EXPECT_EQ(cache.stats().hits, 1U);
  (void)cache.route(plan, c, scratch);  // full: evicts b, the untouched one
  EXPECT_EQ(cache.stats().evictions, 1U);
  (void)cache.route(plan, b, scratch);  // evicted: misses again
  EXPECT_EQ(cache.stats().misses, 4U);
  EXPECT_LE(cache.size(), 2U);
}

TEST(ScheduleCache, SmallLaneWarmHitsAllocateNothing) {
  // The whole point of the value-type lane: a warm small-N route is
  // find_small (stack copy) + apply_small (register replay into the
  // prepared scratch) — zero heap traffic, no shared_ptr churn.
  Rng rng(0xCAC4E0A);
  const unsigned m = 6;
  const CompiledBnb plan(m);
  RouteScratch scratch;
  ScheduleCache cache(16, /*shards=*/1);

  std::vector<Permutation> perms;
  for (int i = 0; i < 4; ++i) perms.push_back(random_perm(plan.inputs(), rng));
  for (const auto& pi : perms) (void)cache.route(plan, pi, scratch);  // warm-up fill

  const auto before = cache.stats();
  testhook::reset_allocation_count();
  for (int round = 0; round < 8; ++round) {
    for (const auto& pi : perms) {
      const auto out = cache.route(plan, pi, scratch);
      ASSERT_TRUE(out.self_routed);
    }
  }
  EXPECT_EQ(testhook::allocation_count(), 0U)
      << "warm small-lane hits must not touch the heap";
  const auto after = cache.stats();
  EXPECT_EQ(after.hits, before.hits + 8 * perms.size());
  EXPECT_EQ(after.misses, before.misses);
}

TEST(ScheduleCache, SmallLaneFaultAndTraceRoutesBypassAndNeverInsert) {
  // Satellite of the quarantine contract at m <= kMaxM: a fault-injected
  // or traced route on a small-capable plan must bypass the small lane —
  // no hit, no insert, no cached fault semantics — and an already-warm
  // small-lane entry must not serve such a route.
  Rng rng(0xCAC4E0B);
  for (const unsigned m : {4U, 6U}) {  // both ends of the small lane
    const std::size_t n = std::size_t{1} << m;
    const CompiledBnb plan(m);
    ASSERT_TRUE(plan.small_capable());
    RouteScratch scratch;
    ScheduleCache cache(16, /*shards=*/1);
    const Permutation pi = random_perm(n, rng);
    const PermutationDigest digest = digest_permutation(pi);

    FaultModel model(m);
    model.add({FaultKind::kLinkFlip, {0, 0, 0, 0}, false, 0, 0});
    const EngineFaults overlay = compile_engine_faults(model);
    ASSERT_FALSE(overlay.empty());

    // Cold fault route: bypass, empty cache, small lane never consulted.
    (void)cache.route(plan, pi, scratch, nullptr, &overlay);
    EXPECT_EQ(cache.stats().bypasses, 1U) << "m=" << m;
    EXPECT_EQ(cache.stats().entries, 0U) << "m=" << m;
    SmallSchedule probe;
    EXPECT_FALSE(cache.find_small(digest, probe))
        << "m=" << m << ": a fault route must not have filled the small lane";

    // Cold trace route: same contract.
    ControlTrace trace;
    (void)cache.route(plan, pi, scratch, &trace);
    EXPECT_EQ(cache.stats().bypasses, 2U) << "m=" << m;
    EXPECT_EQ(cache.stats().entries, 0U) << "m=" << m;

    // Warm the small lane with the clean schedule, then demand that fault
    // and trace routes still bypass it — fault semantics are never served
    // from a cached replay, and the entry must survive untouched.
    const auto clean = cache.route(plan, pi, scratch);
    ASSERT_EQ(cache.stats().entries, 1U) << "m=" << m;
    const auto faulty = cache.route(plan, pi, scratch, nullptr, &overlay);
    EXPECT_EQ(cache.stats().bypasses, 3U) << "m=" << m;
    (void)cache.route(plan, pi, scratch, &trace);
    EXPECT_EQ(cache.stats().bypasses, 4U) << "m=" << m;
    EXPECT_EQ(cache.stats().entries, 1U) << "m=" << m;

    // The faulty delivery must match the fused engine under the overlay,
    // not the clean cached replay.
    const auto want = plan.route(pi, scratch, nullptr, &overlay);
    for (std::size_t line = 0; line < n; ++line) {
      ASSERT_EQ(faulty.dest[line], want.dest[line])
          << "m=" << m << ": fault semantics served from the small lane";
    }
    (void)clean;
  }
}

// ---- general lane: zero-alloc warm path ---------------------------------

TEST(ScheduleCache, GeneralLaneWarmHitsAllocateNothing) {
  // The flat-table promise: a warm general-lane route is probe + seqlock
  // validate + zero-copy replay straight from the slot's buffer — no
  // shared_ptr, no copies, no heap traffic at all.
  Rng rng(0xCAC4E0D);
  const unsigned m = 7;  // smallest general-lane size
  const CompiledBnb plan(m);
  ASSERT_FALSE(plan.small_capable());
  RouteScratch scratch;
  scratch.prepare(plan);
  ScheduleCache cache(16, /*shards=*/1);

  std::vector<Permutation> perms;
  for (int i = 0; i < 4; ++i) perms.push_back(random_perm(plan.inputs(), rng));
  std::vector<PermutationDigest> digests;
  for (const auto& pi : perms) digests.push_back(digest_permutation(pi));
  for (const auto& pi : perms) (void)cache.route(plan, pi, scratch);  // fill

  const auto before = cache.stats();
  testhook::reset_allocation_count();
  for (int round = 0; round < 8; ++round) {
    for (const auto& pi : perms) {
      const auto out = cache.route(plan, pi, scratch);
      ASSERT_TRUE(out.self_routed);
    }
  }
  EXPECT_EQ(testhook::allocation_count(), 0U)
      << "warm general-lane route() hits must not touch the heap";
  const auto mid = cache.stats();
  EXPECT_EQ(mid.hits, before.hits + 8 * perms.size());
  EXPECT_EQ(mid.misses, before.misses);

  // The explicit replay() entry point is equally clean ...
  testhook::reset_allocation_count();
  for (std::size_t i = 0; i < perms.size(); ++i) {
    CompiledBnb::Output out{};
    ASSERT_TRUE(cache.replay(plan, digests[i], perms[i], scratch, out));
    ASSERT_TRUE(out.self_routed);
  }
  EXPECT_EQ(testhook::allocation_count(), 0U)
      << "replay() hits must not touch the heap";

  // ... and find()'s copy-out is allocation-free once the destination has
  // been shaped by a first fetch.
  ControlSchedule fetched;
  ASSERT_TRUE(cache.find(digests[0], fetched));  // shapes `fetched` (may alloc)
  testhook::reset_allocation_count();
  for (std::size_t i = 0; i < perms.size(); ++i) {
    ASSERT_TRUE(cache.find(digests[i], fetched));
  }
  EXPECT_EQ(testhook::allocation_count(), 0U)
      << "same-shape find() copy-outs must reuse the destination's buffers";
}

TEST(ScheduleCache, FindCopiesOnlyTheLineMapAndApplyReplaysIt) {
  // A general entry is its input->line map: find() hands back an ordinary
  // solved schedule whose map equals the solved one, apply() and
  // apply_words() on it equal a cold route for every size, and on small
  // plans it flattens to the same SmallSchedule as the solved schedule.
  Rng rng(0xCAC4E20);
  for (unsigned m = 1; m <= 14; ++m) {
    const std::size_t n = std::size_t{1} << m;
    const CompiledBnb plan(m);
    RouteScratch scratch;
    ScheduleCache cache(4, /*shards=*/1);
    const Permutation pi = random_perm(n, rng);
    ControlSchedule solved;
    plan.solve(pi, scratch, solved);
    const PermutationDigest digest = digest_permutation(pi);
    cache.insert(digest, solved);

    ControlSchedule fetched;
    ASSERT_TRUE(cache.find(digest, fetched)) << "m=" << m;
    EXPECT_EQ(fetched.m(), m);
    EXPECT_TRUE(fetched.solved()) << "m=" << m;
    ASSERT_TRUE(std::equal(fetched.line_of_input().begin(), fetched.line_of_input().end(),
                           solved.line_of_input().begin(), solved.line_of_input().end()))
        << "m=" << m << ": the copied line map differs from the solved one";

    const auto cold = plan.route(pi, scratch);
    const std::vector<std::uint32_t> cold_dest(cold.dest.begin(), cold.dest.end());
    const std::vector<Word> cold_out(cold.outputs.begin(), cold.outputs.end());
    const auto replayed = plan.apply(fetched, pi, scratch);
    ASSERT_EQ(replayed.self_routed, cold.self_routed) << "m=" << m;
    for (std::size_t line = 0; line < n; ++line) {
      ASSERT_EQ(replayed.dest[line], cold_dest[line]) << "m=" << m << " dest " << line;
      ASSERT_EQ(replayed.outputs[line].address, cold_out[line].address) << "m=" << m;
      ASSERT_EQ(replayed.outputs[line].payload, cold_out[line].payload) << "m=" << m;
    }
    std::vector<Word> words(n);
    for (std::size_t j = 0; j < n; ++j) words[j] = Word{pi(j), std::uint64_t{j}};
    const auto replayed_words = plan.apply_words(fetched, words, scratch);
    ASSERT_TRUE(replayed_words.self_routed) << "m=" << m;
    ASSERT_TRUE(std::equal(replayed_words.dest.begin(), replayed_words.dest.end(),
                           cold_dest.begin()))
        << "m=" << m;

    if (plan.small_capable()) {
      const SmallReplay from_copy = plan.flatten_small(fetched);
      const SmallReplay from_solve = plan.flatten_small(solved);
      ASSERT_EQ(from_copy.m(), from_solve.m()) << "m=" << m;
      ASSERT_EQ(from_copy.depth(), from_solve.depth()) << "m=" << m;
      for (std::size_t step = 0; step < from_solve.depth(); ++step) {
        EXPECT_EQ(from_copy.step_mask(step), from_solve.step_mask(step)) << "m=" << m;
        EXPECT_EQ(from_copy.step_delta(step), from_solve.step_delta(step)) << "m=" << m;
      }
    }
  }
}

TEST(ScheduleCache, FindAndSolveAlternatingOnOneScheduleAllocateNothing) {
  // StreamEngine's recirculated ring slots and servebench's scratch slot
  // take find() copy-outs and solves by turns.  Both shape the schedule
  // with reshape(), which keeps the line map's capacity, so once each has
  // run the alternation allocates nothing.
  Rng rng(0xCAC4E21);
  const CompiledBnb plan(10);
  RouteScratch scratch;
  ScheduleCache cache(8, /*shards=*/1);
  std::vector<Permutation> perms;
  for (int i = 0; i < 4; ++i) perms.push_back(random_perm(plan.inputs(), rng));
  std::vector<PermutationDigest> digests;
  for (const auto& pi : perms) digests.push_back(digest_permutation(pi));
  ControlSchedule slot;
  for (std::size_t i = 0; i < 2; ++i) {
    plan.solve(perms[i], scratch, slot);
    cache.insert(digests[i], slot);
  }
  ASSERT_TRUE(cache.find(digests[0], slot));  // first copy-out
  plan.solve(perms[2], scratch, slot);        // first solve after one

  testhook::reset_allocation_count();
  for (std::size_t round = 0; round < 8; ++round) {
    const std::size_t hit = round % 2;
    ASSERT_TRUE(cache.find(digests[hit], slot));
    ASSERT_TRUE(plan.apply(slot, perms[hit], scratch).self_routed);
    const std::size_t miss = 2 + round % 2;
    plan.solve(perms[miss], scratch, slot);
    ASSERT_TRUE(plan.apply(slot, perms[miss], scratch).self_routed);
  }
  EXPECT_EQ(testhook::allocation_count(), 0U)
      << "a schedule alternating find() and solve() must reuse its buffers";
}

TEST(ScheduleCache, ScratchWhoseSlotHoldsACopyOutStillRoutes) {
  // A find() into RouteScratch::schedule_slot() leaves a copied-out
  // schedule there.  route() captures its solve into that same slot, and
  // so does every path that reaches route(): ScheduleCache::route's miss
  // included.
  Rng rng(0xCAC4E22);
  const unsigned m = 8;
  const CompiledBnb plan(m);
  ASSERT_FALSE(plan.small_capable());
  RouteScratch scratch;
  RouteScratch reference;
  ScheduleCache cache(8, /*shards=*/1);
  const Permutation a = random_perm(plan.inputs(), rng);
  const Permutation b = random_perm(plan.inputs(), rng);
  const Permutation c = random_perm(plan.inputs(), rng);
  (void)cache.route(plan, a, scratch);
  const PermutationDigest da = digest_permutation(a);

  ASSERT_TRUE(cache.find(da, scratch.schedule_slot()));
  const auto b_out = plan.route(b, scratch);
  const auto b_want = plan.route(b, reference);
  ASSERT_TRUE(std::equal(b_out.dest.begin(), b_out.dest.end(), b_want.dest.begin()));
  EXPECT_EQ(scratch.schedule_slot().m(), m);
  EXPECT_TRUE(std::equal(b_out.dest.begin(), b_out.dest.end(),
                         scratch.schedule_slot().line_of_input().begin()));

  ASSERT_TRUE(cache.find(da, scratch.schedule_slot()));
  const auto before = cache.stats();
  const auto c_out = cache.route(plan, c, scratch);  // miss: solve + insert
  const auto c_want = plan.route(c, reference);
  ASSERT_TRUE(std::equal(c_out.dest.begin(), c_out.dest.end(), c_want.dest.begin()));
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
  const auto c_hit = cache.route(plan, c, scratch);
  ASSERT_TRUE(std::equal(c_hit.dest.begin(), c_hit.dest.end(), c_want.dest.begin()));
  EXPECT_EQ(cache.stats().hits, before.hits + 1) << "the miss must have cached c";
}

TEST(ScheduleCache, EvictionChurnRecyclesPayloadBuffers) {
  // A frame keeps its payload buffer for the cache's whole life and a new
  // entry takes its victim's frame, so steady-state churn at one schedule
  // size allocates (almost) nothing instead of one buffer per insert.
  Rng rng(0xCAC4E10);
  const unsigned m = 8;
  const CompiledBnb plan(m);
  RouteScratch scratch;
  ControlSchedule solved;
  plan.solve(random_perm(plan.inputs(), rng), scratch, solved);
  const std::size_t capacity = 16;
  ScheduleCache cache(capacity);
  // Every insert is a fresh digest (the payload is irrelevant to the
  // table), so each one past the capacity evicts.
  std::uint64_t next = 1;
  auto churn = [&](std::size_t inserts) {
    for (std::size_t i = 0; i < inserts; ++i, ++next) {
      cache.insert(PermutationDigest{next * 0x9E3779B97F4A7C15ULL, next}, solved);
    }
  };
  churn(20 * capacity);  // warm-up: fill, evict, rebuild the id table
  const std::size_t inserts = 20 * capacity;
  const auto evictions_before = cache.stats().evictions;
  testhook::reset_allocation_count();
  churn(inserts);
  const std::size_t allocations = testhook::allocation_count();
  EXPECT_EQ(cache.stats().evictions, evictions_before + inserts);
  EXPECT_EQ(cache.size(), capacity);
  EXPECT_LT(allocations * 20, inserts)
      << allocations << " allocations over " << inserts << " evicting inserts";

  // The reused buffers still carry the right schedules.
  const Permutation pi = random_perm(plan.inputs(), rng);
  const PermutationDigest digest = digest_permutation(pi);
  (void)cache.route(plan, pi, scratch);
  CompiledBnb::Output out{};
  ASSERT_TRUE(cache.replay(plan, digest, pi, scratch, out));
  EXPECT_TRUE(out.self_routed);
}

// ---- general lane: fault / trace bypass ---------------------------------

TEST(ScheduleCache, GeneralLaneFaultAndTraceRoutesBypassBothLanes) {
  // Mirror of the small-lane bypass pin at general-lane size: a fault or
  // trace route at m = 7 must bypass the flat table entirely — no probe
  // hit, no insert — even when the digest is already resident.
  Rng rng(0xCAC4E0E);
  const unsigned m = 7;
  const std::size_t n = std::size_t{1} << m;
  const CompiledBnb plan(m);
  ASSERT_FALSE(plan.small_capable());
  RouteScratch scratch;
  ScheduleCache cache(16, /*shards=*/1);
  const Permutation pi = random_perm(n, rng);
  const PermutationDigest digest = digest_permutation(pi);

  FaultModel model(m);
  model.add({FaultKind::kLinkFlip, {0, 0, 0, 0}, false, 0, 0});
  const EngineFaults overlay = compile_engine_faults(model);
  ASSERT_FALSE(overlay.empty());

  // Cold fault and trace routes: bypass, nothing cached.
  (void)cache.route(plan, pi, scratch, nullptr, &overlay);
  EXPECT_EQ(cache.stats().bypasses, 1U);
  EXPECT_EQ(cache.stats().entries, 0U);
  ControlTrace trace;
  (void)cache.route(plan, pi, scratch, &trace);
  EXPECT_EQ(cache.stats().bypasses, 2U);
  EXPECT_EQ(cache.stats().entries, 0U);
  ControlSchedule probe;
  EXPECT_FALSE(cache.find(digest, probe))
      << "a bypassed route must not have filled the general lane";

  // Warm the entry, then demand fault/trace routes still bypass it.
  (void)cache.route(plan, pi, scratch);
  ASSERT_EQ(cache.stats().entries, 1U);
  const auto faulty = cache.route(plan, pi, scratch, nullptr, &overlay);
  EXPECT_EQ(cache.stats().bypasses, 3U);
  (void)cache.route(plan, pi, scratch, &trace);
  EXPECT_EQ(cache.stats().bypasses, 4U);
  EXPECT_EQ(cache.stats().entries, 1U);

  // Fault semantics must come from the fused engine, not the cached replay.
  const auto want = plan.route(pi, scratch, nullptr, &overlay);
  for (std::size_t line = 0; line < n; ++line) {
    ASSERT_EQ(faulty.dest[line], want.dest[line])
        << "fault semantics served from the general lane";
  }
}

// ---- invalidate vs reader storm -----------------------------------------

TEST(ScheduleCache, InvalidateDuringConcurrentReaderStormStaysCoherent) {
  // The seqlock's hard case: a writer repeatedly quarantines and re-inserts
  // hot digests while readers replay them lock-free.  Every reader delivery
  // must be bit-identical to the cold reference — a torn read may only ever
  // become a counted miss (re-solve), never a wrong route.  Run under the
  // tsan preset this is the data-race proof for invalidate().
  Rng rng(0xCAC4E0F);
  const unsigned m = 7;
  const std::size_t n = std::size_t{1} << m;
  const CompiledBnb plan(m);
  const std::size_t pool_size = 4;
  std::vector<Permutation> pool;
  std::vector<PermutationDigest> digests;
  std::vector<std::vector<std::uint32_t>> want;
  {
    RouteScratch scratch;
    for (std::size_t i = 0; i < pool_size; ++i) {
      pool.push_back(random_perm(n, rng));
      digests.push_back(digest_permutation(pool.back()));
      const auto out = plan.route(pool.back(), scratch);
      want.emplace_back(out.dest.begin(), out.dest.end());
    }
  }

  ScheduleCache cache(16, /*shards=*/1);
  {
    RouteScratch scratch;
    for (const auto& pi : pool) (void)cache.route(plan, pi, scratch);
  }

  constexpr int kReaders = 3;
  constexpr int kReaderIters = 300;
  constexpr int kWriterIters = 200;
  std::vector<int> mismatches(kReaders, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kReaders; ++t) {
    workers.emplace_back([&, t] {
      RouteScratch scratch;
      for (int i = 0; i < kReaderIters; ++i) {
        const std::size_t idx = (static_cast<std::size_t>(t) + i) % pool_size;
        const auto out = cache.route(plan, pool[idx], scratch);
        for (std::size_t j = 0; j < n; ++j) {
          if (out.dest[j] != want[idx][j]) {
            ++mismatches[t];
            break;
          }
        }
      }
    });
  }
  workers.emplace_back([&] {
    // The storm: quarantine a hot digest, then re-solve it back in, so
    // readers race slot teardown AND slot rewrite in every combination.
    RouteScratch scratch;
    for (int i = 0; i < kWriterIters; ++i) {
      const std::size_t idx = static_cast<std::size_t>(i) % pool_size;
      (void)cache.invalidate(digests[idx]);
      (void)cache.route(plan, pool[idx], scratch);
    }
  });
  for (auto& w : workers) w.join();

  for (int t = 0; t < kReaders; ++t) EXPECT_EQ(mismatches[t], 0) << "reader " << t;
  const auto stats = cache.stats();
  EXPECT_GT(stats.quarantined, 0U);
  // Writer re-inserts everything it quarantined, so the survivors must all
  // still replay correctly single-threaded.
  {
    RouteScratch scratch;
    for (std::size_t i = 0; i < pool_size; ++i) {
      const auto out = cache.route(plan, pool[i], scratch);
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(out.dest[j], want[i][j]) << "post-storm replay diverged";
      }
    }
  }
  EXPECT_LE(cache.size(), cache.capacity());
}

// ---- quarantine ---------------------------------------------------------

TEST(ScheduleCache, InvalidateDropsEitherLaneAndCountsQuarantine) {
  Rng rng(0xCAC4E0C);
  const CompiledBnb small_plan(5);
  const CompiledBnb general_plan(7);
  RouteScratch scratch;
  ScheduleCache cache(16, /*shards=*/1);

  // One entry per lane.
  const Permutation a = random_perm(32, rng);
  const PermutationDigest da = digest_permutation(a);
  cache.insert_small(da, small_plan.compile_small(a, scratch));
  const Permutation b = random_perm(128, rng);
  const PermutationDigest db = digest_permutation(b);
  ControlSchedule schedule;
  RouteScratch general_scratch;
  general_plan.solve(b, general_scratch, schedule);
  cache.insert(db, schedule);
  ASSERT_EQ(cache.stats().entries, 2U);

  // Small-lane quarantine.
  EXPECT_TRUE(cache.invalidate(da));
  EXPECT_EQ(cache.stats().quarantined, 1U);
  EXPECT_EQ(cache.stats().entries, 1U);
  SmallSchedule out;
  EXPECT_FALSE(cache.find_small(da, out));

  // General-lane quarantine.
  EXPECT_TRUE(cache.invalidate(db));
  EXPECT_EQ(cache.stats().quarantined, 2U);
  EXPECT_EQ(cache.stats().entries, 0U);
  ControlSchedule gone;
  EXPECT_FALSE(cache.find(db, gone));

  // Quarantining an absent digest is a counted no-op on every counter.
  const auto before = cache.stats();
  EXPECT_FALSE(cache.invalidate(da));
  const auto after = cache.stats();
  EXPECT_EQ(after.quarantined, before.quarantined);
  EXPECT_EQ(after.entries, 0U);
}

}  // namespace
