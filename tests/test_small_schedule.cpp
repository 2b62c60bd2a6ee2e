// Small-lane correctness.  compile_small's SmallSchedule is the solved
// line map and nothing else, so its delivery must equal the general engine
// bit for bit.  flatten_small's SmallReplay is the (mask, delta) butterfly
// replay of that map; every butterfly step permutes the 64 state bits, so
// apply() is linear over XOR — proving apply(1 << j) == 1 << route(pi).dest[j]
// on every single-bit input proves the replay for EVERY payload word; we
// still spot-check dense random payloads and the bits-above-N pass-through
// contract.  Coverage: exhaustive m <= 3 (every permutation), randomized +
// structured m = 4..6, on every kernel tier this host supports; apply8()
// must match eight scalar apply() calls lane for lane on each tier;
// flatten_small of an explicitly solved schedule must equal flatten_small
// of compile_small's map; apply_small's Output must be bit-identical to
// route/apply; every small-lane delivery entry point must match the
// behavioral BnbNetwork; and misuse must trip contracts instead of
// replaying garbage.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "core/bnb_network.hpp"
#include "core/compiled_bnb.hpp"
#include "core/kernels/kernel_set.hpp"
#include "core/schedule_cache.hpp"
#include "core/small_schedule.hpp"
#include "fabric/stream_engine.hpp"
#include "fault/resilience.hpp"
#include "perm/generators.hpp"

namespace {

using namespace bnb;
using kernels::KernelSet;

/// The mapping apply() must implement, computed independently from the
/// general engine's dest[] array: bit j moves to bit dest[j], bits at
/// positions >= n pass through unchanged.
std::uint64_t expected_apply(const std::vector<std::uint32_t>& dest, std::size_t n,
                             std::uint64_t x) {
  std::uint64_t out = n >= 64 ? 0 : (x & ~((std::uint64_t{1} << n) - 1));
  for (std::size_t j = 0; j < n; ++j) {
    out |= ((x >> j) & 1ULL) << dest[j];
  }
  return out;
}

/// Compile and flatten `pi` on `plan` and demand both are bit-identical to
/// the general route: the line map, the replay's basis vectors (sufficient
/// by XOR-linearity), dense random payloads, and apply8 against eight
/// scalar applies.
void expect_flat_equivalence(const CompiledBnb& plan, const Permutation& pi, Rng& rng) {
  const std::size_t n = plan.inputs();
  RouteScratch scratch;
  const auto cold = plan.route(pi, scratch);
  const std::vector<std::uint32_t> dest(cold.dest.begin(), cold.dest.end());

  const SmallSchedule sched = plan.compile_small(pi, scratch);
  ASSERT_TRUE(sched.solved()) << plan.kernel_set().name;
  ASSERT_EQ(sched.m(), plan.m()) << plan.kernel_set().name;
  ASSERT_EQ(sched.lines(), n) << plan.kernel_set().name;
  const SmallReplay replay = plan.flatten_small(sched);
  ASSERT_TRUE(replay.solved()) << plan.kernel_set().name;
  ASSERT_EQ(replay.m(), plan.m()) << plan.kernel_set().name;
  ASSERT_LE(replay.depth(), SmallReplay::kMaxDepth) << plan.kernel_set().name;

  // Basis vectors: with XOR-linearity this alone proves every payload.
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_EQ(sched.line_of_input(j), dest[j])
        << plan.kernel_set().name << " line_of_input(" << j << ")";
    ASSERT_EQ(replay.apply(std::uint64_t{1} << j), std::uint64_t{1} << dest[j])
        << plan.kernel_set().name << " basis bit " << j;
  }

  // Dense random payloads, including garbage above bit n: the replay must
  // permute the low n bits per dest[] and leave the high bits untouched.
  std::array<std::uint64_t, 8> lanes{};
  for (std::uint64_t& lane : lanes) lane = rng.next();
  for (const std::uint64_t x : lanes) {
    ASSERT_EQ(replay.apply(x), expected_apply(dest, n, x))
        << plan.kernel_set().name << " payload " << x;
  }

  // apply8: eight independent state words through the tier's wide kernel
  // must match eight scalar replays lane for lane.
  std::array<std::uint64_t, 8> wide = lanes;
  replay.apply8(wide.data());
  for (std::size_t lane = 0; lane < wide.size(); ++lane) {
    ASSERT_EQ(wide[lane], replay.apply(lanes[lane]))
        << plan.kernel_set().name << " apply8 lane " << lane;
  }
}

// ---- bit-identity vs the general engine --------------------------------

TEST(SmallSchedule, ExhaustiveBitIdenticalUpToM3) {
  Rng rng(0x5A110001);
  for (const KernelSet* set : kernels::supported_kernel_sets()) {
    for (unsigned m = 1; m <= 3; ++m) {
      const CompiledBnb plan(m, set);
      Permutation pi = identity_perm(std::size_t{1} << m);
      do {
        expect_flat_equivalence(plan, pi, rng);
      } while (pi.next_lexicographic());
    }
  }
}

TEST(SmallSchedule, RandomizedAndStructuredBitIdenticalM4to6) {
  Rng rng(0x5A110002);
  for (const KernelSet* set : kernels::supported_kernel_sets()) {
    for (unsigned m = 4; m <= 6; ++m) {
      const std::size_t n = std::size_t{1} << m;
      const CompiledBnb plan(m, set);
      // The structured families the self-routing literature cares about
      // (Omega blockers included) plus uniform-random traffic.
      std::vector<Permutation> perms = {
          identity_perm(n),      reversal_perm(n),        bit_reversal_perm(n),
          perfect_shuffle_perm(n), butterfly_perm(n),     exchange_perm(n),
          rotation_perm(n, n / 3 + 1),
      };
      if (m % 2 == 0) perms.push_back(transpose_perm(n));  // needs a square array
      for (int i = 0; i < 16; ++i) perms.push_back(random_perm(n, rng));
      for (const Permutation& pi : perms) expect_flat_equivalence(plan, pi, rng);
    }
  }
}

// ---- flatten_small of an explicit solve --------------------------------

TEST(SmallSchedule, FlattenSmallMatchesCompileSmall) {
  // compile_small is solve + a copy of the line map; a caller holding an
  // explicitly solved ControlSchedule must get the identical map, and
  // flatten_small of either must be the identical flat program.
  Rng rng(0x5A110003);
  for (const unsigned m : {2U, 4U, 6U}) {
    const CompiledBnb plan(m);
    RouteScratch scratch;
    const Permutation pi = random_perm(plan.inputs(), rng);

    ControlSchedule schedule;
    plan.solve(pi, scratch, schedule);
    const SmallReplay from_schedule = plan.flatten_small(schedule);
    const SmallSchedule compiled = plan.compile_small(pi, scratch);
    const SmallReplay from_map = plan.flatten_small(compiled);

    ASSERT_EQ(from_schedule.m(), from_map.m()) << "m=" << m;
    ASSERT_EQ(from_schedule.depth(), from_map.depth()) << "m=" << m;
    for (std::size_t s = 0; s < SmallReplay::kMaxDepth; ++s) {
      ASSERT_EQ(from_schedule.step_mask(s), from_map.step_mask(s))
          << "m=" << m << " step " << s;
      ASSERT_EQ(from_schedule.step_delta(s), from_map.step_delta(s))
          << "m=" << m << " step " << s;
    }
    for (std::size_t j = 0; j < plan.inputs(); ++j) {
      ASSERT_EQ(compiled.line_of_input(j), schedule.line_of_input()[j])
          << "m=" << m << " input " << j;
    }
  }
}

// ---- apply_small Output contract ---------------------------------------

TEST(SmallSchedule, ApplySmallOutputBitIdenticalToRouteAndApply) {
  Rng rng(0x5A110004);
  for (const KernelSet* set : kernels::supported_kernel_sets()) {
    for (unsigned m = 1; m <= 6; ++m) {
      const std::size_t n = std::size_t{1} << m;
      const CompiledBnb plan(m, set);
      RouteScratch scratch;
      const Permutation pi = random_perm(n, rng);

      const auto cold = plan.route(pi, scratch);
      const std::vector<std::uint32_t> dest(cold.dest.begin(), cold.dest.end());
      const std::vector<Word> outputs(cold.outputs.begin(), cold.outputs.end());
      const bool self_routed = cold.self_routed;

      const SmallSchedule sched = plan.compile_small(pi, scratch);
      const auto small = plan.apply_small(sched, pi, scratch);
      ASSERT_EQ(small.self_routed, self_routed) << set->name << " m=" << m;
      for (std::size_t line = 0; line < n; ++line) {
        ASSERT_EQ(small.dest[line], dest[line]) << set->name << " m=" << m;
        ASSERT_EQ(small.outputs[line].address, outputs[line].address)
            << set->name << " m=" << m << " line " << line;
        ASSERT_EQ(small.outputs[line].payload, outputs[line].payload)
            << set->name << " m=" << m << " line " << line;
      }
    }
  }
}

// ---- every small-lane entry point vs the behavioral network --------------

/// dest[] of every permutation of a pool, concatenated.
using Delivery = std::vector<std::uint32_t>;

/// One delivery entry point: routes a pool on a fresh plan/cache/router and
/// returns one Delivery per pass (a cached entry point runs a cold pass
/// that fills its cache and a warm pass that must hit it).
struct EntryPoint {
  const char* name;
  std::function<std::vector<Delivery>(const CompiledBnb&, const std::vector<Permutation>&)>
      run;
};

Delivery stream_dest(const CompiledBnb& plan, const std::vector<Permutation>& pool,
                     unsigned threads, ScheduleCache* cache) {
  const StreamEngine engine(plan, {.threads = threads, .cache = cache});
  return engine.run(pool).dest;
}

/// dest[] read back from a SmallReplay's single-bit images, eight inputs per
/// apply8 call or one per apply call.
Delivery replay_dest(const CompiledBnb& plan, const std::vector<Permutation>& pool,
                     bool wide) {
  RouteScratch scratch;
  Delivery out;
  for (const Permutation& pi : pool) {
    const SmallReplay replay = plan.flatten_small(plan.compile_small(pi, scratch));
    for (std::size_t j = 0; j < plan.inputs(); j += 8) {
      std::array<std::uint64_t, 8> lanes{};
      for (std::size_t k = 0; k < 8; ++k) lanes[k] = std::uint64_t{1} << ((j + k) & 63);
      if (wide) {
        replay.apply8(lanes.data());
      } else {
        for (std::uint64_t& lane : lanes) lane = replay.apply(lane);
      }
      for (std::size_t k = 0; k < 8 && j + k < plan.inputs(); ++k) {
        out.push_back(static_cast<std::uint32_t>(std::countr_zero(lanes[k])));
      }
    }
  }
  return out;
}

const std::vector<EntryPoint>& small_entry_points() {
  static const std::vector<EntryPoint> rows = {
      {"ResilientRouter",
       [](const CompiledBnb& plan, const std::vector<Permutation>& pool) {
         ScheduleCache cache(pool.size());
         ResilientRouter router(plan.m(), {}, &cache);
         std::vector<Delivery> passes(2);
         for (Delivery& pass : passes) {
           for (const Permutation& pi : pool) {
             const ResilientReport report = router.route(pi);
             pass.insert(pass.end(), report.dest.begin(), report.dest.end());
           }
         }
         return passes;
       }},
      {"StreamEngine inline",
       [](const CompiledBnb& plan, const std::vector<Permutation>& pool) {
         return std::vector<Delivery>{stream_dest(plan, pool, 1, nullptr)};
       }},
      {"StreamEngine inline cached",
       [](const CompiledBnb& plan, const std::vector<Permutation>& pool) {
         ScheduleCache cache(pool.size());
         return std::vector<Delivery>{stream_dest(plan, pool, 1, &cache),
                                      stream_dest(plan, pool, 1, &cache)};
       }},
      {"StreamEngine pipelined",
       [](const CompiledBnb& plan, const std::vector<Permutation>& pool) {
         return std::vector<Delivery>{stream_dest(plan, pool, 3, nullptr)};
       }},
      {"StreamEngine pipelined cached",
       [](const CompiledBnb& plan, const std::vector<Permutation>& pool) {
         ScheduleCache cache(pool.size());
         return std::vector<Delivery>{stream_dest(plan, pool, 3, &cache),
                                      stream_dest(plan, pool, 3, &cache)};
       }},
      {"ScheduleCache::route",
       [](const CompiledBnb& plan, const std::vector<Permutation>& pool) {
         ScheduleCache cache(pool.size());
         RouteScratch scratch;
         std::vector<Delivery> passes(2);
         for (Delivery& pass : passes) {
           for (const Permutation& pi : pool) {
             const auto out = cache.route(plan, pi, scratch);
             pass.insert(pass.end(), out.dest.begin(), out.dest.end());
           }
         }
         return passes;
       }},
      {"flatten_small apply",
       [](const CompiledBnb& plan, const std::vector<Permutation>& pool) {
         return std::vector<Delivery>{replay_dest(plan, pool, false)};
       }},
      {"flatten_small apply8",
       [](const CompiledBnb& plan, const std::vector<Permutation>& pool) {
         return std::vector<Delivery>{replay_dest(plan, pool, true)};
       }},
  };
  return rows;
}

/// The permutation classes of the battery: every permutation at m <= 3,
/// in chunks; seeded random, random BPC and bit reversal at m = 4..6.
std::vector<std::vector<Permutation>> battery_pools(unsigned m, Rng& rng) {
  const std::size_t n = std::size_t{1} << m;
  std::vector<std::vector<Permutation>> pools(1);
  if (m <= 3) {
    Permutation pi = identity_perm(n);
    do {
      if (pools.back().size() == 512) pools.emplace_back();
      pools.back().push_back(pi);
    } while (pi.next_lexicographic());
    return pools;
  }
  pools.back().push_back(bit_reversal_perm(n));
  for (int i = 0; i < 16; ++i) pools.back().push_back(random_bpc_perm(n, rng));
  for (int i = 0; i < 32; ++i) pools.back().push_back(random_perm(n, rng));
  return pools;
}

TEST(SmallSchedule, EveryEntryPointMatchesTheBehavioralNetwork) {
  Rng rng(0x5A110006);
  for (unsigned m = 1; m <= SmallSchedule::kMaxM; ++m) {
    const CompiledBnb plan(m);
    const BnbNetwork reference(m);
    for (const std::vector<Permutation>& pool : battery_pools(m, rng)) {
      Delivery want;
      for (const Permutation& pi : pool) {
        const std::vector<std::uint32_t> dest = reference.route(pi).dest;
        want.insert(want.end(), dest.begin(), dest.end());
      }
      for (const EntryPoint& row : small_entry_points()) {
        const std::vector<Delivery> passes = row.run(plan, pool);
        for (std::size_t pass = 0; pass < passes.size(); ++pass) {
          ASSERT_EQ(passes[pass], want) << row.name << " m=" << m << " pass " << pass;
        }
      }
    }
  }
}

// ---- contracts ----------------------------------------------------------

TEST(SmallSchedule, MisuseTripsContractsInsteadOfReplayingGarbage) {
  Rng rng(0x5A110005);
  RouteScratch scratch;

  // m = 7 is one past the lane: 128 lines no longer fit a state word.
  const CompiledBnb large(SmallSchedule::kMaxM + 1);
  EXPECT_FALSE(large.small_capable());
  const Permutation big_pi = random_perm(large.inputs(), rng);
  EXPECT_THROW((void)large.compile_small(big_pi, scratch), contract_violation);

  // An empty schedule must not deliver, and an empty replay must not
  // replay wide or be flattened from nothing.
  const CompiledBnb plan(4);
  const Permutation pi = random_perm(plan.inputs(), rng);
  const SmallSchedule empty;
  EXPECT_FALSE(empty.solved());
  EXPECT_THROW((void)plan.apply_small(empty, pi, scratch), contract_violation);
  EXPECT_THROW((void)plan.flatten_small(empty), contract_violation);
  const SmallReplay no_steps;
  EXPECT_FALSE(no_steps.solved());
  std::array<std::uint64_t, 8> lanes{};
  EXPECT_THROW(no_steps.apply8(lanes.data()), contract_violation);

  // A schedule compiled for another network shape must be rejected.
  const CompiledBnb other(5);
  const SmallSchedule wrong_shape =
      other.compile_small(random_perm(other.inputs(), rng), scratch);
  EXPECT_THROW((void)plan.apply_small(wrong_shape, pi, scratch), contract_violation);
  EXPECT_THROW((void)plan.flatten_small(wrong_shape), contract_violation);

  // flatten_small demands a schedule solved FOR THIS plan.
  ControlSchedule unsolved;
  unsolved.reshape(plan.m());
  EXPECT_THROW((void)plan.flatten_small(unsolved), contract_violation);

  // A line map is a permutation of 2^m lines for 1 <= m <= 6, or nothing.
  const std::uint32_t three[3] = {0, 1, 2};
  const std::uint32_t out_of_range[4] = {0, 1, 2, 4};
  const std::uint32_t repeated[4] = {0, 1, 1, 3};
  EXPECT_FALSE(SmallSchedule::from_lines(three).solved());
  EXPECT_FALSE(SmallSchedule::from_lines(out_of_range).solved());
  EXPECT_FALSE(SmallSchedule::from_lines(repeated).solved());
  EXPECT_FALSE(SmallSchedule::from_lines(std::vector<std::uint32_t>(128, 0)).solved());
}

}  // namespace
