// SmallSchedule correctness: the flattened (mask, delta) butterfly replay
// must be BIT-IDENTICAL to the general engine.  Because every butterfly
// step permutes the 64 state bits, apply() is linear over XOR — so proving
// apply(1 << j) == 1 << route(pi).dest[j] on every single-bit input proves
// the replay for EVERY payload word; we still spot-check dense random
// payloads and the bits-above-N pass-through contract.  Coverage:
// exhaustive m <= 3 (every permutation), randomized + structured m = 4..6,
// on every kernel tier this host supports; apply8() must match eight
// scalar apply() calls lane for lane on each tier; flatten_small of an
// explicitly solved schedule must equal compile_small; apply_small's
// Output must be bit-identical to route/apply; and misuse must trip
// contracts instead of replaying garbage.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "core/compiled_bnb.hpp"
#include "core/kernels/kernel_set.hpp"
#include "core/small_schedule.hpp"
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

/// Flatten `pi` on `plan` and demand the replay is bit-identical to the
/// general route: basis vectors (sufficient by XOR-linearity), dense
/// random payloads, the composed line_of_input map, and apply8 against
/// eight scalar applies.
void expect_flat_equivalence(const CompiledBnb& plan, const Permutation& pi, Rng& rng) {
  const std::size_t n = plan.inputs();
  RouteScratch scratch;
  const auto cold = plan.route(pi, scratch);
  const std::vector<std::uint32_t> dest(cold.dest.begin(), cold.dest.end());

  const SmallSchedule sched = plan.compile_small(pi, scratch);
  ASSERT_TRUE(sched.solved()) << plan.kernel_set().name;
  ASSERT_EQ(sched.m(), plan.m()) << plan.kernel_set().name;
  ASSERT_EQ(sched.lines(), n) << plan.kernel_set().name;
  ASSERT_LE(sched.depth(), SmallSchedule::kMaxDepth) << plan.kernel_set().name;

  // Basis vectors: with XOR-linearity this alone proves every payload.
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_EQ(sched.line_of_input(j), dest[j])
        << plan.kernel_set().name << " line_of_input(" << j << ")";
    ASSERT_EQ(sched.apply(std::uint64_t{1} << j), std::uint64_t{1} << dest[j])
        << plan.kernel_set().name << " basis bit " << j;
  }

  // Dense random payloads, including garbage above bit n: the replay must
  // permute the low n bits per dest[] and leave the high bits untouched.
  std::array<std::uint64_t, 8> lanes{};
  for (std::uint64_t& lane : lanes) lane = rng.next();
  for (const std::uint64_t x : lanes) {
    ASSERT_EQ(sched.apply(x), expected_apply(dest, n, x))
        << plan.kernel_set().name << " payload " << x;
  }

  // apply8: eight independent state words through the tier's wide kernel
  // must match eight scalar replays lane for lane.
  std::array<std::uint64_t, 8> wide = lanes;
  sched.apply8(wide.data());
  for (std::size_t lane = 0; lane < wide.size(); ++lane) {
    ASSERT_EQ(wide[lane], sched.apply(lanes[lane]))
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
  // compile_small is solve + flatten_small; a caller holding an explicitly
  // solved ControlSchedule must get the identical flat program.
  Rng rng(0x5A110003);
  for (const unsigned m : {2U, 4U, 6U}) {
    const CompiledBnb plan(m);
    RouteScratch scratch;
    const Permutation pi = random_perm(plan.inputs(), rng);

    ControlSchedule schedule;
    plan.solve(pi, scratch, schedule);
    const SmallSchedule from_schedule = plan.flatten_small(schedule);
    const SmallSchedule from_perm = plan.compile_small(pi, scratch);

    ASSERT_EQ(from_schedule.m(), from_perm.m()) << "m=" << m;
    ASSERT_EQ(from_schedule.depth(), from_perm.depth()) << "m=" << m;
    for (std::size_t s = 0; s < from_perm.depth(); ++s) {
      ASSERT_EQ(from_schedule.step_mask(s), from_perm.step_mask(s))
          << "m=" << m << " step " << s;
      ASSERT_EQ(from_schedule.step_delta(s), from_perm.step_delta(s))
          << "m=" << m << " step " << s;
    }
    for (std::size_t j = 0; j < plan.inputs(); ++j) {
      ASSERT_EQ(from_schedule.line_of_input(j), from_perm.line_of_input(j))
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

// ---- contracts ----------------------------------------------------------

TEST(SmallSchedule, MisuseTripsContractsInsteadOfReplayingGarbage) {
  Rng rng(0x5A110005);
  RouteScratch scratch;

  // m = 7 is one past the lane: 128 lines no longer fit a state word.
  const CompiledBnb large(SmallSchedule::kMaxM + 1);
  EXPECT_FALSE(large.small_capable());
  const Permutation big_pi = random_perm(large.inputs(), rng);
  EXPECT_THROW((void)large.compile_small(big_pi, scratch), contract_violation);

  // An empty schedule must not replay, scalar or wide.
  const CompiledBnb plan(4);
  const Permutation pi = random_perm(plan.inputs(), rng);
  const SmallSchedule empty;
  EXPECT_FALSE(empty.solved());
  EXPECT_THROW((void)plan.apply_small(empty, pi, scratch), contract_violation);
  std::array<std::uint64_t, 8> lanes{};
  EXPECT_THROW(empty.apply8(lanes.data()), contract_violation);

  // A schedule flattened for another network shape must be rejected.
  const CompiledBnb other(5);
  const SmallSchedule wrong_shape =
      other.compile_small(random_perm(other.inputs(), rng), scratch);
  EXPECT_THROW((void)plan.apply_small(wrong_shape, pi, scratch), contract_violation);

  // flatten_small demands a schedule solved FOR THIS plan.
  ControlSchedule unsolved;
  unsolved.reshape(plan.m());
  EXPECT_THROW((void)plan.flatten_small(unsolved), contract_violation);
}

}  // namespace
