// The compiled flat routing engine must be bit-identical to the reference
// behavioral router — exhaustively over all N! permutations for m <= 3,
// and over large random samples up to m = 12 — while performing ZERO heap
// allocations in steady state (verified through the counting operator new
// of alloc_count_hook.cpp) and scaling across the batch worker pool.
#include <gtest/gtest.h>

#include <numeric>

#include "alloc_count_hook.hpp"
#include "common/expect.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/bit_pack.hpp"
#include "core/bnb_network.hpp"
#include "core/compiled_bnb.hpp"
#include "core/complexity.hpp"
#include "core/kernels/kernel_set.hpp"
#include "core/schedule_cache.hpp"
#include "core/splitter.hpp"
#include "fabric/staged_router.hpp"
#include "fault/fault_model.hpp"
#include "fault/injection.hpp"
#include "obs/span.hpp"
#include "perm/generators.hpp"

namespace bnb {
namespace {

/// Route one random permutation through `engine` with `scratch`; true iff
/// it self-routed (shape mismatches would throw or mis-route).
bool engine_route_ok(const CompiledBnb& engine, RouteScratch& scratch, Rng& rng) {
  const auto out = engine.route(random_perm(engine.inputs(), rng), scratch);
  return out.self_routed;
}

void expect_equal_routing(const BnbNetwork& ref, const CompiledBnb& engine,
                          RouteScratch& scratch, const Permutation& pi) {
  const auto expected = ref.route(pi);
  const auto got = engine.route(pi, scratch);
  ASSERT_EQ(expected.self_routed, got.self_routed) << pi.to_string();
  ASSERT_EQ(expected.dest.size(), got.dest.size());
  for (std::size_t j = 0; j < expected.dest.size(); ++j) {
    ASSERT_EQ(expected.dest[j], got.dest[j]) << "input " << j << " of " << pi.to_string();
  }
  for (std::size_t line = 0; line < expected.outputs.size(); ++line) {
    ASSERT_EQ(expected.outputs[line], got.outputs[line])
        << "line " << line << " of " << pi.to_string();
  }
}

TEST(CompiledBnb, ExhaustiveAllPermutationsUpToM3) {
  for (unsigned m = 1; m <= 3; ++m) {
    const BnbNetwork ref(m);
    const CompiledBnb engine(m);
    RouteScratch scratch;
    Permutation pi(std::size_t{1} << m);
    std::size_t count = 0;
    do {
      expect_equal_routing(ref, engine, scratch, pi);
      ++count;
    } while (pi.next_lexicographic());
    std::uint64_t expected_count = 1;
    for (std::size_t v = 2; v <= (std::size_t{1} << m); ++v) expected_count *= v;
    EXPECT_EQ(count, expected_count) << "m=" << m;
  }
}

TEST(CompiledBnb, RandomPermutationsMediumSizes) {
  // m = 14 rides along with fewer rounds: its arbiter level stacks are the
  // deepest exercised anywhere and once hid a scratch-sizing overflow.
  constexpr std::pair<unsigned, int> kCases[] = {{6, 1000}, {10, 1000}, {12, 1000}, {14, 40}};
  for (const auto& [m, rounds] : kCases) {
    const BnbNetwork ref(m);
    const CompiledBnb engine(m);
    RouteScratch scratch;
    Rng rng(0xE0E0 + m);
    for (int round = 0; round < rounds; ++round) {
      const Permutation pi = random_perm(std::size_t{1} << m, rng);
      const auto expected = ref.route(pi);
      const auto got = engine.route(pi, scratch);
      ASSERT_TRUE(got.self_routed) << "m=" << m << " round " << round;
      ASSERT_EQ(expected.self_routed, got.self_routed);
      for (std::size_t j = 0; j < expected.dest.size(); ++j) {
        ASSERT_EQ(expected.dest[j], got.dest[j]) << "m=" << m << " round " << round;
      }
      for (std::size_t line = 0; line < expected.outputs.size(); ++line) {
        ASSERT_EQ(expected.outputs[line], got.outputs[line]) << "m=" << m;
      }
    }
  }
}

TEST(CompiledBnb, RouteWordsCarriesPayloads) {
  Rng rng(0xABCD);
  for (const unsigned m : {2U, 5U, 8U}) {
    const std::size_t n = std::size_t{1} << m;
    const BnbNetwork ref(m);
    const CompiledBnb engine(m);
    RouteScratch scratch;
    for (int round = 0; round < 20; ++round) {
      const Permutation pi = random_perm(n, rng);
      std::vector<Word> words(n);
      for (std::size_t j = 0; j < n; ++j) words[j] = Word{pi(j), rng.next()};
      const auto expected = ref.route_words(words);
      const auto got = engine.route_words(words, scratch);
      ASSERT_EQ(expected.self_routed, got.self_routed);
      for (std::size_t line = 0; line < n; ++line) {
        ASSERT_EQ(expected.outputs[line], got.outputs[line]) << "m=" << m;
      }
    }
  }
}

TEST(CompiledBnb, RouteWordsValidatesAddresses) {
  const CompiledBnb engine(3);
  RouteScratch scratch;
  std::vector<Word> words(8);
  for (std::size_t j = 0; j < 8; ++j) words[j] = Word{static_cast<std::uint32_t>(j), 0};
  words[3].address = 5;  // duplicate 5, missing 3
  EXPECT_THROW((void)engine.route_words(words, scratch), contract_violation);
  words[3].address = 99;  // out of range
  EXPECT_THROW((void)engine.route_words(words, scratch), contract_violation);
}

TEST(CompiledBnb, SteadyStateRoutingAllocatesNothing) {
  const unsigned m = 10;
  const CompiledBnb engine(m);
  RouteScratch scratch;
  scratch.prepare(engine);
  ASSERT_TRUE(scratch.prepared_for(engine));

  Rng rng(0x5EED);
  std::vector<Permutation> perms;
  for (int i = 0; i < 8; ++i) perms.push_back(random_perm(engine.inputs(), rng));
  std::vector<Word> words(engine.inputs());
  for (std::size_t j = 0; j < engine.inputs(); ++j) words[j] = Word{perms[0](j), j};

  // Warm-up (first call may still touch lazily prepared state).
  (void)engine.route(perms[0], scratch);

  // The measured region runs with full telemetry live — enabled spans AND
  // a structured trace sink installed — so the zero-allocation guarantee
  // covers the instrumentation too (spans record into preallocated state).
  obs::set_enabled(true);
  obs::SpanTrace span_trace(64);
  obs::set_trace(&span_trace);

  testhook::reset_allocation_count();
  for (const auto& pi : perms) {
    const auto out = engine.route(pi, scratch);
    ASSERT_TRUE(out.self_routed);
  }
  const auto out = engine.route_words(words, scratch);
  ASSERT_TRUE(out.self_routed);
  const std::size_t allocs = testhook::allocation_count();
  obs::set_trace(nullptr);
  EXPECT_EQ(allocs, 0U)
      << "steady-state route (with telemetry live) must not touch the heap";
#if BNB_OBS_COMPILED
  EXPECT_EQ(span_trace.recorded(), static_cast<std::uint64_t>(perms.size()) + 1);
#else
  EXPECT_EQ(span_trace.recorded(), 0U);  // BNB_OBS_OFF: spans compiled out
#endif
}

TEST(CompiledBnb, ScratchPreparesLazilyOnFirstRoute) {
  const CompiledBnb engine(6);
  RouteScratch scratch;
  EXPECT_FALSE(scratch.prepared_for(engine));
  Rng rng(7);
  const auto out = engine.route(random_perm(engine.inputs(), rng), scratch);
  EXPECT_TRUE(out.self_routed);
  EXPECT_TRUE(scratch.prepared_for(engine));
}

TEST(CompiledBnb, ScratchReuseAcrossPlansReChecksShape) {
  // Regression: prepared_for must compare the SHAPE (m and packed word
  // width), not object identity — and a scratch carried to a plan of a
  // different shape must re-prepare instead of routing through stale-sized
  // buffers.
  Rng rng(0x5CA7C);
  const CompiledBnb small(5);
  const CompiledBnb same_shape(5, &kernels::scalar_kernels());
  const CompiledBnb large(9);

  RouteScratch scratch;
  scratch.prepare(small);
  ASSERT_TRUE(scratch.prepared_for(small));
  // Same m, different kernel tier: one scratch serves both plans with no
  // reallocation (every tier drives the same bit-sliced buffers).
  EXPECT_TRUE(scratch.prepared_for(same_shape));
  EXPECT_TRUE(engine_route_ok(same_shape, scratch, rng));
  EXPECT_TRUE(engine_route_ok(small, scratch, rng));

  // Different m: the shape check must fail and the next route re-prepare.
  EXPECT_FALSE(scratch.prepared_for(large));
  EXPECT_TRUE(engine_route_ok(large, scratch, rng));
  EXPECT_TRUE(scratch.prepared_for(large));
  EXPECT_FALSE(scratch.prepared_for(small));

  // And back down: shrinking is a re-prepare too, not an out-of-bounds ride
  // on the larger buffers.
  EXPECT_TRUE(engine_route_ok(small, scratch, rng));
  EXPECT_TRUE(scratch.prepared_for(small));
}

TEST(CompiledBnb, FirstColumnControlsMatchSplitterReference) {
  // Column 0 is the single sp(m) of main stage 0: its packed controls must
  // equal the scalar Splitter's, which exercises the word-parallel arbiter
  // against the independent tree implementation.
  Rng rng(0xC0117);
  for (const unsigned m : {2U, 3U, 5U, 7U, 9U}) {
    const std::size_t n = std::size_t{1} << m;
    const CompiledBnb engine(m);
    const Splitter sp(m);
    for (int round = 0; round < 25; ++round) {
      const Permutation pi = random_perm(n, rng);
      RouteScratch scratch;
      ControlTrace trace;
      (void)engine.route(pi, scratch, &trace);
      ASSERT_EQ(trace.column_controls.size(), m * (m + 1) / 2);

      std::vector<std::uint8_t> bits(n);
      for (std::size_t j = 0; j < n; ++j) {
        bits[j] = static_cast<std::uint8_t>(bit_of(pi(j), m - 1));
      }
      const auto ref = sp.route(bits);
      for (std::size_t t = 0; t < n / 2; ++t) {
        ASSERT_EQ(ref.controls[t], bitpack::get_bit(trace.column_controls[0].data(), t))
            << "m=" << m << " switch " << t;
      }
    }
  }
}

TEST(CompiledBnb, BatchMatchesSequentialRouting) {
  const unsigned m = 8;
  const CompiledBnb engine(m);
  const std::size_t n = engine.inputs();
  Rng rng(0xBA7C);
  std::vector<Permutation> perms;
  for (int i = 0; i < 33; ++i) perms.push_back(random_perm(n, rng));

  RouteScratch scratch;
  for (const unsigned threads : {1U, 2U, 4U}) {
    const auto batch = engine.route_batch(perms, threads);
    EXPECT_TRUE(batch.all_self_routed);
    EXPECT_EQ(batch.permutations, perms.size());
    ASSERT_EQ(batch.dest.size(), perms.size() * n);
    for (std::size_t i = 0; i < perms.size(); ++i) {
      const auto expected = engine.route(perms[i], scratch);
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(batch.dest[i * n + j], expected.dest[j])
            << "threads=" << threads << " perm " << i;
      }
    }
  }
}

TEST(CompiledBnb, BatchValidatesInput) {
  const CompiledBnb engine(4);
  // A wrong-size permutation trips a contract check inside a worker; the
  // pool must capture it and rethrow batch_route_error naming the index —
  // never std::terminate the process.
  std::vector<Permutation> perms{Permutation(16), Permutation(8)};  // size mismatch
  bool threw = false;
  try {
    (void)engine.route_batch(perms, 2);
  } catch (const batch_route_error& e) {
    threw = true;
    EXPECT_EQ(e.index(), 1U);
    EXPECT_TRUE(e.cause() != nullptr);
    bool cause_is_contract = false;
    try {
      std::rethrow_exception(e.cause());
    } catch (const contract_violation&) {
      cause_is_contract = true;
    } catch (...) {
    }
    EXPECT_TRUE(cause_is_contract);
    EXPECT_TRUE(std::string(e.what()).find("permutation 1") != std::string::npos);
  }
  EXPECT_TRUE(threw);

  const std::vector<Permutation> none;
  EXPECT_THROW((void)engine.route_batch(none, 0), contract_violation);

  const auto empty = engine.route_batch(none, 4);
  EXPECT_TRUE(empty.all_self_routed);
  EXPECT_EQ(empty.permutations, 0U);
}

TEST(CompiledBnb, BatchChunkClaimsCoverEveryChunkShape) {
  // Workers claiming chunks from one atomic counter must produce the same
  // destinations as sequential routing whatever the chunk geometry: more
  // threads than permutations (the oversubscription guard clamps the pool),
  // prime batch sizes that leave ragged final chunks, and several chunks
  // per worker so the claims interleave across workers.
  const unsigned m = 5;
  const CompiledBnb engine(m);
  const std::size_t n = engine.inputs();
  Rng rng(0x57EA1);
  std::vector<Permutation> perms;
  for (int i = 0; i < 101; ++i) perms.push_back(random_perm(n, rng));

  RouteScratch scratch;
  std::vector<std::uint32_t> expected;
  expected.reserve(perms.size() * n);
  for (const auto& pi : perms) {
    const auto out = engine.route(pi, scratch);
    expected.insert(expected.end(), out.dest.begin(), out.dest.end());
  }

  for (const unsigned threads : {1U, 2U, 3U, 7U, 64U, 256U}) {
    const auto batch = engine.route_batch(perms, threads);
    EXPECT_TRUE(batch.all_self_routed) << "threads=" << threads;
    ASSERT_EQ(batch.dest, expected) << "threads=" << threads;
  }

  // Tiny batch, huge pool request: must still name the right failure index.
  std::vector<Permutation> tiny{perms[0], Permutation(n / 2), perms[1]};
  try {
    (void)engine.route_batch(tiny, 32);
    FAIL() << "expected batch_route_error";
  } catch (const batch_route_error& e) {
    EXPECT_EQ(e.index(), 1U);
  }
}

TEST(CompiledBnb, StagedRouterSharesThePlan) {
  // The column-steppable router must deliver the exact words of both the
  // behavioral reference and the compiled engine, and its per-column shape
  // must match the plan it now runs on.
  Rng rng(0x57A6ED);
  for (const unsigned m : {1U, 3U, 5U, 7U}) {
    const std::size_t n = std::size_t{1} << m;
    const StagedBnbRouter staged(m);
    const BnbNetwork ref(m);
    EXPECT_EQ(staged.total_columns(), m * (m + 1) / 2);
    EXPECT_EQ(staged.plan().columns().size(), staged.total_columns());
    for (int round = 0; round < 30; ++round) {
      const Permutation pi = random_perm(n, rng);
      std::vector<Word> words(n);
      for (std::size_t j = 0; j < n; ++j) words[j] = Word{pi(j), j};
      const auto lines = staged.run_to_completion(words);
      const auto expected = ref.route_words(words);
      ASSERT_EQ(lines.size(), n);
      for (std::size_t line = 0; line < n; ++line) {
        ASSERT_EQ(lines[line], expected.outputs[line]) << "m=" << m;
      }
    }
  }
}

TEST(CompiledBnb, ColumnTableShape) {
  const unsigned m = 5;
  const CompiledBnb engine(m);
  const auto cols = engine.columns();
  ASSERT_EQ(cols.size(), m * (m + 1) / 2);
  std::size_t idx = 0;
  for (unsigned i = 0; i < m; ++i) {
    for (unsigned j = 0; j < m - i; ++j, ++idx) {
      EXPECT_EQ(cols[idx].main_stage, i);
      EXPECT_EQ(cols[idx].nested_stage, j);
      EXPECT_EQ(cols[idx].p, m - i - j);
      if (j + 1 < m - i) {
        EXPECT_TRUE(cols[idx].update_bits);
        EXPECT_EQ(cols[idx].group, 1U << (m - i - j));
      } else {
        EXPECT_FALSE(cols[idx].update_bits);
        EXPECT_EQ(cols[idx].group, i + 1 < m ? 1U << (m - i) : 2U);
      }
    }
  }
}

TEST(CompiledBnb, SolveWorkIsThePapersCost) {
  // The work the datapath loop itself counts on a clean solve, pinned to
  // the paper's closed forms: every column moves only the address slices
  // its box still sorts on (Eq. 3's log P slices of N/2 switches each, so
  // Eq. 6's square pyramid overall), the network has Eq. 7's columns, and
  // the arbiters evaluate Eq. 8's levels.  A route counts the same.
  Rng rng(0x5EC6);
  for (unsigned m = 1; m <= 14; ++m) {
    const std::uint64_t n = std::uint64_t{1} << m;
    const CompiledBnb engine(m);
    RouteScratch scratch;
    ControlSchedule schedule;
    const Permutation pi = random_perm(n, rng);
    engine.solve(pi, scratch, schedule);
    const RouteScratch::SolveWork solved = scratch.last_solve_work();
    EXPECT_EQ(solved.slice_passes * (n / 2), model::bnb_cost_exact(n, 0).sw) << "m=" << m;
    EXPECT_EQ(solved.columns, model::bnb_delay_sw_units(n)) << "m=" << m;
    EXPECT_EQ(solved.arbiter_levels, model::bnb_delay_fn_units(n)) << "m=" << m;

    (void)engine.route(pi, scratch);
    const RouteScratch::SolveWork routed = scratch.last_solve_work();
    EXPECT_EQ(routed.slice_passes, solved.slice_passes) << "m=" << m;
    EXPECT_EQ(routed.columns, solved.columns) << "m=" << m;
    EXPECT_EQ(routed.arbiter_levels, solved.arbiter_levels) << "m=" << m;
  }
}

// ---- solve/apply split -------------------------------------------------

/// solve() + apply() must equal the fused route() bit for bit, and the
/// switch settings ControlTrace observes on the arbiter path, replayed
/// column by column through each column's wiring, must compose to exactly
/// the line map solve() recorded.
void expect_solve_apply_equivalence(const CompiledBnb& engine, const Permutation& pi,
                                    const char* label) {
  RouteScratch route_scratch;
  ControlTrace trace;
  const auto want = engine.route(pi, route_scratch, &trace);

  RouteScratch scratch;
  ControlSchedule schedule;
  engine.solve(pi, scratch, schedule);
  ASSERT_TRUE(schedule.solved()) << label;
  ASSERT_EQ(schedule.m(), engine.m()) << label;

  const std::size_t n = engine.inputs();
  const auto columns = engine.columns();
  ASSERT_EQ(trace.column_controls.size(), columns.size()) << label;
  std::vector<std::uint32_t> input_on(n);  // input_on[line] = input it carries
  std::vector<std::uint32_t> next(n);
  std::iota(input_on.begin(), input_on.end(), 0U);
  for (std::size_t c = 0; c < columns.size(); ++c) {
    ASSERT_EQ(trace.column_controls[c].size(), engine.control_words()) << label;
    apply_column_to_lines<std::uint32_t>(trace.column_controls[c].data(), input_on, next,
                                         columns[c].group);
    input_on.swap(next);
  }
  const auto line_of = schedule.line_of_input();
  ASSERT_EQ(line_of.size(), n) << label;
  for (std::size_t line = 0; line < n; ++line) {
    ASSERT_EQ(line_of[input_on[line]], line)
        << label << ": the traced controls deliver input " << input_on[line]
        << " on a line solve() did not record";
    ASSERT_EQ(want.dest[input_on[line]], line) << label;
  }

  const auto got = engine.apply(schedule, pi, scratch);
  ASSERT_EQ(got.self_routed, want.self_routed) << label;
  for (std::size_t j = 0; j < engine.inputs(); ++j) {
    ASSERT_EQ(got.dest[j], want.dest[j]) << label << " dest[" << j << "]";
    ASSERT_EQ(got.outputs[j], want.outputs[j]) << label << " line " << j;
  }
}

TEST(CompiledBnb, SolveApplyMatchesRouteExhaustiveSmallM) {
  for (unsigned m = 1; m <= 3; ++m) {
    const CompiledBnb engine(m);
    Permutation pi(std::size_t{1} << m);
    do {
      expect_solve_apply_equivalence(engine, pi, "exhaustive");
    } while (pi.next_lexicographic());
  }
}

TEST(CompiledBnb, SolveApplyMatchesRouteRandomizedAcrossTiersUpToM12) {
  Rng rng(0x501E);
  for (const unsigned m : {4U, 6U, 8U, 12U}) {
    const Permutation pi = random_perm(std::size_t{1} << m, rng);
    for (const kernels::KernelSet* set : kernels::supported_kernel_sets()) {
      const CompiledBnb engine(m, set);
      expect_solve_apply_equivalence(engine, pi, set->name);
    }
  }
}

TEST(CompiledBnb, ScheduleIsTierInvariant) {
  // A schedule solved on one tier applies on a plan pinned to any other:
  // the control plane is tier-independent even though the datapaths differ.
  Rng rng(0x501F);
  const unsigned m = 8;
  const Permutation pi = random_perm(std::size_t{1} << m, rng);
  const auto sets = kernels::supported_kernel_sets();

  const CompiledBnb ref(m, sets.front());
  RouteScratch ref_scratch;
  const auto want = ref.route(pi, ref_scratch);

  for (const kernels::KernelSet* solver_set : sets) {
    const CompiledBnb solver(m, solver_set);
    RouteScratch scratch;
    ControlSchedule schedule;
    solver.solve(pi, scratch, schedule);
    for (const kernels::KernelSet* applier_set : sets) {
      const CompiledBnb applier(m, applier_set);
      RouteScratch apply_scratch;
      const auto got = applier.apply(schedule, pi, apply_scratch);
      ASSERT_TRUE(got.self_routed) << solver_set->name << "->" << applier_set->name;
      for (std::size_t j = 0; j < ref.inputs(); ++j) {
        ASSERT_EQ(got.dest[j], want.dest[j])
            << solver_set->name << "->" << applier_set->name << " dest[" << j << "]";
      }
    }
  }
}

TEST(CompiledBnb, ApplyWordsMatchesRouteWords) {
  Rng rng(0x5020);
  for (const unsigned m : {3U, 6U, 9U}) {
    const std::size_t n = std::size_t{1} << m;
    const CompiledBnb engine(m);
    RouteScratch scratch;
    for (int round = 0; round < 10; ++round) {
      const Permutation pi = random_perm(n, rng);
      std::vector<Word> words(n);
      for (std::size_t j = 0; j < n; ++j) words[j] = Word{pi(j), rng.next()};

      const auto want = engine.route_words(words, scratch);
      std::vector<Word> want_out(want.outputs.begin(), want.outputs.end());

      ControlSchedule schedule;
      engine.solve(pi, scratch, schedule);
      const auto got = engine.apply_words(schedule, words, scratch);
      ASSERT_EQ(got.self_routed, want.self_routed) << "m=" << m;
      for (std::size_t line = 0; line < n; ++line) {
        ASSERT_EQ(got.outputs[line], want_out[line]) << "m=" << m << " line " << line;
      }
    }
  }
}

TEST(CompiledBnb, SolveRefusesFaultOverlaysAndApplyRefusesUnsolved) {
  // A schedule describes the CLEAN fabric: route() under a fault overlay
  // must not capture one (enforced structurally — solve has no faults
  // parameter), and apply() of a never-solved schedule must trip its
  // contract rather than replay garbage.
  const CompiledBnb engine(4);
  RouteScratch scratch;
  Rng rng(0x5021);
  const Permutation pi = random_perm(16, rng);

  ControlSchedule unsolved;
  unsolved.reshape(engine.m());
  EXPECT_THROW((void)engine.apply(unsolved, pi, scratch), contract_violation);

  ControlSchedule stale;
  engine.solve(pi, scratch, stale);
  // Re-shaping for a different size invalidates the solved bit.
  const CompiledBnb larger(5);
  stale.reshape(larger.m());
  EXPECT_FALSE(stale.solved());
  EXPECT_THROW((void)larger.apply(stale, random_perm(32, rng), scratch),
               contract_violation);
}

TEST(CompiledBnb, SteadyStateSolveApplyAndCacheHitsAllocateNothing) {
  // The solve/apply split and the cache-hit replay inherit the engine's
  // zero-allocation guarantee: after warm-up, neither path touches the
  // heap (cache MISSES allocate the new schedule by design).
  const unsigned m = 10;
  const CompiledBnb engine(m);
  RouteScratch scratch;
  ControlSchedule schedule;
  ScheduleCache cache(16, /*shards=*/1);  // one shard: no cross-shard eviction skew

  Rng rng(0x5EED5);
  std::vector<Permutation> perms;
  for (int i = 0; i < 4; ++i) perms.push_back(random_perm(engine.inputs(), rng));

  // Warm-up: size the scratch + schedule, fill the cache.
  engine.solve(perms[0], scratch, schedule);
  (void)engine.apply(schedule, perms[0], scratch);
  for (const auto& pi : perms) (void)cache.route(engine, pi, scratch);

  testhook::reset_allocation_count();
  for (const auto& pi : perms) {
    engine.solve(pi, scratch, schedule);
    const auto out = engine.apply(schedule, pi, scratch);
    ASSERT_TRUE(out.self_routed);
  }
  for (const auto& pi : perms) {
    const auto out = cache.route(engine, pi, scratch);
    ASSERT_TRUE(out.self_routed);
  }
  EXPECT_EQ(testhook::allocation_count(), 0U)
      << "steady-state solve/apply and cache hits must not touch the heap";
  EXPECT_EQ(cache.stats().hits, static_cast<std::uint64_t>(perms.size()));
}

// ---- address-only bit-sliced datapath ----------------------------------

/// solve() on every tier must compose to exactly the permutation it was
/// given: the delivered address of each line names its input through the
/// inverse permutation, so line_of_input is pi's image.
void expect_line_of_input_is_image(unsigned m, const Permutation& pi) {
  for (const kernels::KernelSet* set : kernels::supported_kernel_sets()) {
    const CompiledBnb plan(m, set);
    RouteScratch scratch;
    ControlSchedule schedule;
    plan.solve(pi, scratch, schedule);
    ASSERT_TRUE(schedule.solved());
    const auto line_of = schedule.line_of_input();
    const auto image = pi.image();
    ASSERT_TRUE(std::equal(line_of.begin(), line_of.end(), image.begin(), image.end()))
        << set->name << " m=" << m << " " << (m <= 3 ? pi.to_string() : "");
  }
}

TEST(CompiledBnb, SolveLineOfInputIsThePermutationOnEveryTier) {
  for (unsigned m = 1; m <= 3; ++m) {
    Permutation pi = identity_perm(std::size_t{1} << m);
    do {
      expect_line_of_input_is_image(m, pi);
    } while (pi.next_lexicographic());
  }
  Rng rng(0x1D1A);
  for (unsigned m = 4; m <= 14; ++m) {
    const std::size_t n = std::size_t{1} << m;
    expect_line_of_input_is_image(m, random_perm(n, rng));
    expect_line_of_input_is_image(m, random_bpc_perm(n, rng));
    expect_line_of_input_is_image(m, bit_reversal_perm(n));
  }
}

/// A model whose `columns` (flat indices) have every crosspoint of every
/// switch dead: each word crossing such a column is poisoned exactly once
/// there, whatever the switch settings, so a word crossing k of them is
/// hit k times.
FaultModel all_dead_columns(unsigned m, std::initializer_list<std::size_t> columns) {
  FaultModel model(m);
  const CompiledBnb plan(m);
  for (const std::size_t c : columns) {
    const CompiledBnb::Column& col = plan.columns()[c];
    const std::uint32_t splitters = std::uint32_t{1} << (m - col.p);
    const std::uint32_t switches = std::uint32_t{1} << (col.p - 1);
    for (std::uint32_t sp = 0; sp < splitters; ++sp) {
      for (std::uint32_t e = 0; e < switches; ++e) {
        for (std::uint8_t in = 0; in < 2; ++in) {
          for (std::uint8_t out = 0; out < 2; ++out) {
            FaultSpec spec;
            spec.kind = FaultKind::kDeadCrosspoint;
            spec.at = FaultAddress{col.main_stage, col.nested_stage, sp, e};
            spec.in_port = in;
            spec.out_port = out;
            model.add(spec);
          }
        }
      }
    }
  }
  return model;
}

/// Route `pi` under `model` through the behavioral network and through
/// every tier: outputs, dest and self_routed must be bit-identical.
void expect_faulty_routes_agree(const FaultModel& model, const Permutation& pi) {
  const unsigned m = model.m();
  const auto ref = BnbNetwork(m).route_with_faults(pi, compile_network_faults(model));
  const EngineFaults overlay = compile_engine_faults(model);
  for (const kernels::KernelSet* set : kernels::supported_kernel_sets()) {
    const CompiledBnb plan(m, set);
    RouteScratch scratch;
    const auto got = plan.route(pi, scratch, nullptr, &overlay);
    ASSERT_EQ(got.self_routed, ref.self_routed) << set->name << " m=" << m;
    for (std::size_t line = 0; line < plan.inputs(); ++line) {
      ASSERT_EQ(got.outputs[line], ref.outputs[line]) << set->name << " line " << line;
      ASSERT_EQ(got.dest[line], ref.dest[line]) << set->name << " input " << line;
    }
  }
}

TEST(CompiledBnb, DeadCrosspointParityMatchesScalarAndBehavioral) {
  // Every word is poisoned once (odd: addresses delivered flipped), twice
  // (even: the flips cancel but later stages sorted on poisoned bits), and
  // three times; the datapath's parity slice must recover each word's
  // input on every tier exactly as the behavioral model does.
  Rng rng(0xDEAD5);
  for (const unsigned m : {3U, 5U, 8U}) {
    const std::size_t n = std::size_t{1} << m;
    const std::size_t last = static_cast<std::size_t>(m) * (m + 1) / 2 - 1;
    for (const FaultModel& model :
         {all_dead_columns(m, {0}), all_dead_columns(m, {0, last}),
          all_dead_columns(m, {1, 2}), all_dead_columns(m, {0, m, last})}) {
      for (int r = 0; r < 3; ++r) expect_faulty_routes_agree(model, random_perm(n, rng));
      expect_faulty_routes_agree(model, bit_reversal_perm(n));
    }
    // Sparse dead crosspoints: per-word hit counts vary between 0 and many.
    FaultModel sparse(m);
    for (int f = 0; f < 40; ++f) {
      FaultSpec spec = FaultModel::random_campaign(m, 1, rng).front();
      spec.kind = FaultKind::kDeadCrosspoint;
      const unsigned p = sparse.splitter_order(spec.at.main_stage, spec.at.nested_column);
      spec.at.element %= std::uint32_t{1} << (p - 1);
      spec.in_port = static_cast<std::uint8_t>(rng() & 1U);
      spec.out_port = static_cast<std::uint8_t>(rng() & 1U);
      sparse.add(spec);
    }
    for (int r = 0; r < 4; ++r) expect_faulty_routes_agree(sparse, random_perm(n, rng));
  }
}

TEST(CompiledBnb, SteadyStateWideDatapathAllocatesNothingOnEveryTier) {
  // The slice fill, the inverse-permutation buffer and the parity slice all
  // live in the prepared scratch: clean solves, clean routes and routes
  // under a dead-crosspoint overlay touch no heap on any tier.
  const unsigned m = 8;
  const EngineFaults overlay = compile_engine_faults(all_dead_columns(m, {0}));
  Rng rng(0xA110C);
  std::vector<Permutation> perms;
  for (int i = 0; i < 4; ++i) perms.push_back(random_perm(std::size_t{1} << m, rng));
  for (const kernels::KernelSet* set : kernels::supported_kernel_sets()) {
    const CompiledBnb plan(m, set);
    RouteScratch scratch;
    ControlSchedule schedule;
    plan.solve(perms[0], scratch, schedule);
    (void)plan.route(perms[0], scratch, nullptr, &overlay);

    testhook::reset_allocation_count();
    for (const auto& pi : perms) {
      plan.solve(pi, scratch, schedule);
      ASSERT_TRUE(plan.route(pi, scratch).self_routed);
      ASSERT_FALSE(plan.route(pi, scratch, nullptr, &overlay).self_routed);
    }
    EXPECT_EQ(testhook::allocation_count(), 0U) << set->name;
  }
}

TEST(CompiledBnb, SteadyStateSmallLaneAllocatesNothing) {
  // The small lane inherits the same guarantee, on both of its paths.
  // After one warm-up, a serving miss (compile_small's solve + line-map
  // copy, apply_small, insert_small into a cache too small to hold the
  // pool) and the explicit register replay (flatten_small + apply /
  // apply8) are heap-free: every small value lives on the stack.
  const CompiledBnb engine(6);
  RouteScratch scratch;
  ScheduleCache cache(2, /*shards=*/1);
  Rng rng(0x5EED6);
  std::vector<Permutation> perms;
  std::vector<PermutationDigest> digests;
  for (int i = 0; i < 4; ++i) {
    perms.push_back(random_perm(engine.inputs(), rng));
    digests.push_back(digest_permutation(perms.back()));
  }

  // Warm-up: size the scratch.
  (void)engine.apply_small(engine.compile_small(perms[0], scratch), perms[0], scratch);

  testhook::reset_allocation_count();
  for (std::size_t i = 0; i < perms.size(); ++i) {
    const SmallSchedule sched = engine.compile_small(perms[i], scratch);
    ASSERT_TRUE(engine.apply_small(sched, perms[i], scratch).self_routed);
    cache.insert_small(digests[i], sched);
  }
  EXPECT_EQ(testhook::allocation_count(), 0U)
      << "a small-lane miss (compile + deliver + insert) must not touch the heap";
  EXPECT_GT(cache.stats().evictions, 0U) << "every insert past the second evicts";

  testhook::reset_allocation_count();
  std::uint64_t acc = 0;
  for (const auto& pi : perms) {
    const SmallReplay replay = engine.flatten_small(engine.compile_small(pi, scratch));
    std::uint64_t lanes[8] = {1, 2, 4, 8, 16, 32, 64, 128};
    for (int round = 0; round < 64; ++round) {
      acc ^= replay.apply(acc ^ round);
      replay.apply8(lanes);
    }
    acc ^= lanes[0];
  }
  EXPECT_EQ(testhook::allocation_count(), 0U)
      << "flatten + register replay must not touch the heap (acc=" << acc << ")";
}

TEST(GbnTopology, StageUnshuffleTableMatchesNextLine) {
  for (const unsigned m : {2U, 3U, 6U, 9U}) {
    const GbnTopology topo(m);
    for (unsigned stage = 0; stage + 1 < m; ++stage) {
      const auto table = topo.stage_unshuffle(stage);
      ASSERT_EQ(table.size(), topo.inputs()) << "m=" << m;
      for (std::size_t line = 0; line < topo.inputs(); ++line) {
        ASSERT_EQ(table[line], topo.next_line(stage, line))
            << "m=" << m << " stage " << stage;
      }
    }
  }
}

}  // namespace
}  // namespace bnb
