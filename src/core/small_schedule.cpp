#include "core/small_schedule.hpp"

namespace bnb {
namespace {

// Loop-based Beneš routing of one bit permutation.  Any permutation of
// n = 2^m elements routes through 2m - 1 butterfly stages with deltas n/2,
// n/4, ..., 2, 1, 2, ..., n/4, n/2 (Beneš's rearrangeable network;
// Waksman's looping construction decides the switches).  Each subnetwork
// 2-colors its elements — which of every input pair (j, j + half) and
// output pair (d, d + half) crosses to the upper half — by walking the
// cycles of the graph whose edges are exactly those pairings, then recurses
// on the two halves.  Stage masks mark the LOWER partner of each swapped
// pair, matching SmallReplay's butterfly step semantics.  Everything lives
// on the stack (a few hundred bytes per recursion level, depth <= 5): the
// flatten stays allocation-free.
struct BenesRouter {
  std::uint64_t stage_masks[SmallReplay::kMaxDepth] = {};
  std::uint32_t perm[SmallSchedule::kMaxLines] = {};  ///< local dest of position j
  unsigned m = 0;

  /// Route perm[base .. base+n) (values local, 0..n-1); `level` 0 at the
  /// outermost call.  Enter stages land in slot `level`, leave stages in
  /// the mirror slot 2(m-1) - level, the delta-1 middle in slot m - 1.
  void route(unsigned base, unsigned n, unsigned level) {
    std::uint32_t* p = perm + base;
    if (n == 2) {
      if (p[0] == 1) stage_masks[m - 1] |= std::uint64_t{1} << base;
      return;
    }
    const unsigned half = n / 2;
    std::uint32_t inv[SmallSchedule::kMaxLines];
    std::uint8_t side[SmallSchedule::kMaxLines];
    for (unsigned j = 0; j < n; ++j) inv[p[j]] = j;
    for (unsigned j = 0; j < n; ++j) side[j] = 2;  // 2 = undecided
    for (unsigned seed = 0; seed < n; ++seed) {
      if (side[seed] != 2) continue;
      // Walk the alternating cycle: an input-switch edge forces partners
      // onto opposite sides, an output-switch edge forces the two elements
      // sharing an output pair onto opposite sides.  Cycles are disjoint
      // and even, so the 2-coloring always closes consistently.
      unsigned j = seed;
      std::uint8_t s = 0;
      do {
        side[j] = s;
        j ^= half;  // input-switch partner takes the other subnetwork
        s = 1 - s;
        side[j] = s;
        j = inv[p[j] ^ half];  // element sharing j's output switch
        s = 1 - s;
      } while (j != seed);
    }
    // Enter stage: pair (base+j, base+j+half) crosses iff the element at
    // the lower position goes to the upper subnetwork.  Leave stage: pair
    // (base+d, base+d+half) crosses iff output d's element returns from
    // the upper subnetwork.  Both read the pre-recursion inv/side.
    for (unsigned j = 0; j < half; ++j) {
      if (side[j] == 1) stage_masks[level] |= std::uint64_t{1} << (base + j);
      if (side[inv[j]] == 1) {
        stage_masks[2 * (m - 1) - level] |= std::uint64_t{1} << (base + j);
      }
    }
    // Rewire each half's sub-permutation (destinations folded into the
    // half) and recurse.
    std::uint32_t next[SmallSchedule::kMaxLines];
    for (unsigned j = 0; j < half; ++j) {
      const unsigned lower_src = side[j] == 1 ? j + half : j;
      const unsigned upper_src = side[j] == 1 ? j : j + half;
      next[j] = p[lower_src] & (half - 1);
      next[half + j] = p[upper_src] & (half - 1);
    }
    for (unsigned j = 0; j < n; ++j) p[j] = next[j];
    route(base, half, level + 1);
    route(base + half, half, level + 1);
  }
};

}  // namespace

SmallReplay SmallReplay::flatten(const SmallSchedule& schedule, Apply8 apply8) {
  BNB_EXPECTS(schedule.solved());
  const unsigned m = schedule.m();
  const std::size_t n = schedule.lines();
  // Bits at positions >= n are never in any stage mask (masks only cover
  // [base, base + n)), which is the pass-through contract apply documents.
  BenesRouter router;
  router.m = m;
  for (std::size_t j = 0; j < n; ++j) router.perm[j] = schedule.line_of_input(j);
  router.route(0, static_cast<unsigned>(n), 0);
  // Keep only the stages that move something: identity-like traffic
  // replays in a handful of steps, the identity itself in none.
  SmallReplay out;
  std::size_t depth = 0;
  for (unsigned t = 0; t < 2 * m - 1; ++t) {
    if (router.stage_masks[t] == 0) continue;
    const unsigned level = t < m ? t : 2 * (m - 1) - t;
    out.masks_[depth] = router.stage_masks[t];
    out.deltas_[depth] = static_cast<std::uint8_t>(1U << (m - 1 - level));
    ++depth;
  }
  out.m_ = m;
  out.depth_ = static_cast<std::uint16_t>(depth);
  out.apply8_ = apply8;
  return out;
}

}  // namespace bnb
