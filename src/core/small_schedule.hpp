// Small networks (m <= 6, N <= 64): the schedule is its line map, and the
// register replay is a separate value built from it.
//
// SmallSchedule is what every serving path reads.  The BNB network routes
// itself (Thm. 2): the solved columns compose to one input->line map, and
// delivering a permutation takes nothing else.  CompiledBnb::compile_small
// is therefore solve plus a copy of that map into a trivially copyable
// 68-byte value.  ScheduleCache's small lane stages it BY VALUE in each
// frame, StreamEngine hands it through its ring cells, and
// CompiledBnb::apply_small delivers from it.  Default-constructed means
// "empty"; solved() discriminates.
//
// SmallReplay is the register-resident replay of one such map, for callers
// that move a 64-bit state word rather than deliver words: bit j of a
// uint64_t stands for line j.  CompiledBnb::flatten_small builds it.  Any
// permutation of 2^m elements routes through a Beneš network of 2m - 1
// butterfly stages (deltas N/2, N/4, ..., 2, 1, 2, ..., N/4, N/2), so the
// flatten re-routes the map through a Waksman looping decomposition into
// at most 11 (mask, delta) steps at m = 6, short enough that a whole
// replay fits a single out-of-order window.  All-zero stages are dropped,
// so near-identity traffic replays in a handful of ops and the identity in
// none.  That decomposition is a central setup the self-routing network
// does not need, so no serving path runs it.
// Because a butterfly step permutes the 64 state bits, apply() is linear
// over XOR: proving bit-identity on the 2^m single-bit inputs proves it for
// every payload (tests/test_small_schedule.cpp does exactly that against
// CompiledBnb::route on every kernel tier).
//
// apply8() replays the same steps over 8 INDEPENDENT lane words through the
// kernel tier bound at flatten time — one AVX-512 register holds all 8
// networks, the scalar fallback loops and is bit-identical.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/expect.hpp"

namespace bnb {

class SmallSchedule {
 public:
  /// Largest network the small lane serves: m <= 6, i.e. N <= 64 lines —
  /// one uint64_t of state.
  static constexpr unsigned kMaxM = 6;
  static constexpr std::size_t kMaxLines = 64;

  SmallSchedule() = default;

  /// The schedule whose input j is delivered on line line_of[j].  Empty
  /// (unsolved) unless line_of has 2^m entries for 1 <= m <= kMaxM and is
  /// a permutation of the lines below 2^m.
  [[nodiscard]] static SmallSchedule from_lines(
      std::span<const std::uint32_t> line_of) noexcept {
    SmallSchedule out;
    const std::size_t n = line_of.size();
    if (n < 2 || n > kMaxLines || !std::has_single_bit(n)) return out;
    std::uint64_t seen = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t line = line_of[j];
      if (line >= n || (seen >> line & 1U) != 0) return out;
      seen |= std::uint64_t{1} << line;
      out.line_of_[j] = static_cast<std::uint8_t>(line);
    }
    out.m_ = static_cast<unsigned>(std::countr_zero(n));
    return out;
  }

  [[nodiscard]] bool solved() const noexcept { return m_ != 0; }
  [[nodiscard]] unsigned m() const noexcept { return m_; }
  [[nodiscard]] std::size_t lines() const noexcept { return std::size_t{1} << m_; }

  /// The word entering input j is delivered on output line
  /// line_of_input(j).  Requires j < lines().
  [[nodiscard]] std::uint32_t line_of_input(std::size_t j) const noexcept {
    return line_of_[j];
  }

 private:
  unsigned m_ = 0;  ///< 0 = empty / unsolved
  std::uint8_t line_of_[kMaxLines] = {};
};

class SmallReplay {
 public:
  /// KernelSet::small_apply8's signature.
  using Apply8 = void (*)(const std::uint64_t* masks, const std::uint8_t* deltas,
                          std::size_t depth, std::uint64_t* lanes);
  /// Worst-case step count: the Beneš decomposition of the map needs at
  /// most 2m - 1 butterfly stages (11 at m = 6).
  static constexpr std::size_t kMaxDepth = 2 * SmallSchedule::kMaxM - 1;

  SmallReplay() = default;

  /// Beneš-decompose `schedule`'s line map, binding `apply8` for apply8().
  /// CompiledBnb::flatten_small calls this with its plan's kernel tier.
  /// Allocation-free.  Requires schedule.solved().
  [[nodiscard]] static SmallReplay flatten(const SmallSchedule& schedule, Apply8 apply8);

  /// True once flatten() populated this.
  [[nodiscard]] bool solved() const noexcept { return m_ != 0; }
  [[nodiscard]] unsigned m() const noexcept { return m_; }
  /// Number of (mask, delta) steps apply() replays.
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }

  /// Replay the steps over one 64-line state word: apply(1 << j) ==
  /// 1 << line_of_input(j) of the flattened schedule, and by XOR-linearity
  /// any payload pattern follows.  Bits at positions >= 2^m pass through
  /// unchanged.  Straight-line, allocation-free, branch-free per step.
  [[nodiscard]] std::uint64_t apply(std::uint64_t x) const noexcept {
    for (std::size_t s = 0; s < depth_; ++s) {
      const unsigned d = deltas_[s];
      const std::uint64_t y = (x ^ (x >> d)) & masks_[s];
      x ^= y ^ (y << d);
    }
    return x;
  }

  /// Replay over 8 independent state words in one instruction stream via
  /// the kernel tier bound at flatten time (AVX-512: one 512-bit register;
  /// scalar fallback bit-identical).  `lanes` is updated in place.
  /// Requires solved().
  void apply8(std::uint64_t lanes[8]) const {
    BNB_EXPECTS(apply8_ != nullptr);
    apply8_(masks_, deltas_, depth_, lanes);
  }

  /// Step s's mask and delta; steps at or past depth() read as zero.
  [[nodiscard]] std::uint64_t step_mask(std::size_t s) const noexcept { return masks_[s]; }
  [[nodiscard]] unsigned step_delta(std::size_t s) const noexcept { return deltas_[s]; }

 private:
  unsigned m_ = 0;  ///< 0 = empty
  std::uint16_t depth_ = 0;
  std::uint64_t masks_[kMaxDepth] = {};
  std::uint8_t deltas_[kMaxDepth] = {};
  Apply8 apply8_ = nullptr;
};

}  // namespace bnb
