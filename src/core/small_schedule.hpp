// Register-resident control plane for small networks (m <= 6, N <= 64).
//
// When the whole network state fits in one machine word — bit j of a
// uint64_t standing for line j — the general engine's per-route overhead
// (slice packing, per-column kernel dispatch, shared_ptr schedule hand-off)
// dwarfs the actual switching work.  A SmallSchedule is the solved control
// plane of ONE permutation flattened past all of that: every splitter
// column's packed switch settings plus its unshuffle wiring become a short
// fixed array of (mask, delta) butterfly steps, and apply() replays them as
// a straight-line sequence of shift/xor/and ops on registers — no heap, no
// dispatch, no branches in the step body.
//
// The flattening (CompiledBnb::flatten_small) goes one step further than
// expanding the columns in place.  The solved schedule's composed
// input->line mapping is itself a permutation of the N <= 64 state bits,
// and ANY permutation of 2^m elements routes through a Beneš network of
// 2m - 1 butterfly stages (deltas N/2, N/4, ..., 2, 1, 2, ..., N/4, N/2).
// So instead of replaying the m(m+1)/2 columns' exchanges and unshuffles
// step for step (71 steps at m = 6), flatten_small re-routes the COMPOSED
// permutation through a Beneš decomposition: at most 11 steps at m = 6,
// short enough that a whole replay fits a single out-of-order window.
// All-zero stages are dropped, so near-identity traffic replays in a
// handful of ops and the identity in none.
// Because a butterfly step permutes the 64 state bits, apply() is linear
// over XOR: proving bit-identity on the 2^m single-bit inputs proves it for
// every payload (tests/test_small_schedule.cpp does exactly that against
// CompiledBnb::route on every kernel tier).
//
// apply8() replays the same steps over 8 INDEPENDENT lane words through the
// kernel tier captured at flatten time — one AVX-512 register holds all 8
// networks, the scalar fallback loops and is bit-identical.
//
// A SmallSchedule is trivially copyable plain data (~0.2 KB): it is cached
// BY VALUE in ScheduleCache's small lane and handed through StreamEngine
// slots with no shared_ptr churn.  Default-constructed means "empty";
// solved() discriminates.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/expect.hpp"

namespace bnb {

class CompiledBnb;

class SmallSchedule {
 public:
  /// Largest network the flat replay serves: m <= 6, i.e. N <= 64 lines —
  /// one uint64_t of state.
  static constexpr unsigned kMaxM = 6;
  static constexpr std::size_t kMaxLines = 64;
  /// Worst-case step count: the Beneš decomposition of the composed
  /// permutation needs at most 2m - 1 butterfly stages (11 at m = 6).
  static constexpr std::size_t kMaxDepth = 2 * kMaxM - 1;

  SmallSchedule() = default;

  /// True once CompiledBnb::compile_small / flatten_small populated this.
  [[nodiscard]] bool solved() const noexcept { return m_ != 0; }
  [[nodiscard]] unsigned m() const noexcept { return m_; }
  [[nodiscard]] std::size_t lines() const noexcept { return std::size_t{1} << m_; }
  /// Number of (mask, delta) steps apply() replays.
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }

  /// The composed effect of the flattened steps: the word entering input j
  /// is delivered on output line line_of_input(j).  Requires j < lines().
  [[nodiscard]] std::uint32_t line_of_input(std::size_t j) const noexcept {
    return line_of_[j];
  }

  /// Replay the schedule over one 64-line state word: bit i of `x` moves to
  /// bit line_of_input(j) when i is the line input j currently occupies —
  /// i.e. apply(1 << j) == 1 << line_of_input(j), and by XOR-linearity any
  /// payload pattern follows.  Bits at positions >= lines() pass through
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
  /// the kernel tier captured at flatten time (AVX-512: one 512-bit
  /// register; scalar fallback bit-identical).  `lanes` is updated in
  /// place.  Requires solved().
  void apply8(std::uint64_t lanes[8]) const {
    BNB_EXPECTS(apply8_ != nullptr);
    apply8_(masks_, deltas_, depth_, lanes);
  }

  // Step accessors (tests and diagnostics; apply() is the fast path).
  [[nodiscard]] std::uint64_t step_mask(std::size_t s) const noexcept { return masks_[s]; }
  [[nodiscard]] unsigned step_delta(std::size_t s) const noexcept { return deltas_[s]; }

  // -- wire form (core/schedule_store.hpp) --------------------------------
  // The serializable fields — everything EXCEPT the apply8 kernel binding,
  // which is a process-local function pointer and must be re-bound from the
  // loading process's own kernel dispatch.  Fixed-size plain data so a Wire
  // can be written/CRC'd/read as raw bytes.

  struct Wire {
    std::uint32_t m = 0;
    std::uint16_t depth = 0;
    std::uint16_t reserved = 0;
    std::uint64_t masks[kMaxDepth] = {};
    std::uint8_t deltas[kMaxDepth] = {};
    std::uint8_t line_of[kMaxLines] = {};
    std::uint8_t pad[5] = {};  ///< explicit tail padding: CRC'd bytes are all defined
  };
  static_assert(2 * kMaxM - 1 == 11 && sizeof(Wire) == 176,
                "Wire layout is part of bnb.schedstore.v3");

  [[nodiscard]] Wire to_wire() const noexcept {
    Wire w;
    w.m = m_;
    w.depth = depth_;
    for (std::size_t s = 0; s < kMaxDepth; ++s) {
      w.masks[s] = masks_[s];
      w.deltas[s] = deltas_[s];
    }
    for (std::size_t j = 0; j < kMaxLines; ++j) w.line_of[j] = line_of_[j];
    return w;
  }

  /// Rebuild from a wire record, binding `apply8` from the CURRENT
  /// process's kernel dispatch (the stored schedule is tier-invariant; the
  /// fn pointer is not portable).  Returns an empty schedule when the wire
  /// fields are out of shape (corrupt record) — callers treat that as a
  /// load failure, never a crash.
  [[nodiscard]] static SmallSchedule from_wire(
      const Wire& w,
      void (*apply8)(const std::uint64_t*, const std::uint8_t*, std::size_t,
                     std::uint64_t*)) noexcept {
    SmallSchedule out;
    if (w.m == 0 || w.m > kMaxM || w.depth > kMaxDepth) return out;
    out.m_ = w.m;
    out.depth_ = w.depth;
    for (std::size_t s = 0; s < kMaxDepth; ++s) {
      out.masks_[s] = w.masks[s];
      out.deltas_[s] = w.deltas[s];
    }
    for (std::size_t j = 0; j < kMaxLines; ++j) {
      out.line_of_[j] = w.line_of[j];
    }
    out.apply8_ = apply8;
    return out;
  }

 private:
  friend class CompiledBnb;
  unsigned m_ = 0;  ///< 0 = empty / unsolved
  std::uint16_t depth_ = 0;
  std::uint64_t masks_[kMaxDepth] = {};
  std::uint8_t deltas_[kMaxDepth] = {};
  std::uint8_t line_of_[kMaxLines] = {};
  /// KernelSet::small_apply8 of the plan that flattened this schedule.
  void (*apply8_)(const std::uint64_t* masks, const std::uint8_t* deltas,
                  std::size_t depth, std::uint64_t* lanes) = nullptr;
};

}  // namespace bnb
