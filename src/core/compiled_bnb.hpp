// Flat, zero-allocation BNB routing engine.
//
// BnbNetwork (core/bnb_network.hpp) is the readable behavioral model: it
// rebuilds per-box bit vectors and trace-grade splitter results for every
// stage of every call.  CompiledBnb is the throughput engine: it compiles
// the same network ONCE into a flat table of the m(m+1)/2 splitter columns
// (sizes, regroup spans, unshuffle chunk widths) and then routes with
//
//   * one address bit per line, packed 64 lines per uint64_t;
//   * the tree arbiter of every splitter of a column evaluated word-
//     parallel: every tree level inside a 64-line word is one SWAR step
//     over the word, the levels above run the same loop over per-word
//     parities, emitting the switch controls of the whole column as mask
//     words;
//   * the lines carried BIT-SLICED, as in the paper's q-slice nested
//     networks: the stage's sorting slice sets the switches and the other
//     slices follow.  Only the address slices a box still sorts on cross
//     its columns (Eq. 3's log P slices, so Eq. 6's (N/6) log^3 N slice
//     passes per solve): a consumed slice that matches the line-index
//     pattern at the end of its main stage stops moving.  The addresses
//     are a bijection, so each delivered address names its input through
//     the inverse permutation; one extra parity slice records
//     dead-crosspoint poison so faulty routes keep the same slice layout;
//   * once a main stage's boxes fit in one word (the last min(m, 6)
//     stages), every remaining column acts inside a word: they run as one
//     fused register pass per word (KernelSet::solve_tail);
//   * a caller-owned RouteScratch so the steady state performs ZERO heap
//     allocations (first use of a scratch sizes its buffers).
//
// Every word-parallel pass above is reached through a kernels::KernelSet
// (core/kernels/kernel_set.hpp): function pointers bound once at plan
// construction to the best tier the host can execute (scalar, avx2,
// avx512; BNB_KERNELS overrides).  Every tier drives the same datapath.
//
// Controls/trace capture is opt-in (ControlTrace) and off the fast path:
// plain route() computes only destinations and delivered words.
// route_batch() adds a multi-threaded sustained-throughput API on top:
// workers with one scratch each claim contiguous chunks of a span of
// permutations from one atomic counter.  Results are bit-identical to
// BnbNetwork::route_words (tests/test_engine.cpp proves it exhaustively
// for m <= 3), on every kernel tier (tests/test_kernels.cpp).
//
// The control plane and the datapath are split: solve() runs the arbiter
// trees once and materializes a ControlSchedule (the composed input->line
// mapping the decided switches induce); apply() replays a schedule against
// any payload in O(N) with no arbiter work.  route() is exactly solve+apply
// on the clean path, so a repeated permutation served from a ScheduleCache
// (core/schedule_cache.hpp) skips the entire control solve; fault/trace
// routes take the fused path and never touch schedules.
//
// Plans with m <= 6 also serve a small lane (core/small_schedule.hpp):
// compile_small() is solve() plus a copy of the line map into a 68-byte
// SmallSchedule value, which ScheduleCache's small lane holds and
// apply_small() delivers from.  flatten_small() Beneš-decomposes such a map
// into a SmallReplay of at most 2m - 1 register butterfly steps, for
// callers that replay a 64-bit state word; no serving path runs it.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/expect.hpp"
#include "core/bnb_network.hpp"
#include "core/fault_hooks.hpp"
#include "core/kernels/kernel_set.hpp"
#include "core/small_schedule.hpp"
#include "perm/permutation.hpp"

namespace bnb {

namespace obs {
class Counter;
}  // namespace obs

class CompiledBnb;

/// A solved permutation: where each input lands.  The network routes itself
/// (Thm. 2), so the composed input->line map is the whole solution — the
/// software analogue of a fabric whose switches are already set.  solve()
/// materializes it once (running the kernel datapath to decide every
/// arbiter), and apply() replays it against any payload without touching an
/// arbiter tree again.  Schedules are plain data — safe to share read-only
/// across threads and cacheable (core/schedule_cache.hpp): a
/// ScheduleCache::find copy-out is an ordinary solved schedule.  The
/// per-column switch settings are not kept; ControlTrace is the only
/// per-column control export.
class ControlSchedule {
 public:
  ControlSchedule() = default;

  [[nodiscard]] unsigned m() const noexcept { return m_; }
  /// True once solve() (or a cache copy-out) has populated the mapping.
  [[nodiscard]] bool solved() const noexcept { return solved_; }

  /// The word entering input j is delivered on output line
  /// line_of_input()[j].
  [[nodiscard]] std::span<const std::uint32_t> line_of_input() const noexcept {
    return line_of_input_;
  }

  /// Shape this schedule for 2^m lines and mark it unsolved.  Keeps the
  /// line map's capacity, so a schedule that alternates copy-outs and
  /// solves allocates nothing once it has held a map of this size.
  void reshape(unsigned m);

  // -- wire access (core/schedule_cache.cpp) ------------------------------
  // find()'s copy-out fills a reshaped schedule without a plan in hand:
  // lines_data() exposes the map and set_solved() marks it replayable.
  [[nodiscard]] std::uint32_t* lines_data() noexcept { return line_of_input_.data(); }
  void set_solved(bool solved) noexcept { solved_ = solved; }

 private:
  friend class CompiledBnb;
  unsigned m_ = 0;  ///< 0 = unshaped
  bool solved_ = false;
  std::vector<std::uint32_t> line_of_input_;
};

/// Reusable routing workspace.  prepare() (or the first route with this
/// scratch) performs every allocation; after that, routing through any plan
/// of the SAME SHAPE allocates nothing.  Shape = (m, packed word width):
/// two plans of equal m are scratch-compatible regardless of kernel tier,
/// while a plan of different m re-prepares on first use.  A scratch serves
/// one thread.
class RouteScratch {
 public:
  RouteScratch() = default;

  /// Size all buffers for `plan`.  Idempotent for the same shape.
  void prepare(const CompiledBnb& plan);

  /// True when this scratch's buffers fit `plan` exactly: same m and the
  /// same packed word width (words_for(2^m)).  route() re-prepares
  /// automatically when this is false; the explicit check exists for
  /// callers that must guarantee the zero-allocation steady state.
  [[nodiscard]] bool prepared_for(const CompiledBnb& plan) const noexcept;

  /// The scratch-owned ControlSchedule route() solves into.  Exposed for
  /// cache copy-out workflows: a caller can ScheduleCache::find() into this
  /// slot and apply() from it without owning a second schedule —
  /// allocation-free once shaped.
  [[nodiscard]] ControlSchedule& schedule_slot() noexcept { return schedule_; }
  [[nodiscard]] const ControlSchedule& schedule_slot() const noexcept { return schedule_; }

  /// The work the last route or solve through this scratch executed, as
  /// counted by the datapath loop itself (tests pin a clean solve to the
  /// paper's Eqs. 6-8).
  struct SolveWork {
    std::uint64_t columns = 0;         ///< splitter columns evaluated (Eq. 7)
    std::uint64_t slice_passes = 0;    ///< whole-slice column passes (Eq. 6 / (N/2))
    std::uint64_t arbiter_levels = 0;  ///< arbiter levels summed over columns (Eq. 8)
  };
  [[nodiscard]] const SolveWork& last_solve_work() const noexcept { return work_count_; }

 private:
  friend class CompiledBnb;
  unsigned m_ = 0;      ///< 0 = unprepared
  std::size_t n_ = 0;   ///< 2^m_ (cached)
  std::size_t words_ = 0;  ///< bitpack::words_for(n_): packed word width

  std::vector<std::uint64_t> state_;   ///< per line: input index << 32 | address
  std::vector<std::uint64_t> entry_;   ///< entry word (as state_) by address
  std::vector<std::uint64_t> bits_;    ///< packed arbiter tap (faulty routes)
  std::vector<std::uint64_t> ctl_;     ///< packed controls of the current
                                       ///< column, or of every tail column
  std::vector<std::uint64_t> work_;    ///< arbiter levels above 64 lines
  std::vector<std::uint64_t> slices_;  ///< m + 2 bit-slices (m address
                                       ///< bits, the dead-crosspoint poison
                                       ///< parity, then the arbiter tap's
                                       ///< drift from the sorting slice),
                                       ///< slice s at [s * words_, ...)
  std::vector<std::uint64_t> spare_slices_;  ///< double buffer for slices_
  std::vector<Word> outputs_;
  std::vector<std::uint32_t> dest_;
  ControlSchedule schedule_;  ///< route() = solve into here + apply
  SolveWork work_count_;
};

/// Routed batch: destinations flattened permutation-major.
struct BatchResult {
  std::vector<std::uint32_t> dest;  ///< dest[perm * N + input] = output line
  std::size_t permutations = 0;
  bool all_self_routed = false;
};

/// An exception escaped a route_batch worker thread.  The worker captures
/// it and the pool rethrows it on the calling thread as this type, naming
/// the batch index that failed; the original exception is in cause().
/// Under multi-fault campaigns several workers can fail before the stop
/// flag drains the pool — every failing index observed is retained in
/// failed_indices() so concurrent damage is debuggable from one error.
class batch_route_error : public std::runtime_error {
 public:
  batch_route_error(std::size_t index, std::exception_ptr cause,
                    const std::string& what_arg,
                    std::vector<std::size_t> failed = {})
      : std::runtime_error(what_arg),
        index_(index),
        cause_(std::move(cause)),
        failed_(std::move(failed)) {
    if (failed_.empty()) failed_.push_back(index_);
  }

  /// Index into the batch of the FIRST permutation whose route threw (the
  /// one cause() belongs to).
  [[nodiscard]] std::size_t index() const noexcept { return index_; }
  /// The original exception; std::rethrow_exception to recover its type.
  [[nodiscard]] std::exception_ptr cause() const noexcept { return cause_; }

  /// Every failing batch index observed before the pool drained, first
  /// failure included, in the order the failures were recorded.  Always
  /// non-empty and always contains index().
  [[nodiscard]] const std::vector<std::size_t>& failed_indices() const noexcept {
    return failed_;
  }
  /// Failures beyond the first — workers that also failed while the stop
  /// flag propagated.
  [[nodiscard]] std::size_t additional_failures() const noexcept {
    return failed_.size() - 1;
  }

 private:
  std::size_t index_;
  std::exception_ptr cause_;
  std::vector<std::size_t> failed_;
};

/// Opt-in capture of the engine's switch settings (off the fast path).
struct ControlTrace {
  /// column_controls[c] = packed controls of column c: bit t of word w is
  /// the setting of switch 64*w + t, switches numbered top to bottom across
  /// the whole column (0 straight, 1 exchange).  Columns enumerate main
  /// stage 0's BSN columns first, then main stage 1's, and so on — the same
  /// order as CompiledBnb::columns() and StagedBnbRouter.
  std::vector<std::vector<std::uint64_t>> column_controls;
};

class CompiledBnb {
 public:
  /// Compile the N = 2^m BNB network.  Requires 1 <= m < 26.  The plan
  /// binds `kernels` for the life of the object; nullptr (the default)
  /// binds kernels::active_kernels() — the best tier the host can execute,
  /// or the BNB_KERNELS override.  Passing an explicit set pins a tier for
  /// testing or comparison (the equivalence suite routes the same
  /// permutations through one plan per supported tier).
  explicit CompiledBnb(unsigned m, const kernels::KernelSet* kernels = nullptr);

  [[nodiscard]] unsigned m() const noexcept { return m_; }
  [[nodiscard]] std::size_t inputs() const noexcept { return std::size_t{1} << m_; }

  /// The kernel tier this plan routes with.
  [[nodiscard]] const kernels::KernelSet& kernel_set() const noexcept { return *ks_; }

  /// One splitter column of the flattened network.
  struct Column {
    std::uint32_t main_stage;   ///< i: owning main stage
    std::uint32_t nested_stage; ///< j: BSN column within the stage
    std::uint32_t p;            ///< splitters are sp(p), 2^p lines each
    std::uint32_t group;        ///< even/odd regroup span in lines: the
                                ///< splitter size while inside the BSN, the
                                ///< main block size when the main unshuffle
                                ///< follows, 2 for the network's last column
    bool update_bits;           ///< false for the last column of each BSN
                                ///< (the sorted bit is dropped there)
  };

  /// All m(m+1)/2 columns in signal order.
  [[nodiscard]] std::span<const Column> columns() const noexcept { return columns_; }

  /// Views into `scratch`; valid until its next use.
  struct Output {
    std::span<const Word> outputs;        ///< outputs[line] = delivered word
    std::span<const std::uint32_t> dest;  ///< dest[input] = output line
    bool self_routed = false;
  };

  /// Route a permutation: input j carries address pi(j), payload j.
  /// Zero allocations once `scratch` is prepared (unless `trace` is given).
  ///
  /// The clean path is an explicit solve+apply: solve() materializes the
  /// permutation's ControlSchedule in the scratch and apply() delivers from
  /// it — bit-identical to the historic fused route (tests prove it).  A
  /// non-null `faults` overlays the engine with injected hardware faults
  /// (compiled from a FaultModel by fault/injection.hpp): per-column mask
  /// words patch the packed controls/flags/bits, dead crosspoints corrupt
  /// traversing words.  Fault and trace routes take the fused engine path —
  /// their semantics are never served from (or recorded into) a schedule.
  [[nodiscard]] Output route(const Permutation& pi, RouteScratch& scratch,
                             ControlTrace* trace = nullptr,
                             const EngineFaults* faults = nullptr) const;

  // -- solve/apply split (the streaming control plane) --------------------

  /// Decide every switch of the network for `pi` and materialize the
  /// composed input->output-line mapping they induce.  Runs the full kernel
  /// datapath once (arbiter trees and address movement); afterwards the
  /// schedule replays without any arbiter work.  Clean fabric only — fault
  /// overlays must go through route(), which never touches a schedule.
  /// Zero allocations once `scratch` and `schedule` are shaped.
  void solve(const Permutation& pi, RouteScratch& scratch,
             ControlSchedule& schedule) const;

  /// Replay a solved schedule for the permutation it was solved for:
  /// delivers input j (address pi(j), payload j) on line
  /// schedule.line_of_input()[j].  Bit-identical to route(pi) when
  /// `schedule` was solved for `pi` on any kernel tier (controls are
  /// tier-invariant).  O(N) — no arbiter trees, no column passes.
  /// Requires schedule.m() == m() and schedule.solved().
  [[nodiscard]] Output apply(const ControlSchedule& schedule, const Permutation& pi,
                             RouteScratch& scratch) const;

  /// Replay a solved schedule against arbitrary payload words: word j
  /// lands on line schedule.line_of_input()[j] REGARDLESS of its address
  /// field — exactly what a hardware fabric with preset switches does to
  /// whatever stream crosses it.  Addresses are delivered as carried, so
  /// self_routed reports whether this payload matches the schedule.  Same
  /// precondition as apply().
  [[nodiscard]] Output apply_words(const ControlSchedule& schedule,
                                   std::span<const Word> words,
                                   RouteScratch& scratch) const;

  /// Replay straight from a PACKED line map published by the flat
  /// ScheduleCache: packed[w] holds line_of_input(2w) in its low 32 bits
  /// and line_of_input(2w+1) in its high 32 bits, each word loaded with a
  /// relaxed atomic load.  This is the zero-copy seqlock hit path: the
  /// caller validates its slot's sequence AFTER this returns and discards
  /// the output on a torn read, so every line is masked into [0, N) here —
  /// even a concurrently-rewritten map can never index out of bounds.
  /// apply() reads nothing but the line map, so this is bit-identical to
  /// apply() on an untorn map.  Requires N/2 packed words.
  [[nodiscard]] Output apply_packed_lines(const std::atomic<std::uint64_t>* packed,
                                          const Permutation& pi,
                                          RouteScratch& scratch) const;

  // -- small-N lane (core/small_schedule.hpp) ------------------------------

  /// True when this plan's network fits the small lane:
  /// m <= SmallSchedule::kMaxM (N <= 64 lines, one uint64_t of state).
  [[nodiscard]] bool small_capable() const noexcept {
    return m_ <= SmallSchedule::kMaxM;
  }

  /// Solve `pi` and copy the solved input->line map into a SmallSchedule,
  /// the value every serving path caches and delivers from.  Requires
  /// small_capable().  Zero allocations once `scratch` is prepared; the
  /// solve runs through scratch's schedule slot exactly like route().
  [[nodiscard]] SmallSchedule compile_small(const Permutation& pi,
                                            RouteScratch& scratch) const;

  /// Beneš-decompose a schedule's line map into at most 2m - 1 (mask,
  /// delta) butterfly steps replayable entirely in registers, with apply8
  /// bound to this plan's kernel tier.  No serving path needs this; it is
  /// the explicit register-replay API.  Requires small_capable() and a
  /// schedule solved for this plan's m; the ControlSchedule form takes an
  /// explicitly solved schedule.
  [[nodiscard]] SmallReplay flatten_small(const SmallSchedule& schedule) const;
  [[nodiscard]] SmallReplay flatten_small(const ControlSchedule& schedule) const;

  /// Deliver `pi` from a small schedule compiled for it: identical Output
  /// contract to apply(), O(N <= 64), reading only the line map.
  /// Counts into bnb_small_route_total and the small_apply phase span.
  /// Requires `schedule` solved by this plan shape (same m).
  [[nodiscard]] Output apply_small(const SmallSchedule& schedule, const Permutation& pi,
                                   RouteScratch& scratch) const;

  /// Route explicit words.  The public span entry validates that the
  /// addresses form a permutation of 0..N-1 (the route(Permutation) path
  /// skips that O(N) re-check — the Permutation invariant guarantees it).
  [[nodiscard]] Output route_words(std::span<const Word> words, RouteScratch& scratch,
                                   ControlTrace* trace = nullptr,
                                   const EngineFaults* faults = nullptr) const;

  /// Sustained-throughput API: route every permutation of `perms` on a
  /// small worker pool of `threads` workers (one RouteScratch each).
  /// Requires 1 <= threads <= 256.  An exception escaping a worker (e.g. a
  /// contract_violation for a wrong-size permutation) is captured, the pool
  /// drains, and it is rethrown here as batch_route_error with the failing
  /// batch index — a worker exception never std::terminates the process.
  [[nodiscard]] BatchResult route_batch(std::span<const Permutation> perms,
                                        unsigned threads = 1,
                                        const EngineFaults* faults = nullptr) const;

  // -- column-level access (shared with fabric/staged_router) -------------

  /// Words needed for the packed controls of one column (N/2 bits).
  [[nodiscard]] std::size_t control_words() const noexcept;
  /// Words needed for the `work` buffer of column_controls().
  [[nodiscard]] std::size_t work_words() const noexcept;

  /// Compute the packed switch controls of `column` from the packed address
  /// bits, and advance `bits` through the column's switches and its
  /// intra-BSN unshuffle (no-op for a BSN's last column).  `work` must hold
  /// work_words() words; `ctl` control_words().  Allocation-free.
  ///
  /// A non-null `faults` patches this column: incoming packed bits are
  /// XORed with bit_flip, stuck flag wires replace f(2t) (ctl bit becomes
  /// e XOR v there), and stuck controls force their bits last — the faulty
  /// settings also steer the column's own bit-slice update, exactly as the
  /// broadcast hardware would.  (Dead crosspoints are word-path faults;
  /// apply them with visit_dead_crosspoint_hits before moving the lines.)
  void column_controls(std::size_t column, std::uint64_t* bits, std::uint64_t* ctl,
                       std::uint64_t* work,
                       const ColumnFaultMasks* faults = nullptr) const;

  /// Corrupt every line whose word crosses a dead crosspoint of `column`
  /// under the packed settings `ctl`: per hit, fn(line) is invoked so the
  /// caller can poison its own line representation (uint64 state word,
  /// Word, ...).  Shared by route(), the staged router, and diagnosis.
  template <typename F>
  void visit_dead_crosspoint_hits(const ColumnFaultMasks& faults,
                                  const std::uint64_t* ctl, F&& fn) const {
    for_each_dead_hit(faults.dead, ctl, static_cast<F&&>(fn));
  }

 private:
  [[nodiscard]] Output route_impl(RouteScratch& scratch, ControlTrace* trace,
                                  std::span<const Word> payload_source,
                                  const EngineFaults* faults,
                                  ControlSchedule* capture = nullptr) const;
  /// Contract checks on one column's overlay: every mask array is empty or
  /// the column's packed width; stuck flags only where an arbiter exists.
  void check_fault_shapes(const ColumnFaultMasks& faults, unsigned p) const;
  /// The bit-sliced datapath: moves the live address slices (plus the
  /// poison parity once a dead crosspoint hits) through every column and
  /// returns the delivered line state (state_).  Each column's packed
  /// controls are decided into the scratch's control buffer.
  [[nodiscard]] const std::uint64_t* route_sliced(RouteScratch& scratch,
                                                  ControlTrace* trace,
                                                  const EngineFaults* faults) const;

  unsigned m_;
  const kernels::KernelSet* ks_;
  std::vector<Column> columns_;
  /// bnb_small_route_total, resolved once at construction (small plans
  /// only, nullptr otherwise) so apply_small never touches the registry.
  obs::Counter* small_routes_ = nullptr;
};

/// Apply one column's switch exchanges plus its following wiring to a line
/// array: within every `group`-line block, pair (2t, 2t+1) is exchanged iff
/// its control bit is set, then even outputs go to the block's upper half
/// and odd outputs to the lower half.  `group == 2` degenerates to the bare
/// exchange.  cur and nxt must be distinct spans of equal size.
/// Shape misuse throws contract_violation (checked once per call, not per
/// element — the checks stay off the inner loop).
template <typename T>
void apply_column_to_lines(const std::uint64_t* ctl, std::span<const T> cur,
                           std::span<T> nxt, std::size_t group) {
  BNB_EXPECTS(ctl != nullptr);
  BNB_EXPECTS(cur.size() == nxt.size() && cur.data() != nxt.data());
  BNB_EXPECTS(group >= 2 && (group & (group - 1)) == 0 &&
              cur.size() % group == 0);
  const std::size_t n = cur.size();
  const std::size_t half = group / 2;
  for (std::size_t base = 0; base < n; base += group) {
    const std::size_t pair0 = base / 2;
    for (std::size_t j = 0; j < half; ++j) {
      const std::size_t pair = pair0 + j;
      const bool c = ((ctl[pair >> 6] >> (pair & 63)) & 1U) != 0;
      const T a = cur[base + 2 * j];
      const T b = cur[base + 2 * j + 1];
      nxt[base + j] = c ? b : a;
      nxt[base + half + j] = c ? a : b;
    }
  }
}

}  // namespace bnb
