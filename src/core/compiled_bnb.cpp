#include "core/compiled_bnb.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/expect.hpp"
#include "core/bit_pack.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_context.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace bnb {

namespace {

// Main stages whose boxes fit in one 64-line word run as the fused tail
// (KernelSet::solve_tail): the last min(m, 6) of them.
constexpr unsigned kTailStages = 6;

/// Columns of the fused tail: stages of k <= 6 columns each.
constexpr std::size_t tail_columns(unsigned m) noexcept {
  const unsigned k = m < kTailStages ? m : kTailStages;
  return std::size_t{k} * (k + 1) / 2;
}

/// Write {address, payload} into one Word with a single 16-byte store (the
/// 4 padding bytes after the address are written as zero).
inline void store_word(Word* dst, std::uint32_t address, std::uint64_t payload) noexcept {
  static_assert(sizeof(Word) == 16 && offsetof(Word, payload) == 8 &&
                    std::endian::native == std::endian::little,
                "Word is {uint32 address, 4 padding bytes, uint64 payload}");
#if defined(__SSE2__)
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                   _mm_set_epi64x(static_cast<long long>(payload), address));
#else
  const std::uint64_t raw[2] = {address, payload};
  std::memcpy(static_cast<void*>(dst), raw, sizeof raw);
#endif
}

/// The one replay loop behind apply, apply_small and apply_packed_lines:
/// input j's word {address pi(j), payload j} lands on the line the schedule
/// composes to.  `line_pair(j)` returns the lines of inputs j and j + 1 in
/// the low and high dword; each line is masked into [0, n), which keeps a
/// torn seqlock read memory-safe (its output is discarded by the caller).
/// N = 2^m is even, so the pairs cover every input without a tail test.
/// Returns self_routed: no address differs from its line.
template <class LinePair>
bool deliver_pairs(std::size_t n, const std::uint32_t* address_of, LinePair line_pair,
                   std::uint32_t* dest, Word* outputs) noexcept {
  const std::uint64_t mask = (n - 1) * 0x0000000100000001ULL;  // both lanes
  std::uint64_t mismatch = 0;
  for (std::size_t j = 0; j < n; j += 2) {
    const std::uint64_t lines = line_pair(j) & mask;
    std::uint64_t addresses;
    std::memcpy(&addresses, address_of + j, sizeof addresses);
    std::memcpy(dest + j, &lines, sizeof lines);
    store_word(outputs + static_cast<std::uint32_t>(lines),
               static_cast<std::uint32_t>(addresses), j);
    store_word(outputs + (lines >> 32), static_cast<std::uint32_t>(addresses >> 32), j + 1);
    mismatch |= addresses ^ lines;
  }
  return mismatch == 0;
}

}  // namespace

// ---- ControlSchedule --------------------------------------------------

void ControlSchedule::reshape(unsigned m) {
  BNB_EXPECTS(m >= 1 && m < 26);
  // resize() keeps capacity: a slot that alternates copy-outs and solves
  // re-shapes without allocating.
  m_ = m;
  line_of_input_.resize(std::size_t{1} << m);
  solved_ = false;
}

// ---- RouteScratch -----------------------------------------------------

void RouteScratch::prepare(const CompiledBnb& plan) {
  if (prepared_for(plan)) return;
  const unsigned m = plan.m();
  const std::size_t n = plan.inputs();
  const std::size_t words = bitpack::words_for(n);
  state_.assign(n, 0);
  entry_.assign(n, 0);
  bits_.assign(words, 0);
  ctl_.assign(tail_columns(m) * plan.control_words(), 0);
  work_.assign(plan.work_words(), 0);
  // m address slices, the poison parity, the arbiter tap's drift.
  const std::size_t q = static_cast<std::size_t>(m) + 2;
  slices_.assign(q * words, 0);
  spare_slices_.assign(q * words, 0);
  outputs_.assign(n, Word{});
  dest_.assign(n, 0);
  schedule_.reshape(m);
  m_ = m;
  n_ = n;
  words_ = words;
}

bool RouteScratch::prepared_for(const CompiledBnb& plan) const noexcept {
  return m_ == plan.m() && m_ != 0 &&
         words_ == bitpack::words_for(plan.inputs());
}

// ---- CompiledBnb ------------------------------------------------------

CompiledBnb::CompiledBnb(unsigned m, const kernels::KernelSet* kernels)
    : m_(m), ks_(kernels != nullptr ? kernels : &kernels::active_kernels()) {
  BNB_EXPECTS(m >= 1 && m < 26);
  columns_.reserve(static_cast<std::size_t>(m) * (m + 1) / 2);
  for (unsigned i = 0; i < m; ++i) {
    const unsigned k = m - i;  // BSN(i, *) spans 2^k lines, k columns
    for (unsigned j = 0; j < k; ++j) {
      const unsigned p = k - j;  // column j holds splitters sp(p)
      const bool update = (j + 1 < k);
      std::uint32_t group;
      if (update) {
        group = std::uint32_t{1} << p;  // intra-BSN U_p^k unshuffle
      } else if (i + 1 < m) {
        group = std::uint32_t{1} << k;  // main U_k^m unshuffle
      } else {
        group = 2;  // network output column: bare exchange
      }
      columns_.push_back(Column{i, j, p, group, update});
    }
  }
  // Kernel-tier dispatch accounting: which tier every plan bound (CPUID
  // dispatch or explicit pin).  Plan construction is cold — the registry
  // lookup is off every route path.
  obs::MetricsRegistry::global()
      .counter(std::string("bnb_kernel_plans_total_") + ks_->name,
               "CompiledBnb plans bound to this kernel tier")
      .inc();
  if (small_capable()) {
    small_routes_ = &obs::MetricsRegistry::global().counter(
        "bnb_small_route_total",
        "routes served by the register-resident small-N lane");
  }
}

std::size_t CompiledBnb::control_words() const noexcept {
  return bitpack::words_for(inputs() / 2);
}

std::size_t CompiledBnb::work_words() const noexcept {
  const std::size_t words = bitpack::words_for(inputs());
  // column_controls' advance of the bits (one slice pass's output), or the
  // arbiter's levels above 64 lines: 2 words per 64 nodes per level of six,
  // which 4 * words_for(words) + 16 bounds for m < 26.
  return std::max(words, 4 * bitpack::words_for(words) + 16);
}

void CompiledBnb::column_controls(std::size_t column, std::uint64_t* bits,
                                  std::uint64_t* ctl, std::uint64_t* work,
                                  const ColumnFaultMasks* faults) const {
  BNB_EXPECTS(column < columns_.size());
  BNB_EXPECTS(bits != nullptr && ctl != nullptr && work != nullptr);
  const Column& col = columns_[column];
  const std::size_t n = inputs();
  const std::size_t words = bitpack::words_for(n);
  if (faults != nullptr) check_fault_shapes(*faults, col.p);
  if (faults != nullptr && !faults->bit_flip.empty()) {
    // Broken bit-slice links into this column: arbiter and slice data both
    // see the inverted bit (the words — the other slices — do not).
    for (std::size_t w = 0; w < words; ++w) bits[w] ^= faults->bit_flip[w];
  }
  (void)ks_->column_arbiter(bits, n, col.p, faults, ctl, work);
  if (col.update_bits) {
    // Advance the packed bits through the switch column and the U_p^k
    // unshuffle: exchanged pairs swap, then even outputs fill each
    // splitter's upper half, odd its lower.
    ks_->slice_pass(bits, n, ctl, col.group / 2, work);
    std::copy(work, work + words, bits);
  }
}

void CompiledBnb::check_fault_shapes(const ColumnFaultMasks& faults, unsigned p) const {
  const std::size_t half_words = control_words();
  if (!faults.bit_flip.empty()) BNB_EXPECTS(faults.bit_flip.size() == bitpack::words_for(inputs()));
  if (!faults.flag_mask.empty()) {
    BNB_EXPECTS(p >= 2);  // sp(1) has no arbiter flags to freeze
    BNB_EXPECTS(faults.flag_mask.size() == half_words && faults.flag_val.size() == half_words);
  }
  if (!faults.ctl_and.empty()) {
    BNB_EXPECTS(faults.ctl_and.size() == half_words && faults.ctl_or.size() == half_words);
  }
}

const std::uint64_t* CompiledBnb::route_sliced(RouteScratch& s, ControlTrace* trace,
                                               const EngineFaults* faults) const {
  const std::size_t n = inputs();
  const std::size_t W = s.words_;
  const std::size_t cw = control_words();
  std::uint64_t* sl = s.slices_.data();  // address slices, parity, drift
  std::uint64_t* sp = s.spare_slices_.data();
  std::uint64_t* state = s.state_.data();
  std::uint64_t* entry = s.entry_.data();
  const unsigned parity = m_;
  const unsigned drift = m_ + 1;
  const auto bit = [](unsigned slice) { return std::uint32_t{1} << slice; };
  RouteScratch::SolveWork& work = s.work_count_;
  work = {};

  // Only the addresses cross the columns.  They are a bijection, so the
  // address a line delivers names the word that entered with it: keep that
  // entry word (input index << 32 | address) per address as the inverse
  // permutation, and slice only the m address bits.  The parity slice
  // starts clear in both buffers.
  for (std::size_t j = 0; j < n; ++j) {
    entry[static_cast<std::uint32_t>(state[j])] = state[j];
  }
  ks_->pack_slices(state, n, m_, sl);
  std::fill(sl + parity * W, sl + (parity + 1) * W, 0);
  std::fill(sp + parity * W, sp + (parity + 1) * W, 0);
  // The slices that move: every address bit at first.  The all-zero parity
  // joins when a dead crosspoint can set it, the drift when a fault makes
  // the arbiter's tap differ from the sorting slice; a consumed address
  // slice leaves once it matches the line-index pattern.
  std::uint32_t live = bit(m_) - 1;
  const auto join = [&](unsigned slice) {
    if ((live & bit(slice)) == 0) std::fill(sl + slice * W, sl + (slice + 1) * W, 0);
    live |= bit(slice);
  };

  const unsigned tail_stages = std::min(m_, kTailStages);
  std::size_t col_idx = 0;
  for (unsigned stage = 0; stage + tail_stages < m_; ++stage) {
    // The slices travel with the lines, so the stage's sorting bit is
    // already packed: the arbiter taps it at the stage entry (plus the
    // drift once faults make the tap diverge).
    const unsigned k = m_ - stage;
    const unsigned sort = k - 1;
    live &= ~bit(drift);
    for (unsigned j = 0; j < k; ++j, ++col_idx) {
      const Column& col = columns_[col_idx];
      const ColumnFaultMasks* fcol =
          faults != nullptr ? faults->column(col_idx) : nullptr;
      std::uint64_t* ctl = s.ctl_.data();
      if (fcol != nullptr) {
        check_fault_shapes(*fcol, col.p);
        if (!fcol->bit_flip.empty()) {
          // Broken bit-slice links into this column: the arbiter's tap sees
          // the inverted bit from here on, the slices do not.
          join(drift);
          for (std::size_t w = 0; w < W; ++w) sl[drift * W + w] ^= fcol->bit_flip[w];
        }
      }
      const std::uint64_t* tap = sl + sort * W;
      if ((live & bit(drift)) != 0) {
        for (std::size_t w = 0; w < W; ++w) s.bits_[w] = tap[w] ^ sl[drift * W + w];
        tap = s.bits_.data();
      }
      work.arbiter_levels += ks_->column_arbiter(tap, n, col.p, fcol, ctl, s.work_.data());
      if (trace != nullptr) {
        trace->column_controls.emplace_back(ctl, ctl + static_cast<std::ptrdiff_t>(cw));
      }
      if (fcol != nullptr && !fcol->dead.empty()) {
        // Poison = every ADDRESS bit flipped (dead_crosspoint_poison):
        // bit-sliced, that is bit `line` of each of the m address slices.
        // The parity slice flips with them, so the drain can undo the
        // poison to find the word's entry address; the drift flips too, so
        // the tap keeps the value it took at the stage entry.
        visit_dead_crosspoint_hits(*fcol, ctl, [&](std::size_t line) {
          join(parity);
          join(drift);
          live |= bit(m_) - 1;  // a poisoned consumed slice moves again
          const std::size_t w = line >> 6;
          const std::uint64_t b = std::uint64_t{1} << (line & 63);
          for (unsigned a = 0; a <= drift; ++a) sl[a * W + w] ^= b;
        });
      }
      // The fused column pass — switch exchange under ctl plus the
      // `group`-line unshuffle — applied to every live slice with the SAME
      // control masks: O(N/64) masked word ops per slice instead of O(N)
      // moves.
      const std::size_t chunk = col.group / 2;
      for (std::uint32_t rest = live; rest != 0; rest &= rest - 1) {
        const auto slice = static_cast<unsigned>(std::countr_zero(rest));
        ks_->slice_pass(sl + slice * W, n, ctl, chunk, sp + slice * W);
      }
      work.slice_passes += static_cast<unsigned>(std::popcount(live));
      std::swap(sl, sp);
    }
    work.columns += k;
    // The stage consumed address bit `sort`: every later column permutes
    // lines only inside blocks where that line-index bit is constant, so a
    // consumed slice equal to the pattern is final.  Copy it once into the
    // spare buffer and stop moving it.  Only faults leave a mismatch.
    for (std::uint32_t rest = live & (bit(m_) - bit(sort)); rest != 0; rest &= rest - 1) {
      const auto slice = static_cast<unsigned>(std::countr_zero(rest));
      const std::uint64_t* v = sl + slice * W;
      bool fixed = true;
      for (std::size_t w = 0; w < W && fixed; ++w) {
        fixed = v[w] == (((w >> (slice - 6)) & 1) != 0 ? ~std::uint64_t{0} : 0);
      }
      if (!fixed) continue;
      std::copy(v, v + W, sp + slice * W);
      live &= ~bit(slice);
    }
  }

  // The tail: every remaining column acts inside one word, so the kernel
  // runs them all per word in registers, writing each column's controls.
  const std::size_t tail_first = col_idx;
  const std::size_t tail_cols = tail_columns(m_);
  std::array<const ColumnFaultMasks*, tail_columns(kTailStages)> tail_faults{};
  bool tail_faulty = false;
  for (std::size_t c = 0; c < tail_cols; ++c) {
    tail_faults[c] = faults != nullptr ? faults->column(tail_first + c) : nullptr;
    if (tail_faults[c] != nullptr) {
      check_fault_shapes(*tail_faults[c], columns_[tail_first + c].p);
      tail_faulty = true;
    }
  }
  kernels::TailJob job;
  job.slices = sl;
  job.words = W;
  job.m = m_;
  job.live = live & ~bit(drift);
  job.ctl = s.ctl_.data();
  job.ctl_stride = cw;
  job.faults = tail_faulty ? tail_faults.data() : nullptr;
  ks_->solve_tail(job);
  work.columns += tail_cols;
  work.slice_passes += job.slice_words / W;
  work.arbiter_levels += job.arbiter_levels;
  if (trace != nullptr) {
    for (std::size_t c = 0; c < tail_cols; ++c) {
      const std::uint64_t* ctl = job.ctl + c * cw;
      trace->column_controls.emplace_back(ctl, ctl + static_cast<std::ptrdiff_t>(cw));
    }
  }

  // Drain: each line's delivered address, un-poisoned where the parity
  // says so, looks up the word that entered with it; the state word keeps
  // the delivered (possibly poisoned) address.
  ks_->unpack_slices(sl, n, m_, entry, state);
  return state;
}

CompiledBnb::Output CompiledBnb::route_impl(RouteScratch& s, ControlTrace* trace,
                                            std::span<const Word> payload_source,
                                            const EngineFaults* faults,
                                            ControlSchedule* capture) const {
  const std::size_t n = inputs();
  BNB_EXPECTS(s.prepared_for(*this));
  if (faults != nullptr && !faults->empty()) {
    BNB_EXPECTS(faults->columns.size() == columns_.size());
  }
  if (trace != nullptr) {
    trace->column_controls.clear();
    trace->column_controls.reserve(columns_.size());
  }
  if (capture != nullptr) {
    // A schedule must describe the CLEAN fabric: replaying it bypasses the
    // per-column fault hooks, so capturing a faulty route would let fault
    // semantics be served from a schedule (or a cache) later.
    BNB_EXPECTS(faults == nullptr || faults->empty());
    capture->reshape(m_);
  }

  const std::uint64_t* state = route_sliced(s, trace, faults);

  bool self_routed = true;
  const bool payload_is_input_index = payload_source.empty();
  for (std::size_t line = 0; line < n; ++line) {
    const std::uint64_t sv = state[line];
    const auto address = static_cast<std::uint32_t>(sv);
    const auto input = static_cast<std::uint32_t>(sv >> 32);
    s.dest_[input] = static_cast<std::uint32_t>(line);
    s.outputs_[line] =
        Word{address, payload_is_input_index ? std::uint64_t{input}
                                             : payload_source[input].payload};
    self_routed &= (address == line);
  }
  if (capture != nullptr) {
    // The composed effect of the decided settings, read off the delivered
    // state: input j landed on line dest_[j].
    std::copy(s.dest_.begin(), s.dest_.end(), capture->line_of_input_.begin());
    capture->solved_ = true;
  }
  return Output{{s.outputs_.data(), n}, {s.dest_.data(), n}, self_routed};
}

CompiledBnb::Output CompiledBnb::route(const Permutation& pi, RouteScratch& scratch,
                                       ControlTrace* trace,
                                       const EngineFaults* faults) const {
  BNB_OBS_TRACE_ROOT(trace_scope);
  BNB_OBS_SPAN(obs_span, obs::Phase::kRoute);
  const std::size_t n = inputs();
  BNB_EXPECTS(pi.size() == n);
  scratch.prepare(*this);
  // The Permutation invariant already guarantees the addresses are a
  // bijection — no O(N) validity re-check on this entry point.
  const std::uint32_t* address_of = pi.image().data();
  for (std::size_t j = 0; j < n; ++j) {
    scratch.state_[j] = (std::uint64_t{j} << 32) | address_of[j];
  }
  if (trace == nullptr && (faults == nullptr || faults->empty())) {
    // The clean hot path IS the solve/apply split: decide the switches into
    // the scratch-owned schedule, then deliver from it.  route_impl already
    // produced the delivered words while solving, so "apply" here is the
    // mapping copy route_impl performs for the capture — output identical
    // to the historic fused path by construction.
    return route_impl(scratch, trace, {}, faults, &scratch.schedule_);
  }
  return route_impl(scratch, trace, {}, faults);
}

void CompiledBnb::solve(const Permutation& pi, RouteScratch& scratch,
                        ControlSchedule& schedule) const {
  BNB_OBS_SPAN(obs_span, obs::Phase::kSolve);
  const std::size_t n = inputs();
  BNB_EXPECTS(pi.size() == n);
  scratch.prepare(*this);
  schedule.reshape(m_);
  const std::uint32_t* address_of = pi.image().data();
  for (std::size_t j = 0; j < n; ++j) {
    scratch.state_[j] = (std::uint64_t{j} << 32) | address_of[j];
  }
  const std::uint64_t* state = route_sliced(scratch, nullptr, nullptr);
  // The composed effect of the decided settings, read off the delivered
  // state: the word on each line names the input it entered at.  A solve
  // delivers nothing, so no output words are built.
  std::uint32_t* line_of = schedule.line_of_input_.data();
  for (std::size_t line = 0; line < n; ++line) {
    line_of[static_cast<std::uint32_t>(state[line] >> 32)] = static_cast<std::uint32_t>(line);
  }
  schedule.solved_ = true;
}

CompiledBnb::Output CompiledBnb::apply(const ControlSchedule& schedule,
                                       const Permutation& pi,
                                       RouteScratch& scratch) const {
  BNB_OBS_SPAN(obs_span, obs::Phase::kApply);
  const std::size_t n = inputs();
  BNB_EXPECTS(pi.size() == n);
  BNB_EXPECTS(schedule.m() == m_ && schedule.solved());
  scratch.prepare(*this);
  // Replay: input j's word (address pi(j), payload j) appears on the line
  // the solved switch settings compose to.  Addresses travel with their
  // words, so the delivered address on that line is pi(j) — exactly the
  // value the fused datapath would have moved there bit for bit.
  const std::uint32_t* line_of = schedule.line_of_input_.data();
  const bool self_routed = deliver_pairs(
      n, pi.image().data(),
      [line_of](std::size_t j) {
        std::uint64_t lines;
        std::memcpy(&lines, line_of + j, sizeof lines);
        return lines;
      },
      scratch.dest_.data(), scratch.outputs_.data());
  return Output{{scratch.outputs_.data(), n}, {scratch.dest_.data(), n}, self_routed};
}

CompiledBnb::Output CompiledBnb::apply_words(const ControlSchedule& schedule,
                                             std::span<const Word> words,
                                             RouteScratch& scratch) const {
  BNB_OBS_SPAN(obs_span, obs::Phase::kApply);
  const std::size_t n = inputs();
  BNB_EXPECTS(words.size() == n);
  BNB_EXPECTS(schedule.m() == m_ && schedule.solved());
  scratch.prepare(*this);
  // Preset switches do not look at addresses: word j lands wherever the
  // schedule's composition sends input j, carrying whatever address field
  // it arrived with.  self_routed then reports whether this payload's
  // addresses agree with the schedule it crossed.
  bool self_routed = true;
  const std::uint32_t* line_of = schedule.line_of_input_.data();
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t line = line_of[j];
    scratch.dest_[j] = line;
    scratch.outputs_[line] = Word{words[j].address, words[j].payload};
    self_routed &= (words[j].address == line);
  }
  return Output{{scratch.outputs_.data(), n}, {scratch.dest_.data(), n}, self_routed};
}

CompiledBnb::Output CompiledBnb::apply_packed_lines(
    const std::atomic<std::uint64_t>* packed, const Permutation& pi,
    RouteScratch& scratch) const {
  // Deliberately NOT wrapped in a kApply span: this is the cache's warm-hit
  // interior, already counted by bnb_cache_hits_total and the probe-length
  // histogram, and the span's two clock reads cost ~25% of an m=7 replay.
  const std::size_t n = inputs();
  BNB_EXPECTS(packed != nullptr);
  BNB_EXPECTS(pi.size() == n);
  scratch.prepare(*this);
  // Same replay loop as apply(), reading the line map one packed word (two
  // lanes) per relaxed atomic load; the caller's seqlock check discards
  // the output of a torn read.
  const bool self_routed = deliver_pairs(
      n, pi.image().data(),
      [packed](std::size_t j) { return packed[j >> 1].load(std::memory_order_relaxed); },
      scratch.dest_.data(), scratch.outputs_.data());
  return Output{{scratch.outputs_.data(), n}, {scratch.dest_.data(), n}, self_routed};
}

SmallSchedule CompiledBnb::compile_small(const Permutation& pi,
                                         RouteScratch& scratch) const {
  BNB_EXPECTS(small_capable());
  // solve() prepares the scratch and its schedule slot itself, so a warm
  // scratch makes this allocation-free end to end.  The solved line map is
  // all any serving path reads (Thm. 2); no Beneš flatten here.
  solve(pi, scratch, scratch.schedule_);
  return SmallSchedule::from_lines(scratch.schedule_.line_of_input());
}

SmallReplay CompiledBnb::flatten_small(const SmallSchedule& schedule) const {
  BNB_EXPECTS(small_capable());
  BNB_EXPECTS(schedule.solved() && schedule.m() == m_);
  return SmallReplay::flatten(schedule, ks_->small_apply8);
}

SmallReplay CompiledBnb::flatten_small(const ControlSchedule& schedule) const {
  BNB_EXPECTS(schedule.m() == m_ && schedule.solved());
  return flatten_small(SmallSchedule::from_lines(schedule.line_of_input()));
}

CompiledBnb::Output CompiledBnb::apply_small(const SmallSchedule& schedule,
                                             const Permutation& pi,
                                             RouteScratch& scratch) const {
  BNB_OBS_SPAN(obs_span, obs::Phase::kSmallApply);
  const std::size_t n = inputs();
  BNB_EXPECTS(pi.size() == n);
  BNB_EXPECTS(schedule.solved() && schedule.m() == m_);
  scratch.prepare(*this);
  // Same delivery contract as apply(): input j's word (address pi(j),
  // payload j) appears on the line the schedule maps it to.
  const bool self_routed = deliver_pairs(
      n, pi.image().data(),
      [&schedule](std::size_t j) {
        return std::uint64_t{schedule.line_of_input(j)} |
               (std::uint64_t{schedule.line_of_input(j + 1)} << 32);
      },
      scratch.dest_.data(), scratch.outputs_.data());
  small_routes_->inc();
  return Output{{scratch.outputs_.data(), n}, {scratch.dest_.data(), n}, self_routed};
}

CompiledBnb::Output CompiledBnb::route_words(std::span<const Word> words,
                                             RouteScratch& scratch,
                                             ControlTrace* trace,
                                             const EngineFaults* faults) const {
  BNB_OBS_TRACE_ROOT(trace_scope);
  BNB_OBS_SPAN(obs_span, obs::Phase::kRoute);
  const std::size_t n = inputs();
  BNB_EXPECTS(words.size() == n);
  scratch.prepare(*this);
  // Self-routing (Theorem 2) assumes the addresses are a permutation of
  // 0..N-1; verify with the packed-bit buffer as a seen-set (no allocation).
  // Faults break the network, never the request, so this always holds.
  std::fill(scratch.bits_.begin(), scratch.bits_.end(), 0);
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t a = words[j].address;
    BNB_EXPECTS(a < n);
    BNB_EXPECTS(bitpack::get_bit(scratch.bits_.data(), a) == 0);
    scratch.bits_[a >> 6] |= std::uint64_t{1} << (a & 63);
  }
  for (std::size_t j = 0; j < n; ++j) {
    scratch.state_[j] = (std::uint64_t{j} << 32) | words[j].address;
  }
  return route_impl(scratch, trace, words, faults);
}

BatchResult CompiledBnb::route_batch(std::span<const Permutation> perms,
                                     unsigned threads,
                                     const EngineFaults* faults) const {
  BNB_EXPECTS(threads >= 1 && threads <= 256);
  const std::size_t n = inputs();

  BatchResult result;
  result.permutations = perms.size();
  result.dest.resize(perms.size() * n);
  if (perms.empty()) {
    result.all_self_routed = true;
    return result;
  }

  // Workers claim contiguous chunks of the batch from one atomic counter
  // (StreamEngine's claim loop): in-order progress inside a chunk, load
  // balance from several chunks per worker, no per-worker queues.  Spawning
  // more workers than chunks is pointless, so the pool size is clamped to
  // the chunk count — the oversubscription guard.
  const std::size_t chunk_size =
      std::max<std::size_t>(1, perms.size() / (std::size_t{8} * threads));
  const std::size_t nchunks = (perms.size() + chunk_size - 1) / chunk_size;
  const auto workers =
      static_cast<unsigned>(std::min<std::size_t>(threads, nchunks));
  std::atomic<std::size_t> next_chunk{0};

  std::atomic<bool> all_ok{true};
  // First worker exception wins; the stop flag drains the remaining work so
  // every thread joins cleanly and the error surfaces on the calling thread
  // instead of std::terminate-ing the process.
  std::atomic<bool> stop{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::size_t first_error_index = 0;
  std::vector<std::size_t> failed_indices;

  auto record_error = [&](std::size_t idx) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (!first_error) {
      first_error = std::current_exception();
      first_error_index = idx;
    }
    // Keep every failing index: concurrent workers may all fail before the
    // stop flag drains the pool, and a multi-fault campaign wants them all.
    failed_indices.push_back(idx);
    stop.store(true, std::memory_order_relaxed);
  };

  auto drain = [&] {
    RouteScratch scratch;
    try {
      scratch.prepare(*this);
    } catch (...) {
      // A scratch failure (bad_alloc) fails the first item of the chunk
      // this worker claims.  With every chunk already claimed, the other
      // workers route the whole batch and there is no item to blame.
      const std::size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk < nchunks) record_error(chunk * chunk_size);
      return;
    }
    for (;;) {
      if (stop.load(std::memory_order_relaxed)) return;
      const std::size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= nchunks) return;  // every chunk claimed
      const std::size_t end = std::min(perms.size(), (chunk + 1) * chunk_size);
      for (std::size_t idx = chunk * chunk_size; idx < end; ++idx) {
        if (stop.load(std::memory_order_relaxed)) return;
        // Each batch item is its own causal unit: a fresh trace id per
        // permutation.
        BNB_OBS_TRACE_ROOT(item_scope);
        try {
          // Per-item validation happens here, inside the worker, so a bad
          // permutation is reported with its batch index rather than tearing
          // the whole call down before any routing starts.
          BNB_EXPECTS(perms[idx].size() == n);
          const Output out = route(perms[idx], scratch, nullptr, faults);
          if (!out.self_routed) all_ok.store(false, std::memory_order_relaxed);
          std::copy(out.dest.begin(), out.dest.end(),
                    result.dest.begin() + static_cast<std::ptrdiff_t>(idx * n));
        } catch (...) {
          record_error(idx);
          return;
        }
      }
    }
  };

  // The workers reference this call's stack, so every exit path joins them
  // (StreamEngine's Crew idiom): a std::thread constructor that throws
  // after some workers started sets stop, joins those, then rethrows.
  std::vector<std::thread> pool;
  try {
    pool.reserve(workers - 1);
    for (unsigned t = 1; t < workers; ++t) pool.emplace_back(drain);
    drain();
  } catch (...) {
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& th : pool) th.join();
    throw;
  }
  for (std::thread& th : pool) th.join();

  if (first_error) {
    std::string what = "route_batch: permutation " +
                       std::to_string(first_error_index) + " of " +
                       std::to_string(perms.size()) + " threw";
    try {
      std::rethrow_exception(first_error);
    } catch (const std::exception& e) {
      what += ": ";
      what += e.what();
    } catch (...) {
      // Non-std exception: the index and cause() still identify it.
    }
    if (failed_indices.size() > 1) {
      what += " (+" + std::to_string(failed_indices.size() - 1) +
              " more worker failure" + (failed_indices.size() > 2 ? "s" : "") + ")";
    }
    throw batch_route_error(first_error_index, first_error, what,
                            std::move(failed_indices));
  }

  result.all_self_routed = all_ok.load();
  return result;
}

}  // namespace bnb
