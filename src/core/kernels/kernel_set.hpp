// Runtime-dispatched kernel layer for the compiled routing engine.
//
// Every hot word-parallel pass of CompiledBnb — a column's tree arbiters
// (one in-word SWAR loop per 64-line word), the fused column pass of the
// bit-sliced datapath (the switch exchange plus the unshuffle wiring, one
// packed address slice at a time), the fused register pass over the
// columns whose boxes fit in one word, and the slice fill and drain around
// them — and the clean-delivery proof in front of the DeliveryAudit
// classifier are reached through a KernelSet of function pointers.  Every
// tier drives the same datapath; one set per implementation tier:
//
//   scalar   portable 64-bit words (PEXT/PDEP when compiled with BMI2) — the
//            reference every other tier is tested against bit for bit;
//   avx2     256-bit kernels (4 words per step);
//   avx512   512-bit kernels (8 words per step, masked tails).
//
// Other architectures (aarch64 included) run the scalar set.
//
// The arbiter and the tail pass are one implementation (solve_core.hpp)
// written over a lane type and compiled into every tier's translation
// unit: one word per step on scalar, 4 on avx2, 8 on avx512.
//
// The active set is chosen ONCE at first use: CPUID (and, on x86, XGETBV
// state checks) picks the best tier the host can execute, and the
// BNB_KERNELS environment variable overrides the choice for testing
// ("scalar", "avx2", "avx512"; an unknown or unsupported name
// throws).  CompiledBnb captures the set at construction, so a single
// process can also hold plans on different tiers (the equivalence suite
// does exactly that via the explicit-set constructor).
//
// Contract shared by every implementation of a pass (and enforced
// bit-for-bit by tests/test_kernels.cpp): little-endian bit order (bit t of
// word w is line 64*w + t) and the zero-tail invariant — bits at positions
// >= the logical size are zero on input and on output, so passes chain
// without masking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace bnb {
struct Word;              // core/bnb_network.hpp: {uint32 address, 4 padding bytes, uint64 payload}
struct ColumnFaultMasks;  // core/fault_hooks.hpp: one column's fault overlay
}  // namespace bnb

namespace bnb::kernels {

enum class Tier : std::uint8_t { kScalar, kAvx2, kAvx512 };

/// Human-readable tier name ("scalar", "avx2", "avx512").
[[nodiscard]] const char* tier_name(Tier tier) noexcept;

/// The in/out record of KernelSet::solve_tail.  Once a main stage's boxes
/// fit in one word, every remaining column permutes lines inside a word, so
/// each word of the slices runs the rest of the network on its own: per
/// column the in-word arbiter on the stage's sorting slice, then the
/// exchange + unshuffle of every slice still moving.  A consumed address
/// slice that matches the line-index pattern at the end of its stage stops
/// moving (every later column is the identity on it).
struct TailJob {
  /// Slice s of the datapath at slices + s * words, updated in place:
  /// m address slices, then the poison parity (slice m).  Slices outside
  /// `live` hold their final value already (frozen consumed slices, the
  /// all-zero parity until a dead crosspoint hits).
  std::uint64_t* slices = nullptr;
  std::size_t words = 0;  ///< words_for(2^m)
  unsigned m = 0;
  std::uint32_t live = 0;  ///< bit s: slice s moves on entry
  /// Tail column c's packed controls land at ctl + c * ctl_stride.
  std::uint64_t* ctl = nullptr;
  std::size_t ctl_stride = 0;
  /// Per tail column, that column's faults (nullptr = clean column); the
  /// whole array is nullptr for a clean route.  Every overlay is word-local
  /// and applied inside the pass, with the same semantics as the columns
  /// before the tail.
  const ColumnFaultMasks* const* faults = nullptr;
  // Outputs: the work the pass executed.
  std::uint64_t slice_words = 0;     ///< slice words moved (passes x words)
  std::uint64_t arbiter_levels = 0;  ///< Eq. 8 levels, summed over columns
};

/// One dispatchable implementation of the engine's word-parallel passes.
/// All sizes follow core/bit_pack.hpp: `nbits` logical bits, arrays of
/// bitpack::words_for(nbits) words, zeroed tails in and out.
struct KernelSet {
  const char* name;  ///< tier_name(tier); also the BNB_KERNELS spelling
  Tier tier;

  /// The switch controls of one column of sp(p) splitters (1 <= p <=
  /// log2 nbits) from the packed sorting bits `bits` (nbits lines), written
  /// to ctl (words_for(nbits / 2) words, bit t = switch t).  Every tree
  /// level inside a 64-line word runs as one SWAR register loop per word;
  /// the levels above 64 lines run the same loop over packed per-word
  /// parities.  A non-null `faults` patches the controls word by word
  /// (stuck flags, then stuck controls); its bit_flip and dead crosspoints
  /// are the caller's.  `work` holds 4 * words_for(words_for(nbits)) + 16
  /// words.  Returns the arbiter levels evaluated (Eq. 8's unit): 2p, or 0
  /// for the arbiter-free sp(1).
  unsigned (*column_arbiter)(const std::uint64_t* bits, std::size_t nbits, unsigned p,
                             const ColumnFaultMasks* faults, std::uint64_t* ctl,
                             std::uint64_t* work);
  /// Fused datapath column pass for ONE packed slice: switch exchange
  /// under `ctl` (pair t = lines 2t, 2t+1 swap when bit t is set) followed
  /// by the chunk_bits unshuffle (within every 2*chunk_bits-line group the
  /// even outputs fill the first chunk, the odd outputs the second) — the
  /// packed form of apply_column_to_lines with group 2*chunk_bits.
  /// Requires nbits a multiple of 2*chunk_bits (every CompiledBnb column
  /// satisfies this: group divides N); in and out must not alias.
  void (*slice_pass)(const std::uint64_t* in, std::size_t nbits,
                     const std::uint64_t* ctl, std::size_t chunk_bits,
                     std::uint64_t* out);
  /// The fused tail of a solve: every column of the main stages whose boxes
  /// span <= 64 lines (the last min(m, 6) stages, all of them when m <= 6)
  /// as one register pass per word — see TailJob.
  void (*solve_tail)(TailJob& job);
  /// Fill the datapath: gather bit a of each of the n line values
  /// into packed slice a, for a < bits (bits < 32): bit t of
  /// slices[a * words_for(n) + w] is bit a of values[64w + t].  Lines past
  /// n pack as zero (the zero-tail invariant).
  void (*pack_slices)(const std::uint64_t* values, std::size_t n, unsigned bits,
                      std::uint64_t* slices);
  /// Leave the datapath: the inverse of pack_slices over bits + 1
  /// slices, re-attaching each line's tag word.  For line t let v be its
  /// bits-bit value from slices 0..bits-1 and p = 2^bits - 1 when slice
  /// `bits` (the poison parity) has bit t set, else 0; then
  ///   values[t] = tag[v ^ p] ^ p.
  /// `tag` holds 2^bits words; bits past n in the slices are ignored.
  void (*unpack_slices)(const std::uint64_t* slices, std::size_t n, unsigned bits,
                        const std::uint64_t* tag, std::uint64_t* values);
  /// Replay a flattened small-N schedule (core/small_schedule.hpp) over 8
  /// INDEPENDENT 64-line states in one instruction stream.  Step s swaps
  /// bits i and i+deltas[s] of every lane for each set bit i of masks[s]
  /// (the classic Benes butterfly:  y = (x ^ (x >> d)) & m;  x ^= y ^
  /// (y << d)).  `lanes` is 8 contiguous words, updated in place; bits the
  /// masks never touch (>= the schedule's line count) pass through
  /// unchanged.  Bit-identical across tiers — the AVX-512 lane runs all 8
  /// words per step in one register, the scalar fallback loops.
  void (*small_apply8)(const std::uint64_t* masks, const std::uint8_t* deltas,
                       std::size_t depth, std::uint64_t* lanes);
  /// Clean-delivery proof over n delivered words (n a power of two,
  /// `requested` the n-entry image of a permutation): true iff EVERY line
  /// satisfies
  ///   outputs[line].payload < n,  outputs[line].address == line,
  ///   requested[outputs[line].payload] == line.
  /// Reads every word; never reads `requested` out of range whatever the
  /// payloads hold; the 4 padding bytes after Word::address are ignored.
  /// DeliveryAudit runs it ahead of its exact classifier.
  bool (*delivery_clean)(const std::uint32_t* requested, const Word* outputs,
                         std::size_t n);
};

/// The portable reference set (always available, every host).
[[nodiscard]] const KernelSet& scalar_kernels() noexcept;

/// Every set this build can execute on this host, scalar first, in
/// ascending tier order.  Stable storage for the life of the process.
[[nodiscard]] std::span<const KernelSet* const> supported_kernel_sets();

/// Look up a supported set by its BNB_KERNELS spelling; nullptr when the
/// name is unknown, not compiled in, or the host cannot execute it.
[[nodiscard]] const KernelSet* find_kernels(std::string_view name);

/// The set named by the BNB_KERNELS environment variable, or nullptr when
/// the variable is unset.  Throws std::runtime_error for a name that is not
/// runnable here (misspelled override must fail loudly, not fall back).
[[nodiscard]] const KernelSet* kernels_from_env();

/// The process-wide default: BNB_KERNELS if set, else the best supported
/// tier (avx512 > avx2 > scalar).  Resolved once, then cached.
[[nodiscard]] const KernelSet& active_kernels();

}  // namespace bnb::kernels
