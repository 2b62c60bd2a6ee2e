// Runtime-dispatched kernel layer for the compiled routing engine.
//
// Every hot word-parallel pass of CompiledBnb — the arbiter's compress and
// interleave passes, the masked switch exchange, the unshuffle wiring, the
// fused column pass of the bit-sliced datapath (the m address slices plus
// one poison-parity slice moved as packed words), and the slice fill and
// drain around it — and the clean-delivery proof in front of the
// DeliveryAudit classifier are reached through a KernelSet of function
// pointers.  Every tier drives the same datapath; one set per
// implementation tier:
//
//   scalar   portable 64-bit words (PEXT/PDEP when compiled with BMI2) — the
//            reference every other tier is tested against bit for bit;
//   avx2     256-bit kernels (4 words per step);
//   avx512   512-bit kernels (8 words per step, masked tails);
//   neon     128-bit kernels on aarch64.
//
// The active set is chosen ONCE at first use: CPUID (and, on x86, XGETBV
// state checks) picks the best tier the host can execute, and the
// BNB_KERNELS environment variable overrides the choice for testing
// ("scalar", "avx2", "avx512", "neon"; an unknown or unsupported name
// throws).  CompiledBnb captures the set at construction, so a single
// process can also hold plans on different tiers (the equivalence suite
// does exactly that via the explicit-set constructor).
//
// Contract shared by every implementation of a pass (and enforced
// bit-for-bit by tests/test_kernels.cpp against core/bit_pack.hpp):
// little-endian bit order (bit t of word w is line 64*w + t) and the
// zero-tail invariant — bits at positions >= the logical size are zero on
// input and on output, so passes chain without masking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace bnb {
struct Word;  // core/bnb_network.hpp: {uint32 address, 4 padding bytes, uint64 payload}
}  // namespace bnb

namespace bnb::kernels {

enum class Tier : std::uint8_t { kScalar, kAvx2, kAvx512, kNeon };

/// Human-readable tier name ("scalar", "avx2", "avx512", "neon").
[[nodiscard]] const char* tier_name(Tier tier) noexcept;

/// One dispatchable implementation of the engine's word-parallel passes.
/// All sizes follow core/bit_pack.hpp: `nbits` logical bits, arrays of
/// bitpack::words_for(nbits) words, zeroed tails in and out.
struct KernelSet {
  const char* name;  ///< tier_name(tier); also the BNB_KERNELS spelling
  Tier tier;

  /// out[j] = in[2j] for j < nbits/2.
  void (*compress_even)(const std::uint64_t* in, std::size_t nbits,
                        std::uint64_t* out);
  /// out[j] = in[2j+1] for j < nbits/2.
  void (*compress_odd)(const std::uint64_t* in, std::size_t nbits,
                       std::uint64_t* out);
  /// out[j] = in[2j] ^ in[2j+1]: one arbiter up-pass level.
  void (*pair_xor_compress)(const std::uint64_t* in, std::size_t nbits,
                            std::uint64_t* out);
  /// out[2j] = a[j], out[2j+1] = b[j]: one arbiter down-pass level.
  void (*interleave_bits)(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t nbits_each, std::uint64_t* out);
  /// Unshuffle wiring: output group g (2*chunk_bits lines) = even's chunk g
  /// then odd's chunk g.  chunk_bits is a power of two.
  void (*chunk_concat)(const std::uint64_t* even, const std::uint64_t* odd,
                       std::size_t nbits_each, std::size_t chunk_bits,
                       std::uint64_t* out);
  /// Switch exchange on compressed halves: t = (e^o) & ctl; e ^= t; o ^= t.
  void (*masked_exchange)(std::uint64_t* e, std::uint64_t* o,
                          const std::uint64_t* ctl, std::size_t words);
  /// dst[w] ^= src[w] (fault bit-flip overlays).
  void (*xor_words)(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t words);
  /// Fused datapath column pass for ONE packed slice: switch exchange
  /// under `ctl` followed by the chunk_bits unshuffle, i.e. exactly
  ///   compress_even(in) / compress_odd(in) -> masked_exchange -> chunk_concat
  /// in one sweep.  Requires nbits a multiple of 2*chunk_bits (every
  /// CompiledBnb column satisfies this: group divides N).  `tmp` provides
  /// words_for(nbits) words of scratch for implementations that stage the
  /// compressed halves; in and out must not alias.
  void (*slice_pass)(const std::uint64_t* in, std::size_t nbits,
                     const std::uint64_t* ctl, std::size_t chunk_bits,
                     std::uint64_t* tmp, std::uint64_t* out);
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
/// tier (avx512 > avx2 > neon > scalar).  Resolved once, then cached.
[[nodiscard]] const KernelSet& active_kernels();

}  // namespace bnb::kernels
