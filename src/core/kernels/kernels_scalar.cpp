// Scalar kernel tier: the portable 64-bit reference implementations built
// on core/bit_pack.hpp's word primitives (single PEXT/PDEP instructions
// when compiled with BMI2), exported as the `scalar` set that drives the
// bit-sliced datapath on every host.  Every SIMD tier is tested
// bit-for-bit against these.
#include "core/bit_pack.hpp"
#include "core/kernels/kernel_impl.hpp"
#include "core/kernels/scalar_core.hpp"
#include "core/kernels/solve_core.hpp"

namespace bnb::kernels {
namespace {

// The column arbiter and the fused tail: the shared implementation
// (solve_core.hpp) on single words, compiled here without BMI2.
unsigned column_arbiter_k(const std::uint64_t* bits, std::size_t nbits, unsigned p,
                          const ColumnFaultMasks* faults, std::uint64_t* ctl,
                          std::uint64_t* work) {
  return detail::column_arbiter<std::uint64_t>(bits, nbits, p, faults, ctl, work);
}

void solve_tail_k(TailJob& job) { detail::solve_tail<std::uint64_t>(job); }

// Fused column pass for one packed slice: exchange + unshuffle without
// materializing the compressed halves.  Both shapes keep every output word
// a pure function of one or two input words plus its ctl bits; the loops
// live in scalar_core.hpp because the SIMD tiers reuse them for tails.
void slice_pass_k(const std::uint64_t* in, std::size_t nbits, const std::uint64_t* ctl,
                  std::size_t chunk_bits, std::uint64_t* out) {
  if (chunk_bits <= 32) {
    // Groups fit in a word: out[w] depends on in[w] and ctl half-word w.
    detail::slice_pass_small_scalar(in, 0, bitpack::words_for(nbits), ctl,
                                    static_cast<unsigned>(chunk_bits), out);
    return;
  }
  // Whole-word chunks: compressed word i (pairs 64i..64i+63) lands in run
  // r = i % run of chunk g = i / run; evens fill the group's first run,
  // odds the second.  nbits % (2 * chunk_bits) == 0 makes every run whole.
  detail::slice_pass_runs_scalar(in, 0, nbits / 128, ctl, chunk_bits / 64, out);
}

// Slice fill and drain: a 64x64 bit transpose per 64-line block, pruned to
// the rows the datapath carries (scalar_core.hpp).
void pack_slices_k(const std::uint64_t* values, std::size_t n, unsigned bits,
                   std::uint64_t* slices) {
  detail::pack_slices_scalar(values, n, bits, slices, 0);
}

void unpack_slices_k(const std::uint64_t* slices, std::size_t n, unsigned bits,
                     const std::uint64_t* tag, std::uint64_t* values) {
  detail::unpack_slices_scalar(slices, n, bits, tag, values, 0);
}

// Small-schedule replay over 8 independent lanes: step-outer order loads
// each (mask, delta) once and streams it across the lanes, which the
// compiler unrolls into straight register code (the per-lane body is the
// same butterfly as SmallReplay::apply).
void small_apply8_k(const std::uint64_t* masks, const std::uint8_t* deltas,
                    std::size_t depth, std::uint64_t* lanes) {
  for (std::size_t s = 0; s < depth; ++s) {
    const unsigned d = deltas[s];
    const std::uint64_t m = masks[s];
    for (std::size_t l = 0; l < 8; ++l) {
      const std::uint64_t y = (lanes[l] ^ (lanes[l] >> d)) & m;
      lanes[l] ^= y ^ (y << d);
    }
  }
}

// Clean-delivery proof: the branch-free reference loop (scalar_core.hpp),
// which the SIMD tiers also run on their sub-vector tails.
bool delivery_clean_k(const std::uint32_t* requested, const Word* outputs, std::size_t n) {
  return detail::delivery_clean_scalar(requested, outputs, 0, n);
}

}  // namespace

namespace detail {
const KernelSet kScalarSet{"scalar",
                           Tier::kScalar,
                           &column_arbiter_k,
                           &slice_pass_k,
                           &solve_tail_k,
                           &pack_slices_k,
                           &unpack_slices_k,
                           &small_apply8_k,
                           &delivery_clean_k};
}  // namespace detail

}  // namespace bnb::kernels
