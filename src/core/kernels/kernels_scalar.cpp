// Scalar kernel tier: the portable 64-bit reference implementations from
// core/bit_pack.hpp (single PEXT instructions when compiled with BMI2),
// exported as the `scalar` set that drives the bit-sliced datapath on every
// host.  Every SIMD tier is tested bit-for-bit against these.
#include "core/bit_pack.hpp"
#include "core/kernels/kernel_impl.hpp"
#include "core/kernels/scalar_core.hpp"

namespace bnb::kernels {
namespace {

void compress_even_k(const std::uint64_t* in, std::size_t nbits, std::uint64_t* out) {
  bitpack::compress_even(in, nbits, out);
}

void compress_odd_k(const std::uint64_t* in, std::size_t nbits, std::uint64_t* out) {
  bitpack::compress_odd(in, nbits, out);
}

void pair_xor_compress_k(const std::uint64_t* in, std::size_t nbits, std::uint64_t* out) {
  bitpack::pair_xor_compress(in, nbits, out);
}

void interleave_bits_k(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t nbits_each, std::uint64_t* out) {
  bitpack::interleave_bits(a, b, nbits_each, out);
}

void chunk_concat_k(const std::uint64_t* even, const std::uint64_t* odd,
                    std::size_t nbits_each, std::size_t chunk_bits,
                    std::uint64_t* out) {
  bitpack::chunk_concat(even, odd, nbits_each, chunk_bits, out);
}

void masked_exchange_k(std::uint64_t* e, std::uint64_t* o, const std::uint64_t* ctl,
                       std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t t = (e[w] ^ o[w]) & ctl[w];
    e[w] ^= t;
    o[w] ^= t;
  }
}

void xor_words_k(std::uint64_t* dst, const std::uint64_t* src, std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) dst[w] ^= src[w];
}

// Fused column pass for one packed slice: exchange + unshuffle without
// materializing the compressed halves.  Both shapes keep every output word
// a pure function of one or two input words plus its ctl bits; the loops
// live in scalar_core.hpp because the SIMD tiers reuse them for tails.
void slice_pass_k(const std::uint64_t* in, std::size_t nbits, const std::uint64_t* ctl,
                  std::size_t chunk_bits, std::uint64_t* /*tmp*/, std::uint64_t* out) {
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
// same butterfly as SmallSchedule::apply).
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
                           &compress_even_k,
                           &compress_odd_k,
                           &pair_xor_compress_k,
                           &interleave_bits_k,
                           &chunk_concat_k,
                           &masked_exchange_k,
                           &xor_words_k,
                           &slice_pass_k,
                           &pack_slices_k,
                           &unpack_slices_k,
                           &small_apply8_k,
                           &delivery_clean_k};
}  // namespace detail

}  // namespace bnb::kernels
