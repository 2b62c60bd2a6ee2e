// NEON kernel tier (aarch64): 2 packed words per step for the
// data-movement passes; the half-width compress passes stay scalar (no
// cross-bit extract on NEON — the portable magic network at 2 lanes does
// not beat the scalar word loop).  NEON is baseline on aarch64, so this TU
// needs no special compile flags and no runtime gate beyond the
// architecture itself.
#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include "core/bit_pack.hpp"
#include "core/kernels/kernel_impl.hpp"
#include "core/kernels/scalar_core.hpp"

namespace bnb::kernels {
namespace {

void masked_exchange_k(std::uint64_t* e, std::uint64_t* o, const std::uint64_t* ctl,
                       std::size_t words) {
  std::size_t w = 0;
  for (; w + 2 <= words; w += 2) {
    const uint64x2_t ev = vld1q_u64(e + w);
    const uint64x2_t ov = vld1q_u64(o + w);
    const uint64x2_t cv = vld1q_u64(ctl + w);
    const uint64x2_t t = vandq_u64(veorq_u64(ev, ov), cv);
    vst1q_u64(e + w, veorq_u64(ev, t));
    vst1q_u64(o + w, veorq_u64(ov, t));
  }
  for (; w < words; ++w) {
    const std::uint64_t t = (e[w] ^ o[w]) & ctl[w];
    e[w] ^= t;
    o[w] ^= t;
  }
}

void xor_words_k(std::uint64_t* dst, const std::uint64_t* src, std::size_t words) {
  std::size_t w = 0;
  for (; w + 2 <= words; w += 2) {
    vst1q_u64(dst + w, veorq_u64(vld1q_u64(dst + w), vld1q_u64(src + w)));
  }
  for (; w < words; ++w) dst[w] ^= src[w];
}

}  // namespace

namespace detail {
const KernelSet kNeonSet{"neon",
                         Tier::kNeon,
                         // Scalar word loops win for the shuffle-heavy passes
                         // at 128-bit width; vectorize only the pure bitwise
                         // movement passes.
                         kScalarSet.compress_even,
                         kScalarSet.compress_odd,
                         kScalarSet.pair_xor_compress,
                         kScalarSet.interleave_bits,
                         kScalarSet.chunk_concat,
                         &masked_exchange_k,
                         &xor_words_k,
                         kScalarSet.slice_pass,
                         kScalarSet.pack_slices,
                         kScalarSet.unpack_slices,
                         // 128-bit lanes gain nothing over the unrolled
                         // scalar step loop for the small-schedule replay.
                         kScalarSet.small_apply8,
                         // No NEON gather: the proof's table lookup stays
                         // a scalar load per line.
                         kScalarSet.delivery_clean};
}  // namespace detail

}  // namespace bnb::kernels

#endif  // aarch64 NEON
