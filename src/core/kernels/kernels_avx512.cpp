// AVX-512 kernel tier: 8 packed words per step, with VPTERNLOGQ fusing
// every or-shift-and round of the magic-mask compress/spread networks into
// two instructions.  The whole-word column pass stays on scalar PEXT,
// which the 8-lane network does not beat.  Compiled with AVX-512 flags
// only for this TU; kernel_set.cpp gates execution behind runtime
// CPUID/XGETBV checks.
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)

// GCC 12's avx512fintrin.h seeds the unmasked forms of its intrinsics with
// a self-initialized "undefined" vector, which -Wmaybe-uninitialized flags
// wherever they inline (GCC bug 105593, fixed in GCC 13).  The warning is
// silenced for the header's code only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#include <bit>

#include "core/bit_pack.hpp"
#include "core/bnb_network.hpp"  // Word
#include "core/kernels/kernel_impl.hpp"
#include "core/kernels/scalar_core.hpp"
#include "core/kernels/solve_core.hpp"

namespace bnb::kernels {
namespace {

// VPTERNLOGQ immediates: f(a,b,c) bit at position (a<<2 | b<<1 | c).
constexpr int kOrAnd = 0xA8;   // (a | b) & c
constexpr int kXorAnd = 0x28;  // (a ^ b) & c
constexpr int kXor3 = 0x96;    // a ^ b ^ c

inline __m512i bcast(std::uint64_t v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

/// One magic-network round: (x | x << s) & m in two instructions.
inline __m512i fold_l(__m512i x, int s, std::uint64_t m) {
  return _mm512_ternarylogic_epi64(x, _mm512_slli_epi64(x, s), bcast(m), kOrAnd);
}

/// Per 64-bit lane: spread the low 32 bits to the even positions.
inline __m512i spread_even_lanes(__m512i x) {
  x = _mm512_and_si512(x, bcast(0x00000000FFFFFFFFULL));
  x = fold_l(x, 16, 0x0000FFFF0000FFFFULL);
  x = fold_l(x, 8, 0x00FF00FF00FF00FFULL);
  x = fold_l(x, 4, 0x0F0F0F0F0F0F0F0FULL);
  x = fold_l(x, 2, 0x3333333333333333ULL);
  return fold_l(x, 1, 0x5555555555555555ULL);
}

// The column arbiter and the fused tail: the shared implementation
// (solve_core.hpp) on 8-word lanes — every level and column is a chain of
// shift/mask steps per word, so one ZMM step serves 8 words.
unsigned column_arbiter_k(const std::uint64_t* bits, std::size_t nbits, unsigned p,
                          const ColumnFaultMasks* faults, std::uint64_t* ctl,
                          std::uint64_t* work) {
  return detail::column_arbiter<detail::u64x8>(bits, nbits, p, faults, ctl, work);
}

void solve_tail_k(TailJob& job) { detail::solve_tail<detail::u64x8>(job); }

void slice_pass_k(const std::uint64_t* in, std::size_t nbits, const std::uint64_t* ctl,
                  std::size_t chunk_bits, std::uint64_t* out) {
  if (chunk_bits <= 32) {
    // In-word groups: the exchange is one delta swap under the settings
    // spread to the even positions, the unshuffle a rotation of the low
    // log2(2 * chunk) line-index bits — log2(chunk) more delta swaps
    // (solve_core.hpp's pass_word, 8 words per step).
    const std::size_t words = bitpack::words_for(nbits);
    const unsigned chunk = static_cast<unsigned>(chunk_bits);
    const auto cl = static_cast<unsigned>(std::countr_zero(chunk));
    const auto* ctl32 = reinterpret_cast<const std::uint32_t*>(ctl);
    std::size_t w = 0;
    for (; w + 8 <= words; w += 8) {
      __m512i x = _mm512_loadu_si512(in + w);
      const __m512i ce = spread_even_lanes(_mm512_cvtepu32_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ctl32 + w))));
      __m512i t = _mm512_ternarylogic_epi64(x, _mm512_srli_epi64(x, 1), ce, kXorAnd);
      x = _mm512_ternarylogic_epi64(x, t, _mm512_slli_epi64(t, 1), kXor3);
      for (unsigned b = 0; b < cl; ++b) {
        const __m128i d = _mm_cvtsi32_si128(1 << b);
        t = _mm512_ternarylogic_epi64(x, _mm512_srl_epi64(x, d), bcast(detail::kSwapMask[b]),
                                      kXorAnd);
        x = _mm512_ternarylogic_epi64(x, t, _mm512_sll_epi64(t, d), kXor3);
      }
      _mm512_storeu_si512(out + w, x);
    }
    detail::slice_pass_small_scalar(in, w, words, ctl, chunk, out);
    return;
  }
  // Whole-word chunks: the scalar PEXT loop (scalar_core.hpp) writes each
  // compressed half straight into its run.
  detail::slice_pass_runs_scalar(in, 0, nbits / 128, ctl, chunk_bits / 64, out);
}

// Slice fill: per 64-line block the values sit in 8 ZMM registers, and
// slice a is one VPTESTMQ against bit a per register — 8 mask bytes that
// concatenate into the slice word.  A partial block (n < 64) takes the
// scalar transpose.
void pack_slices_k(const std::uint64_t* values, std::size_t n, unsigned bits,
                   std::uint64_t* slices) {
  const std::size_t words = bitpack::words_for(n);
  const std::size_t full = n / 64;
  for (std::size_t b = 0; b < full; ++b) {
    __m512i v[8];
    for (unsigned c = 0; c < 8; ++c) v[c] = _mm512_loadu_si512(values + 64 * b + 8 * c);
    for (unsigned a = 0; a < bits; ++a) {
      const __m512i bit = bcast(std::uint64_t{1} << a);
      std::uint64_t word = 0;
      for (unsigned c = 0; c < 8; ++c) {
        const __mmask8 set = _mm512_test_epi64_mask(v[c], bit);
        word |= std::uint64_t{_cvtmask8_u32(set)} << (8 * c);
      }
      slices[a * words + b] = word;
    }
  }
  detail::pack_slices_scalar(values, n, bits, slices, full);
}

// Slice drain: 8 lines per step rebuild their value with one masked OR per
// slice (the slice byte is the lane mask), flip the poisoned lanes back to
// their entry address, gather the tags and flip again.
void unpack_slices_k(const std::uint64_t* slices, std::size_t n, unsigned bits,
                     const std::uint64_t* tag, std::uint64_t* values) {
  const std::size_t words = bitpack::words_for(n);
  const std::size_t full = n / 64;
  const __m512i low = bcast((std::uint64_t{1} << bits) - 1);
  for (std::size_t b = 0; b < full; ++b) {
    for (unsigned c = 0; c < 8; ++c) {
      __m512i v = _mm512_setzero_si512();
      for (unsigned a = 0; a < bits; ++a) {
        const auto k = static_cast<__mmask8>(slices[a * words + b] >> (8 * c));
        v = _mm512_mask_or_epi64(v, k, v, bcast(std::uint64_t{1} << a));
      }
      const auto poisoned = static_cast<__mmask8>(slices[bits * words + b] >> (8 * c));
      const __m512i entry = _mm512_mask_xor_epi64(v, poisoned, v, low);
      const __m512i word =
          _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), 0xFF, entry, tag, 8);
      _mm512_storeu_si512(values + 64 * b + 8 * c,
                          _mm512_mask_xor_epi64(word, poisoned, word, low));
    }
  }
  detail::unpack_slices_scalar(slices, n, bits, tag, values, full);
}

// Small-schedule replay: one ZMM register holds all 8 independent 64-line
// states, so every (mask, delta) butterfly step is 4 instructions for the
// whole batch — VPSRLQ, VPTERNLOGQ for (x ^ (x >> d)) & m, VPSLLQ, VPXORQ.
// Deltas vary per step, so the shifts take their count from an XMM register
// (_mm_cvtsi32_si128) rather than an immediate.
void small_apply8_k(const std::uint64_t* masks, const std::uint8_t* deltas,
                    std::size_t depth, std::uint64_t* lanes) {
  __m512i x = _mm512_loadu_si512(lanes);
  for (std::size_t s = 0; s < depth; ++s) {
    const __m128i d = _mm_cvtsi32_si128(deltas[s]);
    const __m512i y =
        _mm512_ternarylogic_epi64(x, _mm512_srl_epi64(x, d), bcast(masks[s]), kXorAnd);
    x = _mm512_xor_si512(x, _mm512_xor_si512(y, _mm512_sll_epi64(y, d)));
  }
  _mm512_storeu_si512(lanes, x);
}

// Clean-delivery proof: 8 lines per step.  Two 512-bit loads hold the 8
// Words as (address | padding, payload) qword pairs; VPERMT2Q splits out the
// payloads and VPERMT2D the address dwords (never a padding dword).  The
// requested[payload] lookup is a VPGATHERQD masked by payload < n, so no
// lane gathers out of range, and the masked-off lanes fail the final
// compare through the same mask.  Lines past the last whole step (n < 8)
// take the scalar reference.
bool delivery_clean_k(const std::uint32_t* requested, const Word* outputs, std::size_t n) {
  static_assert(sizeof(Word) == 16, "four Words per 512 bits");
  const __m512i payload_idx = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  const __m512i address_idx =
      _mm512_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28, 0, 0, 0, 0, 0, 0, 0, 0);
  const __m512i limit = bcast(n);
  const __m256i step = _mm256_set1_epi32(8);
  __m256i lines = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  __mmask8 ok = 0xFF;
  std::size_t line = 0;
  for (; line + 8 <= n; line += 8) {
    const __m512i lo = _mm512_loadu_si512(outputs + line);
    const __m512i hi = _mm512_loadu_si512(outputs + line + 4);
    const __m512i payload = _mm512_permutex2var_epi64(lo, payload_idx, hi);
    const __m256i address =
        _mm512_castsi512_si256(_mm512_permutex2var_epi32(lo, address_idx, hi));
    const __mmask8 in_range = _mm512_cmplt_epu64_mask(payload, limit);
    const __m256i want = _mm512_mask_i64gather_epi32(_mm256_setzero_si256(), in_range,
                                                     payload, requested, 4);
    const __mmask8 addressed = _mm256_mask_cmpeq_epi32_mask(in_range, address, lines);
    ok &= _mm256_mask_cmpeq_epi32_mask(addressed, want, lines);
    lines = _mm256_add_epi32(lines, step);
  }
  return ok == 0xFF && detail::delivery_clean_scalar(requested, outputs, line, n);
}

}  // namespace

namespace detail {
const KernelSet kAvx512Set{"avx512",
                           Tier::kAvx512,
                           &column_arbiter_k,
                           &slice_pass_k,
                           &solve_tail_k,
                           &pack_slices_k,
                           &unpack_slices_k,
                           &small_apply8_k,
                           &delivery_clean_k};
}  // namespace detail

}  // namespace bnb::kernels

#endif  // AVX-512
