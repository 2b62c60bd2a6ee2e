// AVX2 kernel tier: 4 packed words per step for the in-word fused
// bit-slice column pass, the arbiter, the fused tail, the slice fill and
// the small-schedule replay; scalar PEXT (BMI2) for the whole-word column
// pass, where a single BMI2 instruction per word beats the 17-operation
// vector magic-mask network.  Compiled with -mavx2 -mbmi2 only for this
// translation unit; kernel_set.cpp gates execution behind a runtime
// CPUID/XGETBV check, so linking this TU into a portable binary is safe.
//
// Bit arithmetic mirrors core/bit_pack.hpp lane-for-lane: compress is the
// magic-mask network, spread its mirror image, and tails that do not fill
// a vector fall back to the shared scalar loops (scalar_core.hpp).
#if defined(__AVX2__)

#include <immintrin.h>

#include "core/bit_pack.hpp"
#include "core/bnb_network.hpp"  // Word
#include "core/kernels/kernel_impl.hpp"
#include "core/kernels/scalar_core.hpp"
#include "core/kernels/solve_core.hpp"

namespace bnb::kernels {
namespace {

inline __m256i bcast(std::uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

/// Per 64-bit lane: pack the 32 even-position bits into the low half.
inline __m256i compress_even_lanes(__m256i x) {
  x = _mm256_and_si256(x, bcast(0x5555555555555555ULL));
  x = _mm256_and_si256(_mm256_or_si256(x, _mm256_srli_epi64(x, 1)),
                       bcast(0x3333333333333333ULL));
  x = _mm256_and_si256(_mm256_or_si256(x, _mm256_srli_epi64(x, 2)),
                       bcast(0x0F0F0F0F0F0F0F0FULL));
  x = _mm256_and_si256(_mm256_or_si256(x, _mm256_srli_epi64(x, 4)),
                       bcast(0x00FF00FF00FF00FFULL));
  x = _mm256_and_si256(_mm256_or_si256(x, _mm256_srli_epi64(x, 8)),
                       bcast(0x0000FFFF0000FFFFULL));
  x = _mm256_and_si256(_mm256_or_si256(x, _mm256_srli_epi64(x, 16)),
                       bcast(0x00000000FFFFFFFFULL));
  return x;
}

/// Per 64-bit lane: spread the low 32 bits at `chunk` granularity
/// (bitpack::spread_chunks, vectorized; chunk is uniform per call).
inline __m256i spread_chunks_lanes(__m256i x, unsigned chunk) {
  x = _mm256_and_si256(x, bcast(0x00000000FFFFFFFFULL));
  if (chunk <= 16) {
    x = _mm256_and_si256(_mm256_or_si256(x, _mm256_slli_epi64(x, 16)),
                         bcast(0x0000FFFF0000FFFFULL));
  }
  if (chunk <= 8) {
    x = _mm256_and_si256(_mm256_or_si256(x, _mm256_slli_epi64(x, 8)),
                         bcast(0x00FF00FF00FF00FFULL));
  }
  if (chunk <= 4) {
    x = _mm256_and_si256(_mm256_or_si256(x, _mm256_slli_epi64(x, 4)),
                         bcast(0x0F0F0F0F0F0F0F0FULL));
  }
  if (chunk <= 2) {
    x = _mm256_and_si256(_mm256_or_si256(x, _mm256_slli_epi64(x, 2)),
                         bcast(0x3333333333333333ULL));
  }
  if (chunk <= 1) {
    x = _mm256_and_si256(_mm256_or_si256(x, _mm256_slli_epi64(x, 1)),
                         bcast(0x5555555555555555ULL));
  }
  return x;
}

// The column arbiter and the fused tail: the shared implementation
// (solve_core.hpp) on 4-word lanes, which beat single BMI2 words here
// (m = 12 solve about 0.7x of the one-word lanes on a 4-vCPU Xeon).
unsigned column_arbiter_k(const std::uint64_t* bits, std::size_t nbits, unsigned p,
                          const ColumnFaultMasks* faults, std::uint64_t* ctl,
                          std::uint64_t* work) {
  return detail::column_arbiter<detail::u64x4>(bits, nbits, p, faults, ctl, work);
}

void solve_tail_k(TailJob& job) { detail::solve_tail<detail::u64x4>(job); }

void slice_pass_k(const std::uint64_t* in, std::size_t nbits, const std::uint64_t* ctl,
                  std::size_t chunk_bits, std::uint64_t* out) {
  if (chunk_bits <= 32) {
    // Lane-local: word w's pairs are ctl's 32-bit half-word w, so the whole
    // exchange+unshuffle stays inside each 64-bit lane.
    const std::size_t words = bitpack::words_for(nbits);
    const unsigned chunk = static_cast<unsigned>(chunk_bits);
    const auto* ctl32 = reinterpret_cast<const std::uint32_t*>(ctl);
    std::size_t w = 0;
    for (; w + 4 <= words; w += 4) {
      const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + w));
      const __m256i cw = _mm256_cvtepu32_epi64(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctl32 + w)));
      __m256i e = compress_even_lanes(x);
      __m256i o = compress_even_lanes(_mm256_srli_epi64(x, 1));
      const __m256i t = _mm256_and_si256(_mm256_xor_si256(e, o), cw);
      e = _mm256_xor_si256(e, t);
      o = _mm256_xor_si256(o, t);
      const __m256i res = _mm256_or_si256(
          spread_chunks_lanes(e, chunk),
          _mm256_slli_epi64(spread_chunks_lanes(o, chunk),
                            static_cast<int>(chunk)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w), res);
    }
    detail::slice_pass_small_scalar(in, w, words, ctl, chunk, out);
    return;
  }
  // Whole-word chunks: the scalar PEXT loop (scalar_core.hpp) writes each
  // compressed half straight into its run.
  detail::slice_pass_runs_scalar(in, 0, nbits / 128, ctl, chunk_bits / 64, out);
}

// Slice fill: per 64-line block the low dwords of the values narrow into 8
// YMM registers of 8 lines each; slice a is then a shift of bit a to each
// dword's sign bit and a VMOVMSKPS per register.  A partial block
// (n < 64) takes the scalar transpose.
void pack_slices_k(const std::uint64_t* values, std::size_t n, unsigned bits,
                   std::uint64_t* slices) {
  const std::size_t words = bitpack::words_for(n);
  const std::size_t full = n / 64;
  for (std::size_t b = 0; b < full; ++b) {
    __m256i v[8];
    for (unsigned c = 0; c < 8; ++c) {
      const auto* p = reinterpret_cast<const __m256i*>(values + 64 * b + 8 * c);
      const __m256 lo = _mm256_castsi256_ps(_mm256_loadu_si256(p));
      const __m256 hi = _mm256_castsi256_ps(_mm256_loadu_si256(p + 1));
      // Low dwords of lines 0,1,4,5 | 2,3,6,7, then restore line order.
      const __m256 low_dwords = _mm256_shuffle_ps(lo, hi, 0x88);
      v[c] = _mm256_permute4x64_epi64(_mm256_castps_si256(low_dwords), 0xD8);
    }
    for (unsigned a = 0; a < bits; ++a) {
      const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(31 - a));
      std::uint64_t word = 0;
      for (unsigned c = 0; c < 8; ++c) {
        const int signs =
            _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_sll_epi32(v[c], shift)));
        word |= static_cast<std::uint64_t>(static_cast<unsigned>(signs)) << (8 * c);
      }
      slices[a * words + b] = word;
    }
  }
  detail::pack_slices_scalar(values, n, bits, slices, full);
}

// Small-schedule replay: the 8 independent 64-line states split across two
// YMM registers; each (mask, delta) butterfly step runs both halves before
// the next mask load.  Deltas vary per step, so the shifts take their count
// from an XMM register rather than an immediate.
void small_apply8_k(const std::uint64_t* masks, const std::uint8_t* deltas,
                    std::size_t depth, std::uint64_t* lanes) {
  __m256i x0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes));
  __m256i x1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes + 4));
  for (std::size_t s = 0; s < depth; ++s) {
    const __m128i d = _mm_cvtsi32_si128(deltas[s]);
    const __m256i m = bcast(masks[s]);
    const __m256i y0 = _mm256_and_si256(_mm256_xor_si256(x0, _mm256_srl_epi64(x0, d)), m);
    const __m256i y1 = _mm256_and_si256(_mm256_xor_si256(x1, _mm256_srl_epi64(x1, d)), m);
    x0 = _mm256_xor_si256(x0, _mm256_xor_si256(y0, _mm256_sll_epi64(y0, d)));
    x1 = _mm256_xor_si256(x1, _mm256_xor_si256(y1, _mm256_sll_epi64(y1, d)));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), x0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes + 4), x1);
}

// Clean-delivery proof: 4 lines per step.  Two 256-bit loads hold 4 Words
// as (address | padding, payload) qword pairs; the in-lane unpacks split
// them in line order 0, 2, 1, 3.  AVX2 has no unsigned 64-bit compare, so
// the proof mirrors the scalar reference: payload & ~(n - 1) flags a
// payload >= n, the gather index payload & (n - 1) never leaves
// `requested`, and the address compare keeps only the low dword (the
// padding is ignored).  Mismatch bits OR-accumulate; one test at the end.
bool delivery_clean_k(const std::uint32_t* requested, const Word* outputs, std::size_t n) {
  static_assert(sizeof(Word) == 16, "two Words per 256 bits");
  const __m256i low = bcast(n - 1);
  const __m256i dword = bcast(0xFFFFFFFFULL);
  const __m256i step64 = bcast(4);
  const __m128i step32 = _mm_set1_epi32(4);
  __m256i lines64 = _mm256_setr_epi64x(0, 2, 1, 3);
  __m128i lines32 = _mm_setr_epi32(0, 2, 1, 3);
  __m256i bad = _mm256_setzero_si256();
  __m128i bad32 = _mm_setzero_si128();
  const auto* table = reinterpret_cast<const int*>(requested);
  std::size_t line = 0;
  for (; line + 4 <= n; line += 4) {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(outputs + line));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(outputs + line + 2));
    const __m256i address = _mm256_unpacklo_epi64(a, b);
    const __m256i payload = _mm256_unpackhi_epi64(a, b);
    const __m256i misaddressed =
        _mm256_and_si256(_mm256_xor_si256(address, lines64), dword);
    bad = _mm256_or_si256(bad, _mm256_or_si256(_mm256_andnot_si256(low, payload),
                                               misaddressed));
    const __m128i want = _mm256_i64gather_epi32(table, _mm256_and_si256(payload, low), 4);
    bad32 = _mm_or_si128(bad32, _mm_xor_si128(want, lines32));
    lines64 = _mm256_add_epi64(lines64, step64);
    lines32 = _mm_add_epi32(lines32, step32);
  }
  return _mm256_testz_si256(bad, bad) != 0 && _mm_testz_si128(bad32, bad32) != 0 &&
         detail::delivery_clean_scalar(requested, outputs, line, n);
}

}  // namespace

namespace detail {
const KernelSet kAvx2Set{"avx2",
                         Tier::kAvx2,
                         &column_arbiter_k,
                         &slice_pass_k,
                         &solve_tail_k,
                         &pack_slices_k,
                         kScalarSet.unpack_slices,
                         &small_apply8_k,
                         &delivery_clean_k};
}  // namespace detail

}  // namespace bnb::kernels

#endif  // __AVX2__
