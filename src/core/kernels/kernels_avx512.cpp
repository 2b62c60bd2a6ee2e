// AVX-512 kernel tier: 8 packed words per step, with VPTERNLOGQ fusing
// every or-shift-and round of the magic-mask compress/spread networks into
// two instructions and VPERMT2D packing compressed half-words across
// vectors in one shuffle.  Unlike the AVX2 tier this vectorizes the
// half-width compress passes too — 8 lanes amortize the network where 4 do
// not beat scalar PEXT.  Compiled with AVX-512 flags only for this TU;
// kernel_set.cpp gates execution behind runtime CPUID/XGETBV checks.
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include "core/bit_pack.hpp"
#include "core/bnb_network.hpp"  // Word
#include "core/kernels/kernel_impl.hpp"
#include "core/kernels/scalar_core.hpp"

namespace bnb::kernels {
namespace {

// VPTERNLOGQ immediates: f(a,b,c) bit at position (a<<2 | b<<1 | c).
constexpr int kOrAnd = 0xA8;   // (a | b) & c
constexpr int kXorAnd = 0x28;  // (a ^ b) & c

inline __m512i bcast(std::uint64_t v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

/// One magic-network round: (x | x >> s) & m in two instructions.
inline __m512i fold_r(__m512i x, int s, std::uint64_t m) {
  return _mm512_ternarylogic_epi64(x, _mm512_srli_epi64(x, s), bcast(m), kOrAnd);
}

inline __m512i fold_l(__m512i x, int s, std::uint64_t m) {
  return _mm512_ternarylogic_epi64(x, _mm512_slli_epi64(x, s), bcast(m), kOrAnd);
}

/// Per 64-bit lane: pack the 32 even-position bits into the low half.
inline __m512i compress_even_lanes(__m512i x) {
  x = _mm512_and_si512(x, bcast(0x5555555555555555ULL));
  x = fold_r(x, 1, 0x3333333333333333ULL);
  x = fold_r(x, 2, 0x0F0F0F0F0F0F0F0FULL);
  x = fold_r(x, 4, 0x00FF00FF00FF00FFULL);
  x = fold_r(x, 8, 0x0000FFFF0000FFFFULL);
  x = fold_r(x, 16, 0x00000000FFFFFFFFULL);
  return x;
}

/// Per 64-bit lane: spread the low 32 bits at `chunk` granularity.
inline __m512i spread_chunks_lanes(__m512i x, unsigned chunk) {
  x = _mm512_and_si512(x, bcast(0x00000000FFFFFFFFULL));
  if (chunk <= 16) x = fold_l(x, 16, 0x0000FFFF0000FFFFULL);
  if (chunk <= 8) x = fold_l(x, 8, 0x00FF00FF00FF00FFULL);
  if (chunk <= 4) x = fold_l(x, 4, 0x0F0F0F0F0F0F0F0FULL);
  if (chunk <= 2) x = fold_l(x, 2, 0x3333333333333333ULL);
  if (chunk <= 1) x = fold_l(x, 1, 0x5555555555555555ULL);
  return x;
}

/// Dword-pack the low halves of two compressed vectors: result word j is
/// low32(c0 lane 2j, c0 lane 2j+1) for j < 4, then the same from c1.
inline __m512i pack_low_halves(__m512i c0, __m512i c1) {
  const __m512i idx = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22,
                                        24, 26, 28, 30);
  return _mm512_permutex2var_epi32(c0, idx, c1);
}

/// Shared body of the three compress-style array passes: out word i packs
/// transform(in[2i]), transform(in[2i+1]); `shift` pre-shifts for odd bits,
/// `with_xor` folds in x ^ (x >> 1) for the arbiter up pass.
template <int Shift, bool WithXor>
void compress_pass(const std::uint64_t* in, std::size_t nbits, std::uint64_t* out) {
  const std::size_t in_words = bitpack::words_for(nbits);
  const std::size_t out_words = bitpack::words_for(nbits / 2);
  std::size_t i = 0;
  for (; i + 8 <= out_words && 2 * i + 16 <= in_words + (in_words & 1); i += 8) {
    // 16 input words only exist when in_words >= 2*i+16; guarded above.
    if (2 * i + 16 > in_words) break;
    __m512i x0 = _mm512_loadu_si512(in + 2 * i);
    __m512i x1 = _mm512_loadu_si512(in + 2 * i + 8);
    if constexpr (WithXor) {
      x0 = _mm512_xor_si512(x0, _mm512_srli_epi64(x0, 1));
      x1 = _mm512_xor_si512(x1, _mm512_srli_epi64(x1, 1));
    } else if constexpr (Shift != 0) {
      x0 = _mm512_srli_epi64(x0, Shift);
      x1 = _mm512_srli_epi64(x1, Shift);
    }
    const __m512i packed =
        pack_low_halves(compress_even_lanes(x0), compress_even_lanes(x1));
    _mm512_storeu_si512(out + i, packed);
  }
  for (; i < out_words; ++i) {
    std::uint64_t lo = in[2 * i];
    std::uint64_t hi = (2 * i + 1 < in_words) ? in[2 * i + 1] : 0;
    if constexpr (WithXor) {
      lo ^= lo >> 1;
      hi ^= hi >> 1;
    } else if constexpr (Shift != 0) {
      lo >>= Shift;
      hi >>= Shift;
    }
    out[i] = bitpack::compress_even64(lo) | (bitpack::compress_even64(hi) << 32);
  }
}

void compress_even_k(const std::uint64_t* in, std::size_t nbits, std::uint64_t* out) {
  compress_pass<0, false>(in, nbits, out);
}

void compress_odd_k(const std::uint64_t* in, std::size_t nbits, std::uint64_t* out) {
  compress_pass<1, false>(in, nbits, out);
}

void pair_xor_compress_k(const std::uint64_t* in, std::size_t nbits, std::uint64_t* out) {
  compress_pass<0, true>(in, nbits, out);
}

void masked_exchange_k(std::uint64_t* e, std::uint64_t* o, const std::uint64_t* ctl,
                       std::size_t words) {
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    const __m512i ev = _mm512_loadu_si512(e + w);
    const __m512i ov = _mm512_loadu_si512(o + w);
    const __m512i cv = _mm512_loadu_si512(ctl + w);
    const __m512i t = _mm512_ternarylogic_epi64(ev, ov, cv, kXorAnd);
    _mm512_storeu_si512(e + w, _mm512_xor_si512(ev, t));
    _mm512_storeu_si512(o + w, _mm512_xor_si512(ov, t));
  }
  for (; w < words; ++w) {
    const std::uint64_t t = (e[w] ^ o[w]) & ctl[w];
    e[w] ^= t;
    o[w] ^= t;
  }
}

void xor_words_k(std::uint64_t* dst, const std::uint64_t* src, std::size_t words) {
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    _mm512_storeu_si512(dst + w, _mm512_xor_si512(_mm512_loadu_si512(dst + w),
                                                  _mm512_loadu_si512(src + w)));
  }
  for (; w < words; ++w) dst[w] ^= src[w];
}

/// Shared body of interleave_bits (chunk = 1) and chunk_concat (chunk < 64):
/// 4 input words from each side expand to 8 output words per step.
void interleave_chunks_avx512(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t nbits_each, unsigned chunk,
                              std::uint64_t* out) {
  const std::size_t in_words = bitpack::words_for(nbits_each);
  const std::size_t out_words = bitpack::words_for(2 * nbits_each);
  std::size_t i = 0;
  for (; 2 * i + 8 <= out_words && i + 4 <= in_words; i += 4) {
    const __m512i xa = _mm512_cvtepu32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
    const __m512i xb = _mm512_cvtepu32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    const __m512i res =
        _mm512_or_si512(spread_chunks_lanes(xa, chunk),
                        _mm512_slli_epi64(spread_chunks_lanes(xb, chunk),
                                          static_cast<int>(chunk)));
    _mm512_storeu_si512(out + 2 * i, res);
  }
  for (; i < in_words; ++i) {
    const std::uint64_t aw = a[i];
    const std::uint64_t bw = b[i];
    out[2 * i] = bitpack::interleave_chunks64(aw & 0xFFFFFFFFULL,
                                              bw & 0xFFFFFFFFULL, chunk);
    if (2 * i + 1 < out_words) {
      out[2 * i + 1] = bitpack::interleave_chunks64(aw >> 32, bw >> 32, chunk);
    }
  }
}

void interleave_bits_k(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t nbits_each, std::uint64_t* out) {
  interleave_chunks_avx512(a, b, nbits_each, 1, out);
}

void chunk_concat_k(const std::uint64_t* even, const std::uint64_t* odd,
                    std::size_t nbits_each, std::size_t chunk_bits,
                    std::uint64_t* out) {
  if (chunk_bits >= 64) {
    bitpack::chunk_concat(even, odd, nbits_each, chunk_bits, out);  // word runs
    return;
  }
  interleave_chunks_avx512(even, odd, nbits_each,
                           static_cast<unsigned>(chunk_bits), out);
}

void slice_pass_k(const std::uint64_t* in, std::size_t nbits, const std::uint64_t* ctl,
                  std::size_t chunk_bits, std::uint64_t* tmp, std::uint64_t* out) {
  if (chunk_bits <= 32) {
    const std::size_t words = bitpack::words_for(nbits);
    const unsigned chunk = static_cast<unsigned>(chunk_bits);
    const auto* ctl32 = reinterpret_cast<const std::uint32_t*>(ctl);
    std::size_t w = 0;
    for (; w + 8 <= words; w += 8) {
      const __m512i x = _mm512_loadu_si512(in + w);
      const __m512i cw = _mm512_cvtepu32_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ctl32 + w)));
      __m512i e = compress_even_lanes(x);
      __m512i o = compress_even_lanes(_mm512_srli_epi64(x, 1));
      const __m512i t = _mm512_ternarylogic_epi64(e, o, cw, kXorAnd);
      e = _mm512_xor_si512(e, t);
      o = _mm512_xor_si512(o, t);
      const __m512i res =
          _mm512_or_si512(spread_chunks_lanes(e, chunk),
                          _mm512_slli_epi64(spread_chunks_lanes(o, chunk),
                                            static_cast<int>(chunk)));
      _mm512_storeu_si512(out + w, res);
    }
    detail::slice_pass_small_scalar(in, w, words, ctl, chunk, out);
    return;
  }
  // Whole-word chunks: vector-compress the halves into tmp, exchange, then
  // lay out the runs (memory-bound copies).
  const std::size_t half_words = bitpack::words_for(nbits / 2);
  std::uint64_t* e = tmp;
  std::uint64_t* o = tmp + half_words;
  compress_even_k(in, nbits, e);
  compress_odd_k(in, nbits, o);
  masked_exchange_k(e, o, ctl, half_words);
  bitpack::chunk_concat(e, o, nbits / 2, chunk_bits, out);
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

#endif  // AVX-512
