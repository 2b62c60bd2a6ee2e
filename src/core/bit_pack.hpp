// Word-parallel bit-slice primitives for the flat routing engine.
//
// The compiled BNB engine (core/compiled_bnb.hpp) keeps one address bit per
// line, packed 64 lines per uint64_t, and runs every splitter column of a
// bit-sorter slice as a handful of word operations: the tree arbiter's up
// pass is a pairwise-XOR *compress* (two children fold into one parent bit),
// the down pass is a flag *interleave* (one parent bit expands into two
// child flags), and the unshuffle wiring after the switch column is a
// chunk-granular interleave of the even-output and odd-output halves.
//
// All array routines operate on little-endian bit order (bit t of word w is
// line 64*w + t) and preserve the invariant that bits past the logical size
// of an array are zero, so no trailing-bit masking is needed between steps.
// With BMI2 available the scalar kernels compile to single PEXT/PDEP
// instructions; the portable fallback is the classic magic-mask network.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__BMI2__)
#include <immintrin.h>
#endif

namespace bnb::bitpack {

inline constexpr std::uint64_t kEvenBits = 0x5555555555555555ULL;

/// Number of 64-bit words needed for `nbits` packed bits.
[[nodiscard]] constexpr std::size_t words_for(std::size_t nbits) noexcept {
  return (nbits + 63) / 64;
}

/// Compact the 32 even-position bits of `x` into the low half of the result.
[[nodiscard]] inline std::uint64_t compress_even64(std::uint64_t x) noexcept {
#if defined(__BMI2__)
  return _pext_u64(x, kEvenBits);
#else
  x &= kEvenBits;
  x = (x | (x >> 1)) & 0x3333333333333333ULL;
  x = (x | (x >> 2)) & 0x0F0F0F0F0F0F0F0FULL;
  x = (x | (x >> 4)) & 0x00FF00FF00FF00FFULL;
  x = (x | (x >> 8)) & 0x0000FFFF0000FFFFULL;
  x = (x | (x >> 16)) & 0x00000000FFFFFFFFULL;
  return x;
#endif
}

/// Spread the low 32 bits of `x` so that chunk j of `chunk` consecutive bits
/// lands at bit offset 2*chunk*j (gaps of `chunk` zeros between chunks).
/// Requires chunk in {1, 2, 4, 8, 16, 32}.
[[nodiscard]] inline std::uint64_t spread_chunks(std::uint64_t x, unsigned chunk) noexcept {
  x &= 0xFFFFFFFFULL;
  if (chunk <= 16) x = (x | (x << 16)) & 0x0000FFFF0000FFFFULL;
  if (chunk <= 8) x = (x | (x << 8)) & 0x00FF00FF00FF00FFULL;
  if (chunk <= 4) x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0FULL;
  if (chunk <= 2) x = (x | (x << 2)) & 0x3333333333333333ULL;
  if (chunk <= 1) x = (x | (x << 1)) & kEvenBits;
  return x;
}

/// Interleave the low 32 bits of `a` and `b` at chunk granularity:
/// result chunk 2j = a's chunk j, result chunk 2j+1 = b's chunk j.
/// chunk == 1 is plain bitwise interleave (a on even positions).
[[nodiscard]] inline std::uint64_t interleave_chunks64(std::uint64_t a, std::uint64_t b,
                                                       unsigned chunk) noexcept {
  return spread_chunks(a, chunk) | (spread_chunks(b, chunk) << chunk);
}

/// out[j] = in[2j] for j < nbits/2 (compress the even-position bits).
/// `in` holds `nbits` packed bits with zeroed tail; `out` gets nbits/2.
/// Safe when out aliases neither in word that is still unread; callers here
/// always use distinct buffers.
inline void compress_even(const std::uint64_t* in, std::size_t nbits, std::uint64_t* out) noexcept {
  const std::size_t in_words = words_for(nbits);
  const std::size_t out_words = words_for(nbits / 2);
  for (std::size_t i = 0; i < out_words; ++i) {
    const std::uint64_t lo = in[2 * i];
    const std::uint64_t hi = (2 * i + 1 < in_words) ? in[2 * i + 1] : 0;
    out[i] = compress_even64(lo) | (compress_even64(hi) << 32);
  }
}

/// out[j] = in[2j+1] for j < nbits/2 (compress the odd-position bits).
inline void compress_odd(const std::uint64_t* in, std::size_t nbits, std::uint64_t* out) noexcept {
  const std::size_t in_words = words_for(nbits);
  const std::size_t out_words = words_for(nbits / 2);
  for (std::size_t i = 0; i < out_words; ++i) {
    const std::uint64_t lo = in[2 * i];
    const std::uint64_t hi = (2 * i + 1 < in_words) ? in[2 * i + 1] : 0;
    out[i] = compress_even64(lo >> 1) | (compress_even64(hi >> 1) << 32);
  }
}

/// out[j] = in[2j] XOR in[2j+1]: one level of the arbiter's up pass, for all
/// splitters of a column at once (pairs never straddle a word).
inline void pair_xor_compress(const std::uint64_t* in, std::size_t nbits,
                              std::uint64_t* out) noexcept {
  const std::size_t in_words = words_for(nbits);
  const std::size_t out_words = words_for(nbits / 2);
  for (std::size_t i = 0; i < out_words; ++i) {
    const std::uint64_t lo = in[2 * i];
    const std::uint64_t hi = (2 * i + 1 < in_words) ? in[2 * i + 1] : 0;
    out[i] = compress_even64(lo ^ (lo >> 1)) | (compress_even64(hi ^ (hi >> 1)) << 32);
  }
}

/// out[2j] = a[j], out[2j+1] = b[j] for j < nbits_each: one level of the
/// arbiter's down pass (parent flags expand to the two children).
/// Bits of a/b at positions >= nbits_each may be garbage; they land past
/// 2*nbits_each in `out` and are never consumed.
inline void interleave_bits(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t nbits_each, std::uint64_t* out) noexcept {
  const std::size_t in_words = words_for(nbits_each);
  const std::size_t out_words = words_for(2 * nbits_each);
  for (std::size_t i = 0; i < in_words; ++i) {
    const std::uint64_t aw = a[i];
    const std::uint64_t bw = b[i];
    out[2 * i] = interleave_chunks64(aw & 0xFFFFFFFFULL, bw & 0xFFFFFFFFULL, 1);
    if (2 * i + 1 < out_words) {
      out[2 * i + 1] = interleave_chunks64(aw >> 32, bw >> 32, 1);
    }
  }
}

/// Concatenate `even` and `odd` chunkwise: output group g (of 2*chunk_bits
/// lines) is even's chunk g followed by odd's chunk g.  This is exactly the
/// GBN unshuffle applied to packed bits: within every 2*chunk_bits-line
/// group, even outputs go to the upper half and odd outputs to the lower.
/// `even`/`odd` hold nbits_each packed bits; chunk_bits is a power of two.
inline void chunk_concat(const std::uint64_t* even, const std::uint64_t* odd,
                         std::size_t nbits_each, std::size_t chunk_bits,
                         std::uint64_t* out) noexcept {
  const std::size_t out_words = words_for(2 * nbits_each);
  if (chunk_bits >= 64) {
    // Whole words: alternate runs of chunk_bits/64 words from each source.
    const std::size_t run = chunk_bits / 64;
    std::size_t w = 0;
    for (std::size_t g = 0; w < out_words; ++g) {
      for (std::size_t r = 0; r < run && w < out_words; ++r) out[w++] = even[g * run + r];
      for (std::size_t r = 0; r < run && w < out_words; ++r) out[w++] = odd[g * run + r];
    }
    return;
  }
  const unsigned chunk = static_cast<unsigned>(chunk_bits);
  const std::size_t in_words = words_for(nbits_each);
  for (std::size_t i = 0; i < in_words; ++i) {
    const std::uint64_t ew = even[i];
    const std::uint64_t ow = odd[i];
    out[2 * i] = interleave_chunks64(ew & 0xFFFFFFFFULL, ow & 0xFFFFFFFFULL, chunk);
    if (2 * i + 1 < out_words) {
      out[2 * i + 1] = interleave_chunks64(ew >> 32, ow >> 32, chunk);
    }
  }
}

/// Read packed bit `idx`.
[[nodiscard]] inline unsigned get_bit(const std::uint64_t* words, std::size_t idx) noexcept {
  return static_cast<unsigned>((words[idx >> 6] >> (idx & 63)) & 1U);
}

}  // namespace bnb::bitpack
