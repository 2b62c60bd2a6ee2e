// Word-level bit-slice primitives for the flat routing engine.
//
// The compiled BNB engine (core/compiled_bnb.hpp) keeps one address bit per
// line, packed 64 lines per uint64_t.  A switch column on one word is a
// compress of the even- and odd-position bits (the two inputs of each
// pair), a masked exchange, and a chunk-granular interleave back (the
// unshuffle wiring after the column); the kernels in core/kernels/ build
// every pass from these.
//
// Little-endian bit order throughout: bit t of word w is line 64*w + t.
// With BMI2 available the primitives compile to single PEXT/PDEP
// instructions; the portable fallback is the classic magic-mask network.
#pragma once

#include <bit>
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
#if defined(__BMI2__)
  // The first `chunk` lines of every 2*chunk-line group, by log2(chunk).
  constexpr std::uint64_t kLowChunk[6] = {kEvenBits,          0x3333333333333333ULL,
                                          0x0F0F0F0F0F0F0F0FULL, 0x00FF00FF00FF00FFULL,
                                          0x0000FFFF0000FFFFULL, 0x00000000FFFFFFFFULL};
  return _pdep_u64(x, kLowChunk[std::countr_zero(chunk)]);
#else
  x &= 0xFFFFFFFFULL;
  if (chunk <= 16) x = (x | (x << 16)) & 0x0000FFFF0000FFFFULL;
  if (chunk <= 8) x = (x | (x << 8)) & 0x00FF00FF00FF00FFULL;
  if (chunk <= 4) x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0FULL;
  if (chunk <= 2) x = (x | (x << 2)) & 0x3333333333333333ULL;
  if (chunk <= 1) x = (x | (x << 1)) & kEvenBits;
  return x;
#endif
}

/// Interleave the low 32 bits of `a` and `b` at chunk granularity:
/// result chunk 2j = a's chunk j, result chunk 2j+1 = b's chunk j.
/// chunk == 1 is plain bitwise interleave (a on even positions).
[[nodiscard]] inline std::uint64_t interleave_chunks64(std::uint64_t a, std::uint64_t b,
                                                       unsigned chunk) noexcept {
  return spread_chunks(a, chunk) | (spread_chunks(b, chunk) << chunk);
}

/// Read packed bit `idx`.
[[nodiscard]] inline unsigned get_bit(const std::uint64_t* words, std::size_t idx) noexcept {
  return static_cast<unsigned>((words[idx >> 6] >> (idx & 63)) & 1U);
}

}  // namespace bnb::bitpack
