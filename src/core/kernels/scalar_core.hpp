// Shared scalar word loops for slice_pass, pack/unpack_slices and the
// delivery_clean proof: the SIMD tiers reuse these for their sub-vector
// tails so the tail arithmetic can never diverge from the scalar tier
// (tests would catch it, but sharing removes the possibility).  Internal
// to src/core/kernels/.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/bit_pack.hpp"
#include "core/bnb_network.hpp"  // Word

namespace bnb::kernels::detail {

/// Fused exchange+unshuffle over whole in-words [w_begin, w_end) for
/// chunk_bits <= 32 (groups never straddle a word).
inline void slice_pass_small_scalar(const std::uint64_t* in, std::size_t w_begin,
                                    std::size_t w_end, const std::uint64_t* ctl,
                                    unsigned chunk, std::uint64_t* out) {
  for (std::size_t w = w_begin; w < w_end; ++w) {
    const std::uint64_t x = in[w];
    const std::uint64_t cw = (ctl[w >> 1] >> ((w & 1U) * 32)) & 0xFFFFFFFFULL;
    std::uint64_t e = bitpack::compress_even64(x);
    std::uint64_t o = bitpack::compress_even64(x >> 1);
    const std::uint64_t t = (e ^ o) & cw;
    e ^= t;
    o ^= t;
    out[w] = bitpack::interleave_chunks64(e, o, chunk);
  }
}

/// Fused exchange+unshuffle over compressed-pair words [i_begin, i_end) for
/// chunk_bits >= 64 (chunks are whole runs of `run` words).
inline void slice_pass_runs_scalar(const std::uint64_t* in, std::size_t i_begin,
                                   std::size_t i_end, const std::uint64_t* ctl,
                                   std::size_t run, std::uint64_t* out) {
  for (std::size_t i = i_begin; i < i_end; ++i) {
    const std::uint64_t lo = in[2 * i];
    const std::uint64_t hi = in[2 * i + 1];
    std::uint64_t e = bitpack::compress_even64(lo) | (bitpack::compress_even64(hi) << 32);
    std::uint64_t o =
        bitpack::compress_even64(lo >> 1) | (bitpack::compress_even64(hi >> 1) << 32);
    const std::uint64_t t = (e ^ o) & ctl[i];
    e ^= t;
    o ^= t;
    // run is a power of two: word i's run starts at 2 * (i - i % run).
    const std::size_t at = 2 * i - (i & (run - 1));
    out[at] = e;
    out[at + run] = o;
  }
}

/// Rows [0, rows) of the 64x64 bit-matrix transpose of x: afterwards bit t
/// of x[a] is bit a of the original x[t], for a < rows (rows >= 1; rows
/// past that are left unspecified).  Each round swaps one bit of the row
/// index with the same bit of the column index; the rounds commute, and a
/// round j >= rows keeps only the lower partner of each pair, halving the
/// rows later rounds touch.
inline void transpose_rows(std::uint64_t x[64], unsigned rows) noexcept {
  unsigned live = 64;
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    if (rows <= j) {
      for (unsigned k = 0; k < j; ++k) x[k] = (x[k] & m) | ((x[k + j] & m) << j);
      live = j;
      continue;
    }
    for (unsigned k = 0; k < live; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((x[k] >> j) ^ x[k + j]) & m;
      x[k] ^= t << j;
      x[k + j] ^= t;
    }
  }
}

/// Inverse of transpose_rows: x[0, rows) hold the rows (the rest is not
/// read); afterwards bit a of x[t] is bit t of the original x[a] for all
/// 64 t, and zero for a >= rows.  Same rounds in the opposite direction:
/// the full pairs within the rows' power-of-two span first, then each
/// wider round doubles the live rows.
inline void untranspose_rows(std::uint64_t x[64], unsigned rows) noexcept {
  constexpr std::uint64_t kMask[6] = {0x5555555555555555ULL, 0x3333333333333333ULL,
                                      0x0F0F0F0F0F0F0F0FULL, 0x00FF00FF00FF00FFULL,
                                      0x0000FFFF0000FFFFULL, 0x00000000FFFFFFFFULL};
  unsigned live = 1;
  while (live < rows) live <<= 1;
  for (unsigned k = rows; k < live; ++k) x[k] = 0;
  for (unsigned r = 0, j = 1; r < 6; ++r, j <<= 1) {
    const std::uint64_t m = kMask[r];
    if (j >= live) {
      for (unsigned k = 0; k < j; ++k) {
        x[k + j] = (x[k] >> j) & m;
        x[k] &= m;
      }
      live = 2 * j;
      continue;
    }
    for (unsigned k = 0; k < live; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((x[k] >> j) ^ x[k + j]) & m;
      x[k] ^= t << j;
      x[k + j] ^= t;
    }
  }
}

/// pack_slices over the 64-line blocks [b_begin, words_for(n)).
inline void pack_slices_scalar(const std::uint64_t* values, std::size_t n, unsigned bits,
                               std::uint64_t* slices, std::size_t b_begin) noexcept {
  const std::size_t words = bitpack::words_for(n);
  std::uint64_t x[64];
  for (std::size_t b = b_begin; b < words; ++b) {
    const std::size_t lines = n - 64 * b < 64 ? n - 64 * b : 64;
    for (std::size_t t = 0; t < lines; ++t) x[t] = values[64 * b + t];
    for (std::size_t t = lines; t < 64; ++t) x[t] = 0;  // zero tail
    transpose_rows(x, bits);
    for (unsigned a = 0; a < bits; ++a) slices[a * words + b] = x[a];
  }
}

/// unpack_slices over the 64-line blocks [b_begin, words_for(n)).
inline void unpack_slices_scalar(const std::uint64_t* slices, std::size_t n,
                                 unsigned bits, const std::uint64_t* tag,
                                 std::uint64_t* values, std::size_t b_begin) noexcept {
  const std::size_t words = bitpack::words_for(n);
  const std::uint64_t low = (std::uint64_t{1} << bits) - 1;
  std::uint64_t x[64];
  for (std::size_t b = b_begin; b < words; ++b) {
    // Rows 0..bits-1 are the value bits, row `bits` the poison parity.
    for (unsigned a = 0; a <= bits; ++a) x[a] = slices[a * words + b];
    untranspose_rows(x, bits + 1);
    const std::size_t lines = n - 64 * b < 64 ? n - 64 * b : 64;
    for (std::size_t t = 0; t < lines; ++t) {
      const std::uint64_t p = (0 - ((x[t] >> bits) & 1U)) & low;
      values[64 * b + t] = tag[(x[t] & low) ^ p] ^ p;
    }
  }
}

/// delivery_clean over lines [begin, n): one branch-free OR of every
/// line's mismatch bits.  n is a power of two, so `payload & ~(n - 1)` is
/// nonzero exactly when payload >= n, and the table index payload & (n - 1)
/// never leaves `requested` (an out-of-range payload already fails).
inline bool delivery_clean_scalar(const std::uint32_t* requested, const Word* outputs,
                                  std::size_t begin, std::size_t n) noexcept {
  const std::uint64_t low = n - 1;
  std::uint64_t bad = 0;
  for (std::size_t line = begin; line < n; ++line) {
    const std::uint64_t p = outputs[line].payload;
    bad |= (p & ~low) | (outputs[line].address ^ line) | (requested[p & low] ^ line);
  }
  return bad == 0;
}

}  // namespace bnb::kernels::detail
