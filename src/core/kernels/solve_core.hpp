// The solve's control plane on packed words: the in-word tree arbiter of a
// splitter column and the fused register pass over the columns whose boxes
// fit in one 64-bit word (KernelSet::column_arbiter and ::solve_tail).
//
// One implementation, written over a lane type T: std::uint64_t (one word)
// or a GCC/Clang vector of 2, 4 or 8 words, where every line of the code
// acts on each word independently.  Each tier's translation unit compiles
// it with its own instruction-set flags and picks its widest lane type, so
// the same source is 8-word AVX-512 code in the avx512 set and PEXT/PDEP
// code for single words where BMI2 is on.  The unnamed namespace gives each
// translation unit its own copy: functions compiled under different
// instruction-set flags must never be merged by the linker.  Internal to
// src/core/kernels/.
//
// The arbiter as a SWAR loop.  The tree arbiter of sp(p) is an XOR tree
// over the 2^p bits of one splitter (up pass) followed by the flag tree
// back down (down pass).  Inside a word, the tree node covering lines
// [q, q + 2^r) sits at bit q, so level r of every tree in the word is one
// shift-xor-mask over the whole word (SNIPPETS.md's benes_forward_64 runs
// a network's stages the same way).  Levels above 64 lines run the same
// loop over the packed per-word parities.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/bit_pack.hpp"
#include "core/fault_hooks.hpp"
#include "core/kernels/kernel_set.hpp"

namespace bnb::kernels::detail {
namespace {

using u64x2 = std::uint64_t __attribute__((vector_size(16)));
using u64x4 = std::uint64_t __attribute__((vector_size(32)));
using u64x8 = std::uint64_t __attribute__((vector_size(64)));

template <class T>
constexpr unsigned kLanes = sizeof(T) / sizeof(std::uint64_t);

template <class T>
inline std::uint64_t lane(const T& v, unsigned l) noexcept {
  if constexpr (kLanes<T> == 1) {
    return v;
  } else {
    return v[l];
  }
}

template <class T>
inline void set_lane(T& v, unsigned l, std::uint64_t x) noexcept {
  if constexpr (kLanes<T> == 1) {
    v = x;
  } else {
    v[l] = x;
  }
}

template <class T>
inline T load(const std::uint64_t* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class T>
inline void store(std::uint64_t* p, const T& v) noexcept {
  std::memcpy(p, &v, sizeof v);
}

/// The 32 even-position bits of each word, packed into its low half: one
/// PEXT per word where BMI2 is on, the magic-mask network otherwise.
inline std::uint64_t even_bits(std::uint64_t x) noexcept { return bitpack::compress_even64(x); }

template <class V>
inline V even_bits(V x) noexcept {
  x &= 0x5555555555555555ULL;
  x = (x | (x >> 1)) & 0x3333333333333333ULL;
  x = (x | (x >> 2)) & 0x0F0F0F0F0F0F0F0FULL;
  x = (x | (x >> 4)) & 0x00FF00FF00FF00FFULL;
  x = (x | (x >> 8)) & 0x0000FFFF0000FFFFULL;
  x = (x | (x >> 16)) & 0x00000000FFFFFFFFULL;
  return x;
}

/// The low 32 bits of each word spread to its even positions (the
/// inverse of even_bits).
inline std::uint64_t spread_even(std::uint64_t x) noexcept { return bitpack::spread_chunks(x, 1); }

template <class V>
inline V spread_even(V x) noexcept {
  x &= 0x00000000FFFFFFFFULL;
  x = (x | (x << 16)) & 0x0000FFFF0000FFFFULL;
  x = (x | (x << 8)) & 0x00FF00FF00FF00FFULL;
  x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0FULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  return (x | (x << 1)) & 0x5555555555555555ULL;
}

/// kLevel[r]: the multiples of 2^r — where the tree nodes covering 2^r
/// lines sit inside a word.
constexpr std::uint64_t kLevel[7] = {~0ULL,
                                     0x5555555555555555ULL,
                                     0x1111111111111111ULL,
                                     0x0101010101010101ULL,
                                     0x0001000100010001ULL,
                                     0x0000000100000001ULL,
                                     0x0000000000000001ULL};

/// kLineBit[b]: bit b of the line index of each of a word's 64 lines.
constexpr std::uint64_t kLineBit[6] = {0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL,
                                       0xF0F0F0F0F0F0F0F0ULL, 0xFF00FF00FF00FF00ULL,
                                       0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};

/// Main stages whose 2^k-line boxes fit in one word (k <= 6): the tail.
constexpr unsigned kTailStages = 6;

/// Up pass of every tree inside one word: z[r] holds, at each multiple of
/// 2^r, the XOR of the 2^r bits starting there (r <= Levels).
template <unsigned Levels, class T>
inline void tree_up(T x, T z[7]) noexcept {
  z[0] = x;
  for (unsigned r = 0; r < Levels; ++r) {
    z[r + 1] = (z[r] ^ (z[r] >> (1U << r))) & kLevel[r + 1];
  }
}

/// Down pass from the level-Top nodes (flags `d` at the multiples of
/// 2^Top) to level Lo: a node with up signal u and flag d hands u & d to
/// its upper child and d | ~u to its lower one.
template <unsigned Top, unsigned Lo, class T>
inline T tree_down(const T z[7], T d) noexcept {
  for (unsigned r = Top; r > Lo; --r) {
    d = (z[r] & d) | (((d | ~z[r]) & kLevel[r]) << (1U << (r - 1)));
  }
  return d;
}

/// The switch controls of one word's pairs at the even positions (bit 2t
/// = the setting of pair t, odd bits clear), for sp(P) splitters.  P <= 6:
/// every splitter's whole tree is inside the word and each root echoes its
/// own up signal.  P == 7 stands for any p > 6: the word is one 64-line
/// subtree whose flag `top` came from the levels above.  The setting is
/// s(2t) XOR f(2t) with f(2t) = z_u AND z_d of the pair's leaf node; sp(1)
/// has no arbiter and passes s(2t) itself.
template <unsigned P, class T>
inline T word_controls(T x, T top) noexcept {
  if constexpr (P == 1) {
    return x & kLevel[1];
  } else {
    constexpr unsigned kLevels = P < 6 ? P : 6;
    T z[7];
    tree_up<kLevels>(x, z);
    const T d = tree_down<kLevels, 1>(z, P <= 6 ? z[kLevels] : top);
    return (x ^ (z[1] & d)) & kLevel[1];
  }
}

/// Eq. 8's arbiter levels of one sp(p) column: the up pass folds p levels
/// (the lines into pairs, then to the root), the down pass expands p - 1
/// levels and sets the switches; sp(1) has none.
constexpr unsigned arbiter_levels(unsigned p) noexcept { return p == 1 ? 0 : 2 * p; }

/// word_controls for a run-time p.
template <class T>
inline T controls(T x, unsigned p, T top) noexcept {
  switch (p) {
    case 1: return word_controls<1>(x, top);
    case 2: return word_controls<2>(x, top);
    case 3: return word_controls<3>(x, top);
    case 4: return word_controls<4>(x, top);
    case 5: return word_controls<5>(x, top);
    case 6: return word_controls<6>(x, top);
    default: return word_controls<7>(x, top);
  }
}

/// kSwapMask[b]: the lower partner of every index-bit b <-> b+1 swap
/// (index bit b set, bit b+1 clear).
constexpr std::uint64_t kSwapMask[5] = {0x2222222222222222ULL, 0x0C0C0C0C0C0C0C0CULL,
                                        0x00F000F000F000F0ULL, 0x0000FF000000FF00ULL,
                                        0x00000000FFFF0000ULL};

/// One column on one word: pair t exchanges under its setting (ce: the
/// settings at the even positions, c: the same compressed), then the
/// unshuffle at chunk 2^cl sends the even outputs of every 2^(cl+1)-line
/// group to its first half.  Where BMI2 is on a single word takes the
/// compress/exchange/spread route (two PEXT, two PDEP); otherwise the
/// exchange is a delta swap and the unshuffle, a rotation of the low cl+1
/// line-index bits, cl more.
template <class T>
inline T pass_word(T x, T ce, [[maybe_unused]] T c, unsigned cl) noexcept {
#if defined(__BMI2__)
  if constexpr (kLanes<T> == 1) {
    const T e = even_bits(x);
    const T o = even_bits(x >> 1);
    const T t = (e ^ o) & c;
    return bitpack::interleave_chunks64(e ^ t, o ^ t, 1U << cl);
  }
#endif
  T t = (x ^ (x >> 1)) & ce;
  x ^= t | (t << 1);
  for (unsigned b = 0; b < cl; ++b) {
    t = (x ^ (x >> (1U << b))) & kSwapMask[b];
    x ^= t | (t << (1U << b));
  }
  return x;
}

/// Stuck flag wires, then stuck controls, on the 32 compressed controls c
/// of line word w (e: the word's upper-input bits, compressed).  The masks
/// are packed per control word, two line words each.
inline std::uint64_t patch_controls(const ColumnFaultMasks& f, std::size_t w, std::uint64_t c,
                                    std::uint64_t e) noexcept {
  const unsigned shift = 32 * static_cast<unsigned>(w & 1);
  const auto half = [&](const std::vector<std::uint64_t>& masks) {
    return (masks[w >> 1] >> shift) & 0xFFFFFFFFULL;
  };
  if (!f.flag_mask.empty()) {
    const std::uint64_t fm = half(f.flag_mask);
    c = (c & ~fm) | ((e ^ half(f.flag_val)) & fm);
  }
  if (!f.ctl_and.empty()) c = (c & half(f.ctl_and)) | half(f.ctl_or);
  return c;
}

/// Patch every lane of T's compressed controls (words w0, w0 + 1, ...).
template <class T>
inline void patch_lanes(const ColumnFaultMasks& f, std::size_t w0, const T& x, T& c) noexcept {
  for (unsigned l = 0; l < kLanes<T>; ++l) {
    set_lane(c, l, patch_controls(f, w0 + l, lane(c, l), even_bits(lane(x, l))));
  }
}

/// Controls of T's words, compressed (bit t = pair t) — the stored form.
template <class T>
inline T compressed_controls(const ColumnFaultMasks* f, std::size_t w0, const T& x,
                             const T& ce) noexcept {
  T c = even_bits(ce);
  if (f != nullptr) patch_lanes(*f, w0, x, c);
  return c;
}

/// Store T's compressed controls for words [w0, w0 + lanes) into the
/// packed control words (two line words per control word, even word
/// first).
template <class T>
inline void store_controls(std::uint64_t* ctl, std::size_t w0, const T& c) noexcept {
  if constexpr (kLanes<T> == 1) {
    ctl[w0 >> 1] = (w0 & 1) == 0 ? c : ctl[w0 >> 1] | (c << 32);
  } else {
    for (unsigned l = 0; l < kLanes<T>; l += 2) {
      ctl[(w0 + l) >> 1] = lane(c, l) | (lane(c, l + 1) << 32);
    }
  }
}

/// Packed per-word parities: bit w of out = XOR of x[w]'s 64 bits, the up
/// signal of the tree node covering that word.
inline void word_parities(const std::uint64_t* x, std::size_t words,
                          std::uint64_t* out) noexcept {
  for (std::size_t i = 0; i < bitpack::words_for(words); ++i) out[i] = 0;
  for (std::size_t w = 0; w < words; ++w) {
    out[w >> 6] |= static_cast<std::uint64_t>(std::popcount(x[w]) & 1) << (w & 63);
  }
}

template <unsigned Levels>
inline void subtree_words(const std::uint64_t* z, std::size_t words, std::uint64_t* d) noexcept {
  std::uint64_t lv[7];
  for (std::size_t w = 0; w < words; ++w) {
    tree_up<Levels>(z[w], lv);
    d[w] = tree_down<Levels, 0>(lv, lv[Levels]);
  }
}

/// Flags of `nbits` packed tree nodes with up signals z (zero tail) that
/// sit `levels` levels below their splitter roots; d gets each node's flag
/// in the same layout.  Six levels per word, recursing on the parities
/// above that.  `work` holds 2 words per 64 nodes per recursion level.
/// Returns the levels evaluated.
inline unsigned subtree_flags(const std::uint64_t* z, std::size_t nbits, unsigned levels,
                              std::uint64_t* d, std::uint64_t* work) noexcept {
  const std::size_t words = bitpack::words_for(nbits);
  switch (levels) {
    case 1: subtree_words<1>(z, words, d); return 2;
    case 2: subtree_words<2>(z, words, d); return 4;
    case 3: subtree_words<3>(z, words, d); return 6;
    case 4: subtree_words<4>(z, words, d); return 8;
    case 5: subtree_words<5>(z, words, d); return 10;
    case 6: subtree_words<6>(z, words, d); return 12;
    default: break;
  }
  const std::size_t up = bitpack::words_for(words);
  std::uint64_t* zz = work;
  std::uint64_t* dd = work + up;
  word_parities(z, words, zz);
  const unsigned above = subtree_flags(zz, words, levels - 6, dd, dd + up);
  std::uint64_t lv[7];
  for (std::size_t w = 0; w < words; ++w) {
    tree_up<6>(z[w], lv);
    d[w] = tree_down<6, 0>(lv, (dd[w >> 6] >> (w & 63)) & 1);
  }
  return above + 12;
}

/// Every control word of one column of sp(p) splitters, T's lanes at a
/// time.  For p > 6 each word is one 64-line subtree: the p - 6 levels
/// above run first over the packed word parities, then each word expands
/// its flag.
template <class T>
inline unsigned column_arbiter_lanes(const std::uint64_t* bits, std::size_t words, unsigned p,
                                     const ColumnFaultMasks* faults, std::uint64_t* ctl,
                                     std::uint64_t* work) noexcept {
  const std::uint64_t* top = nullptr;
  unsigned above = 0;
  if (p > 6) {
    const std::size_t up = bitpack::words_for(words);
    word_parities(bits, words, work);
    above = subtree_flags(work, words, p - 6, work + up, work + 2 * up);
    top = work + up;
  }
  for (std::size_t w = 0; w < words; w += kLanes<T>) {
    const T x = load<T>(bits + w);
    T flag{};
    if (top != nullptr) {
      for (unsigned l = 0; l < kLanes<T>; ++l) {
        set_lane(flag, l, (top[(w + l) >> 6] >> ((w + l) & 63)) & 1);
      }
    }
    store_controls(ctl, w, compressed_controls(faults, w, x, controls(x, p, flag)));
  }
  return arbiter_levels(p < 6 ? p : 6) + above;
}

/// KernelSet::column_arbiter, with lanes of type Wide where the column
/// has enough words and single words otherwise.
template <class Wide>
inline unsigned column_arbiter(const std::uint64_t* bits, std::size_t nbits, unsigned p,
                               const ColumnFaultMasks* faults, std::uint64_t* ctl,
                               std::uint64_t* work) noexcept {
  const std::size_t words = bitpack::words_for(nbits);
  if (words % kLanes<Wide> == 0) {
    return column_arbiter_lanes<Wide>(bits, words, p, faults, ctl, work);
  }
  return column_arbiter_lanes<std::uint64_t>(bits, words, p, faults, ctl, work);
}

/// Bit s of the line index of word w's 64 lines, cut to the network's
/// `tail` mask (n < 64 lines fill only part of the one word).
inline std::uint64_t line_pattern(unsigned s, std::size_t w, std::uint64_t tail) noexcept {
  const std::uint64_t v = s < 6 ? kLineBit[s] : (((w >> (s - 6)) & 1) != 0 ? ~0ULL : 0);
  return v & tail;
}

/// The tail for the words [w0, w0 + lanes of T), every slice word in a
/// register-sized local: the union of the lanes' moving slices moves (a
/// frozen slice word is a fixed point of every tail column, so moving it
/// is harmless).
template <class T>
void tail_block(TailJob& job, std::size_t w0) noexcept {
  constexpr unsigned kMaxSlices = 26;  // m < 26 address slices + the parity
  constexpr unsigned L = kLanes<T>;
  const unsigned m = job.m;
  const std::size_t words = job.words;
  const unsigned q = m + 1;
  const std::uint32_t all = (std::uint32_t{1} << q) - 1;
  const std::uint64_t tail = m < 6 ? (std::uint64_t{1} << (1U << m)) - 1 : ~0ULL;
  const unsigned k0 = m < kTailStages ? m : kTailStages;

  T sv[kMaxSlices];
  for (unsigned s = 0; s < q; ++s) sv[s] = load<T>(job.slices + s * words + w0);
  std::uint32_t live = job.live;
  std::uint32_t touched = live;
  std::uint64_t moved = 0;
  unsigned levels = 0;
  std::size_t col = 0;
  for (unsigned i = m - k0; i < m; ++i) {
    const unsigned k = m - i;
    const unsigned sort = k - 1;
    // The arbiter taps the sorting slice at the stage entry; dv is how far
    // the tap has drifted from the slice since (link flips feed the tap,
    // dead crosspoints poison the slice) and moves with it.
    T dv{};
    bool diverged = false;
    for (unsigned j = 0; j < k; ++j, ++col) {
      const unsigned p = k - j;
      const ColumnFaultMasks* f = job.faults != nullptr ? job.faults[col] : nullptr;
      if (f != nullptr && !f->bit_flip.empty()) {
        dv ^= load<T>(f->bit_flip.data() + w0);
        diverged = true;
      }
      const T x = sv[sort] ^ dv;
      T ce = controls(x, p, T{});
      levels += arbiter_levels(p);
      const T c = compressed_controls(f, w0, x, ce);
      if (f != nullptr) ce = spread_even(c);  // the patched settings
      store_controls(job.ctl + col * job.ctl_stride, w0, c);
      if (f != nullptr) {
        for (const DeadCrosspoint& d : f->dead) {
          // Poison = every address bit of the line flipped, parity too; the
          // tap keeps the value it had (dv flips with the sorting slice).
          const std::size_t line = 2 * std::size_t{d.sw} + d.in_port;
          const std::size_t l = (line >> 6) - w0;
          if (l >= L || ((lane(c, static_cast<unsigned>(l)) >> (d.sw & 31)) & 1) !=
                            unsigned(d.in_port ^ d.out_port)) {
            continue;
          }
          T hit{};
          set_lane(hit, static_cast<unsigned>(l), std::uint64_t{1} << (line & 63));
          for (unsigned s = 0; s < q; ++s) sv[s] ^= hit;
          dv ^= hit;
          diverged = true;
          live = touched = all;
        }
      }
      // Update columns unshuffle within the 2^p-line splitter, a stage's
      // last column within the 2^k-line box (the network's last: none).
      const unsigned cl = p > 1 ? p - 1 : (i + 1 < m ? k - 1 : 0);
      for (std::uint32_t rest = live; rest != 0; rest &= rest - 1) {
        const auto s = static_cast<unsigned>(std::countr_zero(rest));
        sv[s] = pass_word(sv[s], ce, c, cl);
      }
      moved += static_cast<unsigned>(std::popcount(live));
      if (diverged) {
        dv = pass_word(dv, ce, c, cl);
        ++moved;
      }
    }
    // The stage consumed address bit `sort`: a consumed slice that now
    // equals the line-index pattern is final.
    const std::uint32_t consumed =
        ((std::uint32_t{1} << m) - 1) & ~((std::uint32_t{1} << sort) - 1);
    for (std::uint32_t rest = live & consumed; rest != 0; rest &= rest - 1) {
      const auto s = static_cast<unsigned>(std::countr_zero(rest));
      bool fixed = true;
      for (unsigned l = 0; l < L; ++l) fixed &= lane(sv[s], l) == line_pattern(s, w0 + l, tail);
      if (fixed) live &= ~(std::uint32_t{1} << s);
    }
  }
  for (std::uint32_t rest = touched; rest != 0; rest &= rest - 1) {
    const auto s = static_cast<unsigned>(std::countr_zero(rest));
    store(job.slices + s * words + w0, sv[s]);
  }
  job.slice_words += moved * L;
  if (w0 == 0) job.arbiter_levels += levels;  // the same levels for every block
}

/// KernelSet::solve_tail, with lanes of type Wide where the network has
/// enough words and narrower ones otherwise.
template <class Wide>
inline void solve_tail(TailJob& job) noexcept {
  if (job.words % kLanes<Wide> == 0) {
    for (std::size_t w0 = 0; w0 < job.words; w0 += kLanes<Wide>) tail_block<Wide>(job, w0);
  } else if (job.words % 2 == 0) {
    for (std::size_t w0 = 0; w0 < job.words; w0 += 2) tail_block<u64x2>(job, w0);
  } else {
    tail_block<std::uint64_t>(job, 0);
  }
}

}  // namespace
}  // namespace bnb::kernels::detail
