// Kernel-equivalence suite: every kernel tier this build can run on this
// host must be BIT-IDENTICAL to the reference — the column arbiter against
// the paper's splitter model (m = 1..14, every p), the fused tail against
// the same columns run one at a time, slice_pass against
// apply_column_to_lines, the slice fill and drain (pack/unpack_slices,
// 1..2^14 lines), and the clean-delivery proof (delivery_clean, every
// single corruption, m = 1..14).  Full routes and route_words on every
// tier must equal the behavioral BnbNetwork (exhaustive for m <= 3,
// randomized up to m = 14, every single fault at m = 4, a 12-fault
// campaign at m = 6, and campaigns straddling the fused tail at m = 8 and
// 10), and their ControlTrace capture must equal the scalar plan's.  A
// SIMD lane bug that survives this file does not exist.
//
// The tier list is discovered at runtime (kernels::supported_kernel_sets),
// so the same test binary checks scalar everywhere and avx2/avx512 on x86
// hosts that have them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/bit_pack.hpp"
#include "core/bnb_network.hpp"
#include "core/compiled_bnb.hpp"
#include "core/kernels/kernel_set.hpp"
#include "core/splitter.hpp"
#include "fault/fault_model.hpp"
#include "fault/injection.hpp"
#include "perm/generators.hpp"

namespace {

using namespace bnb;
using kernels::KernelSet;

std::vector<std::uint64_t> random_packed(std::size_t nbits, Rng& rng) {
  std::vector<std::uint64_t> words(bitpack::words_for(nbits), 0);
  for (auto& w : words) w = rng();
  if (nbits % 64 != 0 && !words.empty()) {
    words.back() &= (std::uint64_t{1} << (nbits % 64)) - 1;  // zero tail
  }
  return words;
}

// ---- registry and dispatch --------------------------------------------

TEST(Kernels, RegistryListsScalarFirstInAscendingTierOrder) {
  const auto sets = kernels::supported_kernel_sets();
  ASSERT_GE(sets.size(), 1U) << "scalar is always available";
  EXPECT_EQ(sets[0], &kernels::scalar_kernels());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_STREQ(sets[i]->name, kernels::tier_name(sets[i]->tier));
    if (i > 0) {
      EXPECT_LT(static_cast<int>(sets[i - 1]->tier),
                static_cast<int>(sets[i]->tier));
    }
    EXPECT_EQ(kernels::find_kernels(sets[i]->name), sets[i])
        << "find_kernels must round-trip every supported name";
  }
  EXPECT_EQ(kernels::find_kernels("not-a-tier"), nullptr);
  EXPECT_EQ(kernels::find_kernels(""), nullptr);
}

TEST(Kernels, EnvOverrideParsing) {
  // kernels_from_env re-reads the variable on every call (unlike
  // active_kernels, which caches its first resolution), so it can be
  // exercised with setenv directly.
  const char* saved = std::getenv("BNB_KERNELS");
  const std::string saved_value = saved != nullptr ? saved : "";

  ::unsetenv("BNB_KERNELS");
  EXPECT_EQ(kernels::kernels_from_env(), nullptr);
  ::setenv("BNB_KERNELS", "", 1);
  EXPECT_EQ(kernels::kernels_from_env(), nullptr) << "empty behaves as unset";

  for (const KernelSet* set : kernels::supported_kernel_sets()) {
    ::setenv("BNB_KERNELS", set->name, 1);
    EXPECT_EQ(kernels::kernels_from_env(), set) << set->name;
  }

  for (const char* rejected : {"avx1024", "wide", "neon"}) {
    ::setenv("BNB_KERNELS", rejected, 1);
    EXPECT_THROW((void)kernels::kernels_from_env(), std::runtime_error)
        << rejected << ": a misspelled or retired override must fail loudly, "
        << "not fall back";
  }

  if (saved != nullptr) {
    ::setenv("BNB_KERNELS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("BNB_KERNELS");
  }
}

// ---- primitive equivalence --------------------------------------------

std::vector<std::uint8_t> unpack_bits(const std::vector<std::uint64_t>& words, std::size_t n) {
  std::vector<std::uint8_t> bits(n);
  for (std::size_t t = 0; t < n; ++t) bits[t] = static_cast<std::uint8_t>(bitpack::get_bit(words.data(), t));
  return bits;
}

TEST(Kernels, ColumnArbiterMatchesBehavioralSplitters) {
  // The in-word SWAR arbiter (and, for p > 6, the same loop over per-word
  // parities) against the paper's splitter model, splitter by splitter, on
  // random bit slices — unbalanced ones too, as faulty routes feed them.
  // The level count each call reports is Eq. 8's per-splitter delay.
  Rng rng(0xC0DE01);
  const SplitterFaults relaxed;  // empty overlay: relaxes the balance precondition
  for (unsigned m = 1; m <= 14; ++m) {
    const std::size_t n = std::size_t{1} << m;
    const CompiledBnb plan(m, &kernels::scalar_kernels());
    std::vector<std::uint64_t> work(plan.work_words());
    for (unsigned p = 1; p <= m; ++p) {
      const auto in = random_packed(n, rng);
      const std::vector<std::uint8_t> bits = unpack_bits(in, n);
      const Splitter splitter(p);
      std::vector<std::uint8_t> expect;
      for (std::size_t base = 0; base < n; base += splitter.inputs()) {
        const auto r = splitter.route(
            std::span<const std::uint8_t>(bits).subspan(base, splitter.inputs()), &relaxed);
        expect.insert(expect.end(), r.controls.begin(), r.controls.end());
      }
      for (const KernelSet* set : kernels::supported_kernel_sets()) {
        std::vector<std::uint64_t> ctl(plan.control_words(), ~std::uint64_t{0});
        const unsigned levels =
            set->column_arbiter(in.data(), n, p, nullptr, ctl.data(), work.data());
        ASSERT_EQ(levels, splitter.arbiter_delay_fn_units()) << set->name << " p=" << p;
        ASSERT_EQ(unpack_bits(ctl, n / 2), expect) << set->name << " m=" << m << " p=" << p;
        if (n / 2 < 64) {
          ASSERT_EQ(ctl[0] >> (n / 2), 0U) << set->name << " zero tail";
        }
      }
    }
  }
}

TEST(Kernels, SolveTailMatchesColumnByColumnPasses) {
  // The fused tail against the same columns run one at a time through the
  // scalar column_arbiter and slice_pass with every slice moving: slices
  // and every column's controls must agree, so freezing a consumed slice
  // is exact.  Each 64-line word starts as a random permutation of its
  // lines (the state a clean route reaches at the tail), with the address
  // bits above 6 set to the line pattern.
  Rng rng(0xC0DE02);
  const KernelSet& ref = kernels::scalar_kernels();
  for (unsigned m = 1; m <= 14; ++m) {
    const std::size_t n = std::size_t{1} << m;
    const std::size_t words = bitpack::words_for(n);
    const unsigned k0 = m < 6 ? m : 6;
    const CompiledBnb plan(m, &ref);
    const std::size_t cw = plan.control_words();
    std::vector<std::uint64_t> values(n);
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t lines = std::min<std::size_t>(64, n);
      const Permutation local = random_perm(lines, rng);
      for (std::size_t t = 0; t < lines; ++t) values[64 * w + t] = (64 * w) | local(t);
    }
    std::vector<std::uint64_t> start((m + 1) * words, 0);
    ref.pack_slices(values.data(), n, m, start.data());

    // Reference: column by column, every address slice moving.
    std::vector<std::uint64_t> expect = start;
    std::vector<std::uint64_t> expect_ctl;
    std::vector<std::uint64_t> work(plan.work_words()), out(words), tap(words);
    std::size_t col = plan.columns().size() - k0 * (k0 + 1) / 2;
    unsigned expect_levels = 0;
    for (unsigned i = m - k0; i < m; ++i) {
      const unsigned k = m - i;
      std::copy_n(expect.begin() + static_cast<std::ptrdiff_t>((k - 1) * words), words, tap.begin());
      for (unsigned j = 0; j < k; ++j, ++col) {
        const CompiledBnb::Column& c = plan.columns()[col];
        std::vector<std::uint64_t> ctl(cw);
        expect_levels += ref.column_arbiter(tap.data(), n, c.p, nullptr, ctl.data(), work.data());
        expect_ctl.insert(expect_ctl.end(), ctl.begin(), ctl.end());
        if (c.update_bits) {
          ref.slice_pass(tap.data(), n, ctl.data(), c.group / 2, out.data());
          tap = out;
        }
        for (unsigned s = 0; s < m; ++s) {
          ref.slice_pass(expect.data() + s * words, n, ctl.data(), c.group / 2, out.data());
          std::copy(out.begin(), out.end(), expect.begin() + static_cast<std::ptrdiff_t>(s * words));
        }
      }
    }
    for (const KernelSet* set : kernels::supported_kernel_sets()) {
      std::vector<std::uint64_t> slices = start;
      std::vector<std::uint64_t> ctl(expect_ctl.size(), ~std::uint64_t{0});
      kernels::TailJob job;
      job.slices = slices.data();
      job.words = words;
      job.m = m;
      job.live = (std::uint32_t{1} << k0) - 1;  // consumed bits above 6 already final
      job.ctl = ctl.data();
      job.ctl_stride = cw;
      set->solve_tail(job);
      ASSERT_EQ(slices, expect) << set->name << " m=" << m;
      ASSERT_EQ(ctl, expect_ctl) << set->name << " m=" << m;
      ASSERT_EQ(job.arbiter_levels, expect_levels) << set->name << " m=" << m;
      // Clean: the stage's k live slices per column, k columns per stage.
      std::uint64_t passes = 0;
      for (unsigned k = 1; k <= k0; ++k) passes += std::uint64_t{k} * k;
      ASSERT_EQ(job.slice_words, passes * words) << set->name << " m=" << m;
    }
  }
}

TEST(Kernels, SlicePassMatchesItsThreePassComposition) {
  // slice_pass against its definition: apply_column_to_lines on the
  // unpacked bits (exchange pair t under control bit t, then the
  // 2*chunk-line unshuffle).
  Rng rng(0xC0DE03);
  for (std::size_t nbits = 2; nbits <= 4096; nbits *= 2) {
    const auto in = random_packed(nbits, rng);
    const std::size_t words = bitpack::words_for(nbits);
    const auto ctl = random_packed(nbits / 2, rng);
    const std::vector<std::uint8_t> bits = unpack_bits(in, nbits);
    for (std::size_t chunk = 1; 2 * chunk <= nbits; chunk *= 2) {
      std::vector<std::uint8_t> moved(nbits);
      apply_column_to_lines<std::uint8_t>(ctl.data(), bits, moved, 2 * chunk);
      std::vector<std::uint64_t> got(words + 1);
      for (const KernelSet* set : kernels::supported_kernel_sets()) {
        set->slice_pass(in.data(), nbits, ctl.data(), chunk, got.data());
        ASSERT_EQ(unpack_bits(got, nbits), moved)
            << set->name << " slice_pass nbits=" << nbits << " chunk=" << chunk;
        if (nbits < 64) {
          ASSERT_EQ(got[0] >> nbits, 0U) << set->name << " zero tail";
        }
      }
    }
  }
}

TEST(Kernels, PackUnpackSlicesMatchBitDefinitionAndRoundTrip) {
  // The slice fill and drain of the bit-sliced datapath.  The scalar reference
  // (a 64x64 bit transpose pruned to the carried rows) is checked against
  // the bit definition; every tier against the scalar reference.  Sizes
  // cover the partial block (n < 64) and whole blocks up to 2^14 lines.
  Rng rng(0xC0DE04);
  const auto& ref = kernels::scalar_kernels();
  auto bit_of = [](const std::vector<std::uint64_t>& v, std::size_t i) {
    return (v[i >> 6] >> (i & 63)) & 1U;
  };

  // pack_slices: any n, any bits < 32, high value bits ignored, zero tail.
  for (const std::size_t n : {1UL, 2UL, 3UL, 31UL, 32UL, 63UL, 64UL, 65UL, 100UL, 128UL,
                              1000UL, 4096UL, 16384UL}) {
    for (const unsigned bits : {1U, 5U, 10U, 14U, 25U, 31U}) {
      const std::size_t words = bitpack::words_for(n);
      std::vector<std::uint64_t> values(n);
      for (auto& v : values) v = rng();
      // Garbage-filled outputs: every slice word must be written.
      std::vector<std::uint64_t> expect(bits * words, ~std::uint64_t{0});
      ref.pack_slices(values.data(), n, bits, expect.data());
      for (unsigned a = 0; a < bits; ++a) {
        const std::vector<std::uint64_t> slice(expect.begin() + a * words,
                                               expect.begin() + (a + 1) * words);
        for (std::size_t t = 0; t < 64 * words; ++t) {
          const std::uint64_t want = t < n ? (values[t] >> a) & 1U : 0;
          ASSERT_EQ(bit_of(slice, t), want)
              << "scalar pack n=" << n << " bits=" << bits << " slice " << a
              << " line " << t;
        }
      }
      for (const KernelSet* set : kernels::supported_kernel_sets()) {
        std::vector<std::uint64_t> got(bits * words, ~std::uint64_t{0});
        set->pack_slices(values.data(), n, bits, got.data());
        ASSERT_EQ(got, expect) << set->name << " pack_slices n=" << n << " bits=" << bits;
      }
    }
  }

  // unpack_slices: n = 2^bits lines, random address slices plus a random
  // parity slice; tail bits past n are garbage the drain must ignore.
  for (unsigned bits = 1; bits <= 14; ++bits) {
    const std::size_t n = std::size_t{1} << bits;
    const std::size_t words = bitpack::words_for(n);
    const std::uint64_t low = n - 1;
    std::vector<std::uint64_t> slices((bits + 1) * words);
    for (auto& w : slices) w = rng();
    std::vector<std::uint64_t> tag(n);
    for (auto& t : tag) t = rng();
    std::vector<std::uint64_t> expect(n + 1, 0xABCDU);
    ref.unpack_slices(slices.data(), n, bits, tag.data(), expect.data());
    ASSERT_EQ(expect[n], 0xABCDU) << "scalar unpack wrote past n";
    for (std::size_t t = 0; t < n; ++t) {
      std::uint64_t v = 0;
      for (unsigned a = 0; a < bits; ++a) {
        const std::vector<std::uint64_t> slice(slices.begin() + a * words,
                                               slices.begin() + (a + 1) * words);
        v |= std::uint64_t{bit_of(slice, t)} << a;
      }
      const std::vector<std::uint64_t> parity(slices.begin() + bits * words,
                                              slices.end());
      const std::uint64_t p = bit_of(parity, t) != 0 ? low : 0;
      ASSERT_EQ(expect[t], tag[v ^ p] ^ p)
          << "scalar unpack bits=" << bits << " line " << t;
    }
    for (const KernelSet* set : kernels::supported_kernel_sets()) {
      std::vector<std::uint64_t> got(n + 1, 0xABCDU);
      set->unpack_slices(slices.data(), n, bits, tag.data(), got.data());
      ASSERT_EQ(got, expect) << set->name << " unpack_slices bits=" << bits;
    }

    // Round trip as the engine uses it: line values are entry words whose
    // low bits form a permutation, the tag maps each address back to its
    // entry word, and a clear parity slice leaves every value unchanged.
    const Permutation pi = random_perm(n, rng);
    std::vector<std::uint64_t> values(n);
    std::vector<std::uint64_t> entry(n);
    for (std::size_t t = 0; t < n; ++t) {
      values[t] = (rng() << 32) | pi(t);
      entry[pi(t)] = values[t];
    }
    for (const KernelSet* set : kernels::supported_kernel_sets()) {
      std::vector<std::uint64_t> packed((bits + 1) * words, 0);
      set->pack_slices(values.data(), n, bits, packed.data());
      std::vector<std::uint64_t> back(n, 0);
      set->unpack_slices(packed.data(), n, bits, entry.data(), back.data());
      ASSERT_EQ(back, values) << set->name << " pack/unpack round trip bits=" << bits;
    }
  }
}

/// The proof's definition, written out: every line has payload < n,
/// address == line and requested[payload] == line.
bool clean_by_definition(const Permutation& pi, const std::vector<Word>& out) {
  for (std::size_t line = 0; line < out.size(); ++line) {
    const Word& w = out[line];
    if (w.payload >= out.size() || w.address != line || pi(w.payload) != line) {
      return false;
    }
  }
  return true;
}

/// Fill the 4 padding bytes after every Word::address with random bytes.
void scribble_padding(std::vector<Word>& out, Rng& rng) {
  static_assert(sizeof(Word) == 16, "Word carries 4 padding bytes after address");
  for (Word& w : out) {
    const auto garbage = static_cast<std::uint32_t>(rng());
    std::memcpy(reinterpret_cast<unsigned char*>(&w) + sizeof(std::uint32_t), &garbage,
                sizeof garbage);
  }
}

TEST(Kernels, DeliveryCleanMatchesScalarOnEverySingleCorruption) {
  // The proof every tier runs ahead of the DeliveryAudit classifier: it
  // must hold on every clean delivery and fail on each single corruption,
  // wherever in a vector step the bad line sits, and padding garbage must
  // not change a result.  The scalar reference is checked against the
  // definition; every tier against the scalar reference.
  Rng rng(0xC0DE05);
  const auto& ref = kernels::scalar_kernels();
  std::size_t checked = 0;
  for (unsigned m = 1; m <= 14; ++m) {
    const std::size_t n = std::size_t{1} << m;
    const Permutation pi = random_perm(n, rng);
    const std::uint32_t* requested = pi.image().data();
    std::vector<Word> clean(n);
    for (std::size_t j = 0; j < n; ++j) clean[pi(j)] = Word{pi(j), std::uint64_t{j}};

    auto expect_all = [&](const std::vector<Word>& out, bool want, const char* what,
                          std::size_t line) {
      ASSERT_EQ(clean_by_definition(pi, out), want) << what << " m=" << m << " line " << line;
      ASSERT_EQ(ref.delivery_clean(requested, out.data(), n), want)
          << "scalar " << what << " m=" << m << " line " << line;
      std::vector<Word> scribbled = out;
      scribble_padding(scribbled, rng);
      for (const KernelSet* set : kernels::supported_kernel_sets()) {
        ASSERT_EQ(set->delivery_clean(requested, out.data(), n), want)
            << set->name << " " << what << " m=" << m << " line " << line;
        ASSERT_EQ(set->delivery_clean(requested, scribbled.data(), n), want)
            << set->name << " " << what << " (padding garbage) m=" << m << " line " << line;
      }
      ++checked;
    };
    expect_all(clean, true, "clean", 0);

    // Every line for the small sizes (every lane of every step, and the
    // scalar tail below 8 lines); the ends plus random lines above.
    std::vector<std::size_t> lines;
    if (m <= 5) {
      for (std::size_t line = 0; line < n; ++line) lines.push_back(line);
    } else {
      lines = {0, 1, 7, 8, n / 2 + 3, n - 2, n - 1};
      for (int k = 0; k < 8; ++k) lines.push_back(rng.below(n));
    }
    for (const std::size_t line : lines) {
      // The other line of a swap or duplication: any line but this one.
      const std::size_t other = (line + 1 + rng.below(n - 1)) % n;
      for (const std::uint64_t bad_payload :
           {std::uint64_t{n}, n + rng.below(1000), std::uint64_t{1} << 32,
            (std::uint64_t{1} << 32) + clean[line].payload, ~std::uint64_t{0},
            std::uint64_t{1} << 63}) {
        std::vector<Word> out = clean;
        out[line].payload = bad_payload;
        expect_all(out, false, "payload >= N", line);
      }
      for (const bool inside : {true, false}) {
        std::vector<Word> out = clean;
        out[line].address ^= std::uint32_t{1} << (inside ? rng.below(m) : m + rng.below(32 - m));
        expect_all(out, false, inside ? "address bit in [0,N)" : "address bit outside [0,N)",
                   line);
      }
      {
        std::vector<Word> out = clean;
        std::swap(out[line], out[other]);
        expect_all(out, false, "swapped lines", line);
      }
      {
        std::vector<Word> out = clean;
        out[line].payload = out[other].payload;
        expect_all(out, false, "duplicated payload", line);
      }
    }
  }
  EXPECT_GT(checked, 1000U);
}

// ---- full-route equivalence -------------------------------------------

/// Route `pi` through a plan per tier, under `model`'s faults when given,
/// both as route(pi) and as route_words over 64-bit payloads, and require
/// outputs, destinations and self_routed to equal the behavioral
/// BnbNetwork's (Thm. 2 — the datapath reference).  With `with_trace`,
/// every column's packed controls must also equal the scalar plan's
/// ControlTrace: the behavioral model records words per stage, not
/// switch settings.
void expect_route_equivalence(unsigned m, const Permutation& pi, const FaultModel* model,
                              bool with_trace) {
  const std::size_t n = std::size_t{1} << m;
  std::vector<Word> words(n);
  for (std::size_t j = 0; j < n; ++j) {
    words[j] = Word{static_cast<std::uint32_t>(pi(j)), j * 0x9E3779B97F4A7C15ULL};
  }
  const BnbNetwork net(m);
  const NetworkFaults network_faults =
      model != nullptr ? compile_network_faults(*model) : NetworkFaults{};
  const EngineFaults engine_faults =
      model != nullptr ? compile_engine_faults(*model) : EngineFaults{};
  const BnbNetwork::Result ref = net.route_with_faults(pi, network_faults);
  const BnbNetwork::Result ref_words = net.route_words_with_faults(words, network_faults);

  ControlTrace ref_trace;
  if (with_trace) {
    RouteScratch ref_scratch;
    (void)CompiledBnb(m, &kernels::scalar_kernels())
        .route(pi, ref_scratch, &ref_trace, &engine_faults);
  }

  const auto expect_same = [&](const CompiledBnb::Output& out,
                               const BnbNetwork::Result& want, const char* tier,
                               const char* entry) {
    ASSERT_EQ(out.self_routed, want.self_routed) << tier << " " << entry << " m=" << m;
    for (std::size_t line = 0; line < n; ++line) {
      ASSERT_EQ(out.dest[line], want.dest[line])
          << tier << " " << entry << " m=" << m << " dest[" << line << "]";
      ASSERT_EQ(out.outputs[line], want.outputs[line])
          << tier << " " << entry << " m=" << m << " word at line " << line;
    }
  };
  for (const KernelSet* set : kernels::supported_kernel_sets()) {
    const CompiledBnb plan(m, set);
    RouteScratch scratch;
    ControlTrace trace;
    expect_same(plan.route(pi, scratch, with_trace ? &trace : nullptr, &engine_faults), ref,
                set->name, "route");
    if (with_trace) {
      ASSERT_EQ(trace.column_controls, ref_trace.column_controls)
          << set->name << " m=" << m << ": ControlTrace diverged";
    }
    expect_same(plan.route_words(words, scratch, nullptr, &engine_faults), ref_words,
                set->name, "route_words");
  }
}

TEST(Kernels, FullRoutesMatchScalarExhaustivelyForSmallM) {
  for (unsigned m = 1; m <= 3; ++m) {
    Permutation pi = identity_perm(std::size_t{1} << m);
    do {
      expect_route_equivalence(m, pi, nullptr, /*with_trace=*/true);
    } while (pi.next_lexicographic());
  }
}

TEST(Kernels, FullRoutesMatchScalarRandomizedUpToM12) {
  Rng rng(0xC0DE05);
  for (const unsigned m : {4U, 5U, 6U, 7U, 8U, 10U, 12U}) {
    const int reps = m <= 8 ? 4 : 2;
    for (int r = 0; r < reps; ++r) {
      expect_route_equivalence(m, random_perm(std::size_t{1} << m, rng), nullptr,
                               /*with_trace=*/r == 0);
    }
  }
}

TEST(Kernels, FullRoutesMatchBehavioralAtM13AndM14) {
  // The largest networks, where the arbiter's levels above 64 lines recurse
  // over the per-word parities twice (p > 12).
  Rng rng(0xC0DE0A);
  for (const unsigned m : {13U, 14U}) {
    expect_route_equivalence(m, random_perm(std::size_t{1} << m, rng), nullptr,
                             /*with_trace=*/true);
  }
}

TEST(Kernels, RouteWordsPayloadsSurviveEveryTier) {
  // The datapath never moves payloads through the network — it carries
  // only address slices and re-attaches payloads at delivery through the
  // inverse permutation.  Arbitrary 64-bit payloads must come through
  // exactly as the behavioral network delivers them anyway.
  Rng rng(0xC0DE06);
  const unsigned m = 7;
  const std::size_t n = std::size_t{1} << m;
  const Permutation pi = random_perm(n, rng);
  std::vector<Word> words(n);
  for (std::size_t j = 0; j < n; ++j) {
    words[j] = Word{static_cast<std::uint32_t>(pi(j)), rng()};
  }
  const BnbNetwork::Result ref = BnbNetwork(m).route_words(words);
  for (const KernelSet* set : kernels::supported_kernel_sets()) {
    const CompiledBnb plan(m, set);
    RouteScratch scratch;
    const auto out = plan.route_words(words, scratch);
    EXPECT_EQ(out.self_routed, ref.self_routed) << set->name;
    for (std::size_t line = 0; line < n; ++line) {
      ASSERT_EQ(out.outputs[line], ref.outputs[line]) << set->name << " line " << line;
      ASSERT_EQ(out.dest[line], ref.dest[line]) << set->name;
    }
  }
}

TEST(Kernels, FaultOverlaysAndTraceMatchScalarForEverySingleFault) {
  // Every single hardware fault of the m=4 network, compiled to the engine
  // overlay and to the behavioral one, routed with trace capture on every
  // tier: stuck controls, stuck flags, link flips, and dead crosspoints all
  // steer the bit-sliced datapath exactly as they steer the behavioral
  // network.
  Rng rng(0xC0DE07);
  const unsigned m = 4;
  const Permutation pi = random_perm(std::size_t{1} << m, rng);
  for (const FaultSpec& spec : FaultModel::all_single_faults(m)) {
    FaultModel model(m);
    model.add(spec);
    expect_route_equivalence(m, pi, &model, /*with_trace=*/true);
  }
}

TEST(Kernels, MultiFaultCampaignMatchesScalarAtMediumSize) {
  Rng rng(0xC0DE08);
  const unsigned m = 6;
  FaultModel model(m);
  for (const FaultSpec& spec : FaultModel::random_campaign(m, 12, rng)) {
    model.add(spec);
  }
  for (int r = 0; r < 3; ++r) {
    expect_route_equivalence(m, random_perm(std::size_t{1} << m, rng), &model,
                             /*with_trace=*/true);
  }
}

TEST(Kernels, MultiFaultCampaignsStraddleTheTailAtM8AndM10) {
  // Seeded campaigns with every fault kind pinned into stage 1 (boxes of
  // more than 64 lines, the slice-by-slice columns) and into a stage of
  // the fused tail (boxes of 8 lines).  The first campaign leaves stage 0
  // clean, so its consumed slice freezes and a dead crosspoint in stage 1
  // poisons it: that slice must resume moving.  The others also pin faults
  // into stage 0 and add random ones anywhere.  A link flip makes the
  // arbiter's tap leave its slice.  Every tier must equal the behavioral
  // route_with_faults.
  for (const unsigned m : {8U, 10U}) {
    Rng rng(0xC0DE0B + m);
    for (int campaign = 0; campaign < 3; ++campaign) {
      FaultModel model(m);
      if (campaign > 0) {
        for (const FaultSpec& spec : FaultModel::random_campaign(m, 6, rng)) model.add(spec);
      }
      const auto pick = [&](std::uint64_t bound) {
        return static_cast<std::uint32_t>(rng.below(bound));
      };
      std::vector<unsigned> stages = {1U, m - 3};
      if (campaign > 0) stages.push_back(0U);
      for (const unsigned stage : stages) {
        const unsigned k = m - stage;
        for (unsigned j = 0; j < k; j += 2) {
          const unsigned p = k - j;
          const std::uint32_t splitters = std::uint32_t{1} << (stage + j);
          const auto at = [&](std::uint64_t elements) {
            return FaultAddress{stage, j, pick(splitters), pick(elements)};
          };
          model.add({FaultKind::kDeadCrosspoint, at(std::uint64_t{1} << (p - 1)), false,
                     static_cast<std::uint8_t>(pick(2)), static_cast<std::uint8_t>(pick(2))});
          model.add({FaultKind::kLinkFlip, at(std::uint64_t{1} << p), false, 0, 0});
          model.add({FaultKind::kStuckControl, at(std::uint64_t{1} << (p - 1)), pick(2) == 1,
                     0, 0});
          if (p >= 2) {
            model.add({FaultKind::kStuckFlag, at(std::uint64_t{1} << (p - 1)), pick(2) == 1,
                       0, 0});
          }
        }
      }
      for (int r = 0; r < 2; ++r) {
        expect_route_equivalence(m, random_perm(std::size_t{1} << m, rng), &model,
                                 /*with_trace=*/true);
      }
    }
  }
}

TEST(Kernels, BatchResultsMatchAcrossTiers) {
  Rng rng(0xC0DE09);
  const unsigned m = 6;
  const BnbNetwork net(m);
  std::vector<Permutation> perms;
  std::vector<std::uint32_t> ref_dest;
  bool ref_self_routed = true;
  for (int i = 0; i < 12; ++i) {
    perms.push_back(random_perm(std::size_t{1} << m, rng));
    const BnbNetwork::Result ref = net.route(perms.back());
    ref_dest.insert(ref_dest.end(), ref.dest.begin(), ref.dest.end());
    ref_self_routed = ref_self_routed && ref.self_routed;
  }
  for (const KernelSet* set : kernels::supported_kernel_sets()) {
    const CompiledBnb plan(m, set);
    const BatchResult got = plan.route_batch(perms, 3);
    EXPECT_EQ(got.dest, ref_dest) << set->name;
    EXPECT_EQ(got.all_self_routed, ref_self_routed) << set->name;
  }
}

}  // namespace
