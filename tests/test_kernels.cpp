// Kernel-equivalence suite: every kernel tier this build can run on this
// host must be BIT-IDENTICAL to the scalar reference — on the raw packed
// primitives over randomized zero-tail arrays (1..4096 bits), on the fused
// slice_pass against its three-pass composition, on the slice fill and
// drain (pack/unpack_slices, 1..2^14 lines), on the clean-delivery proof
// (delivery_clean, every single corruption, m = 1..14).  Full routes and
// route_words on every tier must equal the behavioral BnbNetwork
// (exhaustive for m <= 3, randomized up to m = 12, every single fault at
// m = 4, a 12-fault campaign at m = 6), and their ControlTrace capture
// must equal the scalar plan's.  A SIMD lane bug that survives this file
// does not exist.
//
// The tier list is discovered at runtime (kernels::supported_kernel_sets),
// so the same test binary checks scalar everywhere, avx2/avx512 on x86
// hosts that have them, and neon on aarch64.
#include <gtest/gtest.h>

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

/// The sweep of logical sizes: every size up to 300 bits (all word-boundary
/// and tail shapes), then a spread of larger ones up to 4096.
std::vector<std::size_t> size_sweep() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 300; ++n) sizes.push_back(n);
  for (std::size_t n : {320UL, 384UL, 511UL, 512UL, 513UL, 777UL, 1024UL,
                        2000UL, 2048UL, 3333UL, 4095UL, 4096UL}) {
    sizes.push_back(n);
  }
  return sizes;
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

  for (const char* rejected : {"avx1024", "wide"}) {
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

TEST(Kernels, CompressPassesMatchScalarOnRandomizedArrays) {
  Rng rng(0xC0DE01);
  const auto& ref = kernels::scalar_kernels();
  for (const std::size_t nbits : size_sweep()) {
    const auto in = random_packed(nbits, rng);
    const std::size_t out_words = bitpack::words_for(nbits / 2);
    std::vector<std::uint64_t> expect_e(out_words + 1), expect_o(out_words + 1),
        expect_x(out_words + 1), got(out_words + 1);
    ref.compress_even(in.data(), nbits, expect_e.data());
    ref.compress_odd(in.data(), nbits, expect_o.data());
    ref.pair_xor_compress(in.data(), nbits, expect_x.data());
    for (const KernelSet* set : kernels::supported_kernel_sets()) {
      set->compress_even(in.data(), nbits, got.data());
      ASSERT_TRUE(std::equal(got.begin(), got.begin() + out_words, expect_e.begin()))
          << set->name << " compress_even nbits=" << nbits;
      set->compress_odd(in.data(), nbits, got.data());
      ASSERT_TRUE(std::equal(got.begin(), got.begin() + out_words, expect_o.begin()))
          << set->name << " compress_odd nbits=" << nbits;
      set->pair_xor_compress(in.data(), nbits, got.data());
      ASSERT_TRUE(std::equal(got.begin(), got.begin() + out_words, expect_x.begin()))
          << set->name << " pair_xor_compress nbits=" << nbits;
    }
  }
}

TEST(Kernels, MovementPassesMatchScalarOnRandomizedArrays) {
  Rng rng(0xC0DE02);
  const auto& ref = kernels::scalar_kernels();
  for (const std::size_t nbits : size_sweep()) {
    const auto a = random_packed(nbits, rng);
    const auto b = random_packed(nbits, rng);
    const std::size_t words = bitpack::words_for(nbits);
    const std::size_t out_words = bitpack::words_for(2 * nbits);
    std::vector<std::uint64_t> expect(out_words + 1), got(out_words + 1);

    ref.interleave_bits(a.data(), b.data(), nbits, expect.data());
    for (const KernelSet* set : kernels::supported_kernel_sets()) {
      set->interleave_bits(a.data(), b.data(), nbits, got.data());
      ASSERT_TRUE(std::equal(got.begin(), got.begin() + out_words, expect.begin()))
          << set->name << " interleave_bits nbits=" << nbits;
    }

    for (std::size_t chunk = 1; chunk <= nbits; chunk *= 2) {
      if (nbits % chunk != 0) break;
      ref.chunk_concat(a.data(), b.data(), nbits, chunk, expect.data());
      for (const KernelSet* set : kernels::supported_kernel_sets()) {
        set->chunk_concat(a.data(), b.data(), nbits, chunk, got.data());
        ASSERT_TRUE(std::equal(got.begin(), got.begin() + out_words, expect.begin()))
            << set->name << " chunk_concat nbits=" << nbits << " chunk=" << chunk;
      }
    }

    const auto ctl = random_packed(nbits, rng);
    std::vector<std::uint64_t> expect_e(a), expect_o(b);
    ref.masked_exchange(expect_e.data(), expect_o.data(), ctl.data(), words);
    std::vector<std::uint64_t> expect_x(a);
    ref.xor_words(expect_x.data(), b.data(), words);
    for (const KernelSet* set : kernels::supported_kernel_sets()) {
      std::vector<std::uint64_t> e(a), o(b);
      set->masked_exchange(e.data(), o.data(), ctl.data(), words);
      ASSERT_TRUE(e == expect_e && o == expect_o)
          << set->name << " masked_exchange nbits=" << nbits;
      std::vector<std::uint64_t> d(a);
      set->xor_words(d.data(), b.data(), words);
      ASSERT_EQ(d, expect_x) << set->name << " xor_words nbits=" << nbits;
    }
  }
}

TEST(Kernels, SlicePassMatchesItsThreePassComposition) {
  Rng rng(0xC0DE03);
  const auto& ref = kernels::scalar_kernels();
  for (std::size_t nbits = 2; nbits <= 4096; nbits *= 2) {
    const auto in = random_packed(nbits, rng);
    const std::size_t words = bitpack::words_for(nbits);
    const std::size_t half_words = bitpack::words_for(nbits / 2);
    const auto ctl = random_packed(nbits / 2, rng);
    for (std::size_t chunk = 1; 2 * chunk <= nbits; chunk *= 2) {
      // Reference: explicit compress -> masked exchange -> chunk_concat.
      std::vector<std::uint64_t> e(half_words + 1), o(half_words + 1),
          expect(words + 1), got(words + 1), tmp(words + 1);
      ref.compress_even(in.data(), nbits, e.data());
      ref.compress_odd(in.data(), nbits, o.data());
      ref.masked_exchange(e.data(), o.data(), ctl.data(), half_words);
      ref.chunk_concat(e.data(), o.data(), nbits / 2, chunk, expect.data());
      for (const KernelSet* set : kernels::supported_kernel_sets()) {
        set->slice_pass(in.data(), nbits, ctl.data(), chunk, tmp.data(), got.data());
        ASSERT_TRUE(std::equal(got.begin(), got.begin() + words, expect.begin()))
            << set->name << " slice_pass nbits=" << nbits << " chunk=" << chunk;
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
