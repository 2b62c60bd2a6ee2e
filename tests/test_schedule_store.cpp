// bnb.schedstore.v3 persistence: save → load must replay bit-identically
// in BOTH lanes across every kernel tier this host supports (the format's
// kernel-invariance promise), a small record's steps must be the flatten of
// its line map, a store the build cannot read — missing, truncated,
// wrong magic, unsupported version (v1 and v2 included), header or record CRC
// damage — must throw schedule_store_error from load() with nothing
// inserted, a save() that fails must leave the previous store intact, and
// warm_start() must serve mmap-backed hits that promote into the table
// while per-record corruption degrades to a counted miss, never a wrong
// route.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "core/compiled_bnb.hpp"
#include "core/kernels/kernel_set.hpp"
#include "core/schedule_cache.hpp"
#include "core/schedule_store.hpp"
#include "core/small_schedule.hpp"
#include "fault/resilience.hpp"
#include "perm/generators.hpp"

namespace {

using namespace bnb;
using kernels::KernelSet;

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::string temp_path(const char* name) { return testing::TempDir() + name; }

/// One general-lane (m=7) and one small-lane (m=5) permutation with their
/// cold-reference destinations, plus a saved store holding both schedules.
struct Fixture {
  Permutation general_pi{Permutation(identity_perm(128))};
  Permutation small_pi{Permutation(identity_perm(32))};
  std::vector<std::uint32_t> general_want;
  std::vector<std::uint32_t> small_want;
  std::string path;
  std::size_t saved = 0;
};

Fixture make_saved_store(const char* filename, std::uint64_t seed) {
  Fixture fx;
  Rng rng(seed);
  fx.general_pi = random_perm(128, rng);
  fx.small_pi = random_perm(32, rng);
  fx.path = temp_path(filename);

  const CompiledBnb general_plan(7);
  const CompiledBnb small_plan(5);
  RouteScratch scratch;
  ScheduleCache cache(16);
  const auto g = cache.route(general_plan, fx.general_pi, scratch);
  fx.general_want.assign(g.dest.begin(), g.dest.end());
  const auto s = cache.route(small_plan, fx.small_pi, scratch);
  fx.small_want.assign(s.dest.begin(), s.dest.end());
  fx.saved = cache.save(fx.path);
  EXPECT_EQ(fx.saved, 2U);
  EXPECT_EQ(cache.stats().store_saved, 2U);
  return fx;
}

void expect_replays_bit_identical(ScheduleCache& cache, const Fixture& fx,
                                  const KernelSet* set, const char* label) {
  const CompiledBnb general_plan(7, set);
  const CompiledBnb small_plan(5, set);
  RouteScratch scratch;
  const auto before = cache.stats();
  const auto g = cache.route(general_plan, fx.general_pi, scratch);
  for (std::size_t j = 0; j < fx.general_want.size(); ++j) {
    ASSERT_EQ(g.dest[j], fx.general_want[j]) << label << " general dest[" << j << "]";
  }
  const auto s = cache.route(small_plan, fx.small_pi, scratch);
  for (std::size_t j = 0; j < fx.small_want.size(); ++j) {
    ASSERT_EQ(s.dest[j], fx.small_want[j]) << label << " small dest[" << j << "]";
  }
  const auto after = cache.stats();
  EXPECT_EQ(after.hits, before.hits + 2)
      << label << ": loaded schedules must replay as hits, not re-solves";
  EXPECT_EQ(after.misses, before.misses) << label;
}

// ---- round trip ---------------------------------------------------------

TEST(ScheduleStore, SaveLoadRoundTripBitIdenticalAcrossTiers) {
  const Fixture fx = make_saved_store("roundtrip.bnbstore", 0x5702E01);

  // One save, one load per tier: the stored bytes are tier-invariant, so a
  // store written under the default dispatch must replay bit-identically
  // on every tier.
  for (const KernelSet* set : kernels::supported_kernel_sets()) {
    ScheduleCache cache(16);
    ASSERT_EQ(cache.load(fx.path), 2U) << set->name;
    EXPECT_EQ(cache.size(), 2U) << set->name;
    EXPECT_EQ(cache.stats().store_loaded, 2U) << set->name;
    expect_replays_bit_identical(cache, fx, set, set->name);
  }
}

TEST(ScheduleStore, SaveAnEmptyCacheAndLoadItBack) {
  const std::string path = temp_path("empty.bnbstore");
  ScheduleCache cache(8);
  EXPECT_EQ(cache.save(path), 0U);
  ScheduleCache fresh(8);
  EXPECT_EQ(fresh.load(path), 0U);
  EXPECT_EQ(fresh.size(), 0U);
}

/// Byte offsets inside a small record's 176-byte payload: m (u32), step
/// count (u16), reserved (u16), 11 step masks (u64), 11 step deltas (u8),
/// 64 one-byte lines, 5 pad bytes.
constexpr std::size_t kSmallDepthAt = 4;
constexpr std::size_t kSmallMasksAt = 8;
constexpr std::size_t kSmallDeltasAt = kSmallMasksAt + 8 * SmallReplay::kMaxDepth;
constexpr std::size_t kSmallLinesAt = kSmallDeltasAt + SmallReplay::kMaxDepth;

/// The line map a small record's payload carries.
std::vector<std::uint32_t> small_record_lines(const unsigned char* payload, unsigned m) {
  std::vector<std::uint32_t> lines(std::size_t{1} << m);
  for (std::size_t j = 0; j < lines.size(); ++j) lines[j] = payload[kSmallLinesAt + j];
  return lines;
}

/// Whether a small record payload's steps replay its own line map: the
/// butterfly replay of 1 << j lands on 1 << line j for every j < 2^m and
/// leaves every higher bit in place (XOR-linearity makes that complete).
bool small_record_steps_replay_its_lines(const unsigned char* payload, unsigned m) {
  std::uint16_t depth;
  std::memcpy(&depth, payload + kSmallDepthAt, sizeof(depth));
  if (depth > SmallReplay::kMaxDepth) return false;
  const std::vector<std::uint32_t> lines = small_record_lines(payload, m);
  for (unsigned j = 0; j < 64; ++j) {
    std::uint64_t x = std::uint64_t{1} << j;
    for (std::size_t s = 0; s < depth; ++s) {
      std::uint64_t mask;
      std::memcpy(&mask, payload + kSmallMasksAt + 8 * s, sizeof(mask));
      const unsigned d = payload[kSmallDeltasAt + s];
      if (d == 0 || d >= 64) return false;
      const std::uint64_t y = (x ^ (x >> d)) & mask;
      x ^= y ^ (y << d);
    }
    const unsigned want = j < lines.size() ? lines[j] : j;
    if (x != std::uint64_t{1} << want) return false;
  }
  return true;
}

TEST(ScheduleStore, SmallLaneRoundTripThroughTheServingPaths) {
  // A cache filled only by the serving paths (ResilientRouter and
  // cache.route) holds line maps and never flattens; save() flattens each
  // small entry into its record.  Every saved record's steps must be
  // flatten_small of its line map, and a fresh cache loaded from the file
  // must serve every repeat as a hit with bit-identical delivery.
  Rng rng(0x5702E0B);
  for (unsigned m = 2; m <= SmallSchedule::kMaxM; ++m) {
    SCOPED_TRACE(testing::Message() << "m=" << m);
    const std::size_t n = std::size_t{1} << m;
    const std::string path = temp_path("small-roundtrip.bnbstore");
    std::vector<Permutation> distinct;  // m = 2 has only 24 permutations
    while (distinct.size() < 12) {
      const Permutation pi = random_perm(n, rng);
      if (std::find(distinct.begin(), distinct.end(), pi) == distinct.end()) {
        distinct.push_back(pi);
      }
    }
    const std::vector<Permutation> routed(distinct.begin(), distinct.begin() + 6);
    const std::vector<Permutation> cached(distinct.begin() + 6, distinct.end());
    std::vector<std::vector<std::uint32_t>> want;
    const CompiledBnb plan(m);
    RouteScratch scratch;
    {
      ScheduleCache cache(32);
      ResilientRouter router(m, {}, &cache);
      for (const Permutation& pi : routed) want.push_back(router.route(pi).dest);
      for (const Permutation& pi : cached) {
        const auto out = cache.route(plan, pi, scratch);
        want.emplace_back(out.dest.begin(), out.dest.end());
      }
      ASSERT_EQ(cache.stats().hits, 0U);
      ASSERT_EQ(cache.save(path), routed.size() + cached.size());
    }

    const WarmStore store(path);
    ASSERT_EQ(store.records(), routed.size() + cached.size());
    for (std::size_t i = 0; i < store.records(); ++i) {
      const WarmStore::Record& r = store.record(i);
      ASSERT_EQ(r.kind, WarmStore::kSmallRecord);
      ASSERT_EQ(r.m, m);
      const SmallReplay want_steps = plan.flatten_small(
          SmallSchedule::from_lines(small_record_lines(r.payload, m)));
      std::uint16_t depth;
      std::memcpy(&depth, r.payload + kSmallDepthAt, sizeof(depth));
      EXPECT_EQ(depth, want_steps.depth()) << "record " << i;
      for (std::size_t s = 0; s < SmallReplay::kMaxDepth; ++s) {
        std::uint64_t mask;
        std::memcpy(&mask, r.payload + kSmallMasksAt + 8 * s, sizeof(mask));
        EXPECT_EQ(mask, want_steps.step_mask(s)) << "record " << i << " step " << s;
        EXPECT_EQ(r.payload[kSmallDeltasAt + s], want_steps.step_delta(s))
            << "record " << i << " step " << s;
      }
      EXPECT_TRUE(small_record_steps_replay_its_lines(r.payload, m)) << "record " << i;
    }

    ScheduleCache fresh(32);
    ASSERT_EQ(fresh.load(path), store.records());
    ResilientRouter router(m, {}, &fresh);
    for (std::size_t i = 0; i < routed.size(); ++i) {
      const ResilientReport report = router.route(routed[i]);
      EXPECT_TRUE(report.served_from_cache) << "routed " << i;
      EXPECT_EQ(report.dest, want[i]) << "routed " << i;
    }
    for (std::size_t i = 0; i < cached.size(); ++i) {
      const auto out = fresh.route(plan, cached[i], scratch);
      EXPECT_TRUE(std::equal(out.dest.begin(), out.dest.end(), want[routed.size() + i].begin()))
          << "cached " << i;
    }
    EXPECT_EQ(fresh.stats().hits, routed.size() + cached.size());
    EXPECT_EQ(fresh.stats().misses, 0U);
  }
}

TEST(ScheduleStore, SaveIsCrashSafeWhenTheTempFileCannotBeCreated) {
  // save() writes <path>.tmp.<pid> and renames it over <path>.  A directory
  // squatting on the temp name makes the create fail: save() must throw and
  // leave the previous store untouched, still loading every record.
  const Fixture fx = make_saved_store("crash-safe.bnbstore", 0x5702E07);
  const std::vector<unsigned char> before = read_file(fx.path);
  const std::string tmp = fx.path + ".tmp." + std::to_string(::getpid());
  ASSERT_EQ(::mkdir(tmp.c_str(), 0700), 0) << tmp;

  ScheduleCache other(16);
  const CompiledBnb plan(7);
  RouteScratch scratch;
  Rng rng(0x5702E08);
  for (int i = 0; i < 3; ++i) (void)other.route(plan, random_perm(128, rng), scratch);
  EXPECT_THROW((void)other.save(fx.path), schedule_store_error);
  EXPECT_EQ(other.stats().store_saved, 0U);
  ::rmdir(tmp.c_str());

  EXPECT_EQ(read_file(fx.path), before) << "a failed save must not touch the old store";
  ScheduleCache reloaded(16);
  ASSERT_EQ(reloaded.load(fx.path), fx.saved);
  expect_replays_bit_identical(reloaded, fx, nullptr, "after failed save");

  // With the obstruction gone, the same save goes through and leaves no
  // temp file behind.
  EXPECT_EQ(other.save(fx.path), 3U);
  struct stat st = {};
  EXPECT_NE(::stat(tmp.c_str(), &st), 0) << "temp file left behind";
  ScheduleCache replaced(16);
  EXPECT_EQ(replaced.load(fx.path), 3U);
}

// ---- refusal diagnostics ------------------------------------------------

TEST(ScheduleStore, LoadMissingFileThrows) {
  ScheduleCache cache(8);
  EXPECT_THROW((void)cache.load(temp_path("no-such-file.bnbstore")),
               schedule_store_error);
}

TEST(ScheduleStore, LoadRejectsForeignAndDamagedHeaders) {
  const Fixture fx = make_saved_store("headers.bnbstore", 0x5702E02);
  const std::vector<unsigned char> good = read_file(fx.path);
  ASSERT_GE(good.size(), 64U);

  // Not a store at all (bad magic).
  const std::string bad_magic = temp_path("bad-magic.bnbstore");
  write_file(bad_magic, {'n', 'o', 't', ' ', 'a', ' ', 's', 't', 'o', 'r', 'e'});
  ScheduleCache cache(8);
  EXPECT_THROW((void)cache.load(bad_magic), schedule_store_error);

  // Truncated mid-header.
  const std::string truncated = temp_path("truncated.bnbstore");
  write_file(truncated, std::vector<unsigned char>(good.begin(), good.begin() + 16));
  EXPECT_THROW((void)cache.load(truncated), schedule_store_error);

  // Another version with a correct CRC: refused as unsupported, so the
  // version check (not the CRC) is what fires.  v1 keyed records by the old
  // serial digest, v2 stored every column's switch controls with the line
  // map; v4 stands for a future format.  The diagnostic names both the
  // file's version and the one this build reads.
  for (const std::uint32_t version : {1U, 2U, 4U}) {
    std::vector<unsigned char> other = good;
    std::memcpy(other.data() + 8, &version, 4);
    const std::uint32_t crc = crc32(other.data(), 28);
    std::memcpy(other.data() + 28, &crc, 4);
    const std::string other_path = temp_path("other-version.bnbstore");
    write_file(other_path, other);
    try {
      (void)cache.load(other_path);
      FAIL() << "version " << version << " must be refused";
    } catch (const schedule_store_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("unsupported version " + std::to_string(version)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("bnb.schedstore.v" + std::to_string(version)), std::string::npos)
          << what;
      EXPECT_NE(what.find("bnb.schedstore.v3"), std::string::npos) << what;
    }
    EXPECT_THROW((void)cache.warm_start(other_path), schedule_store_error);
  }

  // Header bytes damaged without fixing the CRC.
  std::vector<unsigned char> damaged = good;
  damaged[24] ^= 0xFF;  // reserved field, covered by the header CRC
  const std::string damaged_path = temp_path("damaged-header.bnbstore");
  write_file(damaged_path, damaged);
  EXPECT_THROW((void)cache.load(damaged_path), schedule_store_error);

  // Nothing was inserted by any refused load.
  EXPECT_EQ(cache.size(), 0U);
}

TEST(ScheduleStore, LoadRejectsRecordCrcDamageAtomically) {
  const Fixture fx = make_saved_store("record-crc.bnbstore", 0x5702E03);
  std::vector<unsigned char> bytes = read_file(fx.path);
  ASSERT_GT(bytes.size(), 65U);
  bytes[64] ^= 0x01;  // first payload byte of record 0
  const std::string path = temp_path("record-crc-damaged.bnbstore");
  write_file(path, bytes);

  ScheduleCache cache(8);
  try {
    (void)cache.load(path);
    FAIL() << "payload damage must be refused";
  } catch (const schedule_store_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC mismatch"), std::string::npos)
        << e.what();
  }
  // load() validates everything before touching the table: the intact
  // record 1 must NOT have been inserted either.
  EXPECT_EQ(cache.size(), 0U);
  EXPECT_EQ(cache.stats().store_loaded, 0U);
}

// ---- warm start ---------------------------------------------------------

TEST(ScheduleStore, WarmStartServesHitsAndPromotesIntoTheTable) {
  const Fixture fx = make_saved_store("warm.bnbstore", 0x5702E04);

  ScheduleCache cache(16);
  ASSERT_EQ(cache.warm_start(fx.path), 2U);
  EXPECT_TRUE(cache.has_warm_store());
  EXPECT_EQ(cache.size(), 0U) << "warm_start is lazy: nothing promoted yet";

  // First routes hit the mmap-backed store and promote into the table.
  expect_replays_bit_identical(cache, fx, nullptr, "warm-start");
  EXPECT_EQ(cache.size(), 2U) << "warm hits must promote";
  EXPECT_GE(cache.stats().store_loaded, 2U);

  // Second routes hit the flat table directly.
  expect_replays_bit_identical(cache, fx, nullptr, "post-promotion");
}

TEST(ScheduleStore, WarmStartRecordCorruptionDegradesToAMiss) {
  const Fixture fx = make_saved_store("warm-corrupt.bnbstore", 0x5702E05);
  std::vector<unsigned char> bytes = read_file(fx.path);
  ASSERT_GT(bytes.size(), 65U);
  bytes[64] ^= 0x01;  // damage record 0's payload; header stays valid
  bytes[bytes.size() - 1] ^= 0x01;  // and the last record's tail
  const std::string path = temp_path("warm-corrupt-damaged.bnbstore");
  write_file(path, bytes);

  ScheduleCache cache(16);
  ASSERT_EQ(cache.warm_start(path), 2U)
      << "record CRCs are lazy for warm_start; the header is intact";

  // Both lookups fail verify(), fall through to a counted miss, re-solve,
  // and still deliver the correct routes.
  const CompiledBnb general_plan(7);
  const CompiledBnb small_plan(5);
  RouteScratch scratch;
  const auto g = cache.route(general_plan, fx.general_pi, scratch);
  for (std::size_t j = 0; j < fx.general_want.size(); ++j) {
    ASSERT_EQ(g.dest[j], fx.general_want[j]) << "corrupt warm record changed a route";
  }
  const auto s = cache.route(small_plan, fx.small_pi, scratch);
  for (std::size_t j = 0; j < fx.small_want.size(); ++j) {
    ASSERT_EQ(s.dest[j], fx.small_want[j]) << "corrupt warm record changed a route";
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0U);
  EXPECT_EQ(stats.misses, 2U) << "corruption must degrade to counted misses";
  EXPECT_EQ(cache.size(), 2U) << "the re-solves repopulate the table";
}

TEST(ScheduleStore, WarmStoreLookupAndVerifyDirectly) {
  const Fixture fx = make_saved_store("direct.bnbstore", 0x5702E06);
  const WarmStore store(fx.path);
  ASSERT_EQ(store.records(), 2U);

  const PermutationDigest dg = digest_permutation(fx.general_pi);
  const WarmStore::Record* rg = store.lookup(dg);
  ASSERT_NE(rg, nullptr);
  EXPECT_EQ(rg->kind, WarmStore::kGeneralRecord);
  EXPECT_EQ(rg->m, 7U);
  EXPECT_TRUE(store.verify(*rg));

  const PermutationDigest ds = digest_permutation(fx.small_pi);
  const WarmStore::Record* rs = store.lookup(ds);
  ASSERT_NE(rs, nullptr);
  EXPECT_EQ(rs->kind, WarmStore::kSmallRecord);
  EXPECT_EQ(rs->m, 5U);
  EXPECT_TRUE(store.verify(*rs));

  EXPECT_EQ(store.lookup(PermutationDigest{1, 2}), nullptr);
}

// ---- mutation battery ---------------------------------------------------

/// Write `bytes` as a store and open it both ways.  load() must refuse it
/// with nothing inserted; warm_start() must refuse it or serve only right
/// routes — hits from intact records, counted misses (and re-solves) for
/// damaged ones.
void expect_refused_and_never_misroutes(const Fixture& fx,
                                        const std::vector<unsigned char>& bytes,
                                        const std::string& what) {
  const std::string path = temp_path("mutant.bnbstore");
  write_file(path, bytes);
  ScheduleCache loaded(8);
  EXPECT_THROW((void)loaded.load(path), schedule_store_error) << what;
  EXPECT_EQ(loaded.size(), 0U) << what;
  EXPECT_EQ(loaded.stats().store_loaded, 0U) << what;

  ScheduleCache warm(8);
  try {
    (void)warm.warm_start(path);
  } catch (const schedule_store_error&) {
    return;
  }
  const CompiledBnb general_plan(7);
  const CompiledBnb small_plan(5);
  RouteScratch scratch;
  for (int pass = 0; pass < 2; ++pass) {  // the second pass reads what the first promoted
    const auto g = warm.route(general_plan, fx.general_pi, scratch);
    ASSERT_TRUE(std::equal(g.dest.begin(), g.dest.end(), fx.general_want.begin()))
        << what << ": warm_start served a wrong general route";
    const auto s = warm.route(small_plan, fx.small_pi, scratch);
    ASSERT_TRUE(std::equal(s.dest.begin(), s.dest.end(), fx.small_want.begin()))
        << what << ": warm_start served a wrong small route";
  }
  const auto stats = warm.stats();
  EXPECT_EQ(stats.hits + stats.misses, 4U) << what;
}

void put_u32(std::vector<unsigned char>& bytes, std::size_t at, std::uint32_t value) {
  std::memcpy(bytes.data() + at, &value, 4);
}

std::uint32_t get_u32(const std::vector<unsigned char>& bytes, std::size_t at) {
  std::uint32_t value;
  std::memcpy(&value, bytes.data() + at, 4);
  return value;
}

/// Offsets of the record headers of a well-formed store.
std::vector<std::size_t> record_offsets(const std::vector<unsigned char>& bytes) {
  std::vector<std::size_t> out;
  for (std::size_t off = 32; off < bytes.size(); off += 32 + get_u32(bytes, off + 24)) {
    out.push_back(off);
  }
  return out;
}

/// Recompute the header CRC (so a lie in the header is self-consistent).
void reseal_header(std::vector<unsigned char>& bytes) {
  put_u32(bytes, 28, crc32(bytes.data(), 28));
}

/// Recompute record `at`'s payload CRC over its (possibly lied) length,
/// when that length still fits in the file.
void reseal_record(std::vector<unsigned char>& bytes, std::size_t at) {
  const std::size_t length = get_u32(bytes, at + 24);
  if (at + 32 + length <= bytes.size()) {
    put_u32(bytes, at + 28, crc32(bytes.data() + at + 32, length));
  }
}

TEST(ScheduleStore, MutatedStoresNeverLoadPartiallyOrMisroute) {
  // A deterministic mutation battery over a store holding both lanes:
  // every truncation, seeded 1-3 bit flips anywhere, and self-consistent
  // lies (CRCs recomputed) about the record count, each record's payload
  // length, kind, m and digest, and the small record's steps.
  const Fixture fx = make_saved_store("mutation.bnbstore", 0x5702E09);
  const std::vector<unsigned char> good = read_file(fx.path);
  const std::vector<std::size_t> records = record_offsets(good);
  ASSERT_EQ(records.size(), 2U);

  for (std::size_t length = 0; length < good.size(); ++length) {
    expect_refused_and_never_misroutes(
        fx, std::vector<unsigned char>(good.begin(), good.begin() + length),
        "truncated to " + std::to_string(length));
  }

  Rng rng(0x5702E0A);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<unsigned char> bytes = good;
    const int flips = 1 + static_cast<int>(rng.below(3));
    std::string what = "flipped bits";
    for (int f = 0; f < flips; ++f) {
      const std::size_t bit = rng.below(8 * bytes.size());
      bytes[bit / 8] ^= static_cast<unsigned char>(1U << (bit % 8));
      what += ' ';
      what += std::to_string(bit);
    }
    if (bytes == good) continue;  // two flips of one bit cancel
    expect_refused_and_never_misroutes(fx, bytes, what);
  }

  for (const std::uint32_t count : {0U, 1U, 3U, 1000U, 0x7FFFFFFFU, 0xFFFFFFFFU}) {
    std::vector<unsigned char> bytes = good;
    put_u32(bytes, 20, count);
    reseal_header(bytes);
    expect_refused_and_never_misroutes(fx, bytes,
                                       "record count " + std::to_string(count));
  }

  for (const std::size_t at : records) {
    const std::uint32_t length = get_u32(good, at + 24);
    const std::string record = "record at " + std::to_string(at);
    for (const std::uint32_t lie :
         {0U, 8U, length - 8, length + 8, length + 16, 0xFFFFFFF8U}) {
      std::vector<unsigned char> bytes = good;
      put_u32(bytes, at + 24, lie);
      reseal_record(bytes, at);
      expect_refused_and_never_misroutes(
          fx, bytes, record + " payload_bytes " + std::to_string(lie));
    }
    for (const std::uint32_t kind : {0U, 1U, 2U, 3U}) {
      if (kind == get_u32(good, at + 16)) continue;
      std::vector<unsigned char> bytes = good;
      put_u32(bytes, at + 16, kind);
      expect_refused_and_never_misroutes(fx, bytes,
                                         record + " kind " + std::to_string(kind));
    }
    for (const std::uint32_t m : {0U, 4U, 5U, 6U, 7U, 8U, 26U}) {
      if (m == get_u32(good, at + 20)) continue;
      std::vector<unsigned char> bytes = good;
      put_u32(bytes, at + 20, m);
      expect_refused_and_never_misroutes(fx, bytes, record + " m " + std::to_string(m));
    }
  }

  // Adversarial steps: the small record's line map (and so its key) is
  // intact and its CRC resealed, but its steps no longer replay that map —
  // one flipped bit in each step's mask, or the last step dropped.  A
  // record must be refused whole, not loaded by its line map alone.
  for (const std::size_t at : records) {
    if (get_u32(good, at + 16) != WarmStore::kSmallRecord) continue;
    const std::size_t payload = at + 32;
    const unsigned m = get_u32(good, at + 20);
    ASSERT_TRUE(small_record_steps_replay_its_lines(good.data() + payload, m));
    std::uint16_t depth;
    std::memcpy(&depth, good.data() + payload + kSmallDepthAt, sizeof(depth));
    ASSERT_GT(depth, 0U);
    std::vector<std::vector<unsigned char>> mutants;
    for (std::size_t step = 0; step < depth; ++step) {
      std::vector<unsigned char> bytes = good;
      const std::size_t bit = rng.below(std::size_t{1} << m);
      bytes[payload + kSmallMasksAt + 8 * step + bit / 8] ^=
          static_cast<unsigned char>(1U << (bit % 8));
      mutants.push_back(bytes);
    }
    std::vector<unsigned char> dropped = good;
    const std::uint16_t shorter = depth - 1;
    std::memcpy(dropped.data() + payload + kSmallDepthAt, &shorter, sizeof(shorter));
    mutants.push_back(dropped);
    for (std::size_t i = 0; i < mutants.size(); ++i) {
      std::vector<unsigned char>& bytes = mutants[i];
      ASSERT_FALSE(small_record_steps_replay_its_lines(bytes.data() + payload, m)) << i;
      reseal_record(bytes, at);
      expect_refused_and_never_misroutes(
          fx, bytes, "small record steps mutant " + std::to_string(i));
    }
  }

  // The two records' digests swapped: every CRC still holds, but each
  // schedule now claims the other's permutation.
  std::vector<unsigned char> swapped = good;
  std::memcpy(swapped.data() + records[0], good.data() + records[1], 16);
  std::memcpy(swapped.data() + records[1], good.data() + records[0], 16);
  expect_refused_and_never_misroutes(fx, swapped, "digests swapped");
}

}  // namespace
