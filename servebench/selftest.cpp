// Self-test of the benchmark's request generator (run.py --selftest).
//
//   1. The same seed gives a byte-identical request sequence (every
//      permutation image, in request order), and another seed does not.
//   2. One cycle of each workload, played against a real ScheduleCache,
//      lands within kHitRatioSlack of the workload's recorded hit ratio.
//      The recorded ratio is what the generator itself produces, so this
//      guards the generator and the cache's eviction against drift; it
//      does not show that the mix resembles real traffic.
//      Hit or miss depends only on the digests and the cache's eviction
//      policy, so every miss inserts one pre-solved stand-in schedule
//      instead of solving.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>

#include "core/compiled_bnb.hpp"
#include "core/schedule_cache.hpp"
#include "perm/generators.hpp"
#include "workload.hpp"

namespace sb = servebench;

namespace {

constexpr double kHitRatioSlack = 0.03;
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

[[nodiscard]] bool same_sequence(const sb::Requests& a, const sb::Requests& b) {
  if (a.order.size() != b.order.size() || a.prefill != b.prefill) return false;
  const auto same = [](const bnb::Permutation& x, const bnb::Permutation& y) {
    return x.size() == y.size() &&
           std::memcmp(x.image().data(), y.image().data(),
                       x.size() * sizeof(std::uint32_t)) == 0;
  };
  for (std::size_t i = 0; i < a.prefill; ++i) {
    if (!same(a.pool[i], b.pool[i])) return false;
  }
  for (std::size_t i = 0; i < a.order.size(); ++i) {
    if (!same(a.at(i), b.at(i))) return false;
  }
  return true;
}

[[nodiscard]] double cycle_hit_ratio(const sb::WorkloadSpec& spec, const sb::Requests& req) {
  bnb::obs::MetricsRegistry registry;
  bnb::ScheduleCache cache(spec.cache_capacity, 8, &registry);
  const bnb::CompiledBnb plan(spec.m);
  bnb::RouteScratch scratch;
  scratch.prepare(plan);
  const bnb::Permutation stand_in = req.pool.front();
  const bool small = plan.small_capable();
  bnb::ControlSchedule general;
  bnb::SmallSchedule flat;
  if (small) {
    flat = plan.compile_small(stand_in, scratch);
  } else {
    plan.solve(stand_in, scratch, general);
  }
  const auto lookup = [&](const bnb::Permutation& pi) {
    const bnb::PermutationDigest digest = bnb::digest_permutation(pi);
    if (small) {
      bnb::SmallSchedule out;
      if (!cache.find_small(digest, out)) cache.insert_small(digest, flat);
    } else {
      bnb::ControlSchedule& out = scratch.schedule_slot();
      if (!cache.find(digest, out)) cache.insert(digest, general);
    }
  };
  for (std::size_t i = 0; i < req.prefill; ++i) lookup(req.pool[i]);
  const bnb::ScheduleCacheStats before = cache.stats();
  for (std::size_t i = 0; i < req.order.size(); ++i) lookup(req.at(i));
  const bnb::ScheduleCacheStats after = cache.stats();
  const double hits = static_cast<double>(after.hits - before.hits);
  return hits / static_cast<double>(req.order.size());
}

}  // namespace

int main() {
  for (const sb::WorkloadSpec& spec : sb::workloads()) {
    const std::string name(spec.name);
    const sb::Requests a = sb::generate(spec, 1);
    const sb::Requests b = sb::generate(spec, 1);
    const sb::Requests c = sb::generate(spec, 2);
    check(same_sequence(a, b), name + ": seed 1 twice gives byte-identical requests");
    check(!same_sequence(a, c), name + ": seeds 1 and 2 give different requests");
    for (const std::uint64_t seed : kSeeds) {
      const double hr = cycle_hit_ratio(spec, seed == 1 ? a : sb::generate(spec, seed));
      char line[160];
      std::snprintf(line, sizeof line, "%s: seed %llu hit ratio %.4f (recorded %.2f +- %.2f)",
                    name.c_str(), static_cast<unsigned long long>(seed), hr,
                    spec.recorded_hit_ratio, kHitRatioSlack);
      check(std::fabs(hr - spec.recorded_hit_ratio) <= kHitRatioSlack, line);
    }
  }
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
