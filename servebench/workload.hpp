// Seeded request generator for the serving benchmark.
//
// A workload is a pool of distinct permutations plus the order in which
// one closed-loop client offers them.  Everything is drawn from the
// benchmark's --seed before any timing starts; the engine only ever
// receives the finished Permutation objects.
//
//   * ZIPF HOT SET: rank r of a `hot_set`-permutation set is requested
//     with probability proportional to 1 / (r + 1)^zipf_s.
//   * FRESH DRAWS: with probability `fresh_frac` a request is instead a
//     brand-new uniformly random permutation (a guaranteed cache miss).
//   * NEAR REPEATS (stream workload): each item is a uniformly chosen hot
//     base with `transpositions` random image swaps applied.
//
// Seed 9001 is held out: no tuning run uses it, and a claimed gain must
// also hold on it.
//
// The request order is one cycle of `cycle` requests; a run that outlasts
// it starts the cycle again.  Every permutation a cycle adds past the
// cache's capacity has long been evicted when its turn comes round again,
// so a repeat cycle has the same hit structure as the first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "perm/permutation.hpp"

namespace servebench {

enum class Entry : std::uint8_t {
  kRouter,  ///< one ResilientRouter::route per request
  kStream,  ///< frames of `frame` items per StreamEngine::run
};

struct WorkloadSpec {
  std::string_view name;
  Entry entry = Entry::kRouter;
  unsigned m = 0;
  std::size_t hot_set = 0;          ///< distinct hot permutations (bases for kStream)
  double zipf_s = 0.0;              ///< Zipf exponent over the hot set (0 = uniform)
  double fresh_frac = 0.0;          ///< share of requests that are fresh draws
  std::size_t transpositions = 0;   ///< near-repeat distance (kStream)
  std::size_t cache_capacity = 0;   ///< ScheduleCache entries
  std::size_t cycle = 0;            ///< requests (items) per generated cycle
  std::size_t frame = 1;            ///< items per StreamEngine::run (kStream)
  double recorded_hit_ratio = 0.0;  ///< hits / lookups one generated cycle yields
  /// Share of the timing windows, ranked by p50 from the fast end, that
  /// the run reports: the p50 of the window at that rank and the
  /// throughput pooled over it and every faster window (0.5 = the median
  /// window and the faster half).  On a shared host the router workloads
  /// switch, host-wide and for seconds to minutes at a time, between a
  /// quiet regime and one 1.5-1.7x slower, and the share of slow time
  /// differs from run to run, so their median window follows that share,
  /// not the code.  They report the quietest 1% (about 6 of 600 windows in
  /// 30 s), which still exists in most runs that are slow for most of their
  /// length.  A change to the code moves every window alike, so it moves the
  /// quiet end by the same share.  Ranking by p50 (the hit latency) and
  /// pooling the throughput keeps the throughput from being picked for a
  /// window that happened to draw few misses.  A stream window holds only
  /// 64 frames, so its fast tail is sampling noise; it reports the median.
  double quiet_share = 0.5;
};

/// The benchmark's workloads, in the order run.py runs them.
[[nodiscard]] std::span<const WorkloadSpec> workloads() noexcept;
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name) noexcept;

/// Zipf(s) sampler over ranks 0 .. n-1 by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  [[nodiscard]] std::size_t operator()(bnb::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// `k` random transpositions of `base`'s image (positions drawn uniformly,
/// distinct within each swap).
[[nodiscard]] bnb::Permutation near_repeat(const bnb::Permutation& base, std::size_t k,
                                           bnb::Rng& rng);

struct Requests {
  std::vector<bnb::Permutation> pool;   ///< every distinct permutation
  std::vector<std::uint32_t> order;     ///< request i routes pool[order[i % size]]
  std::size_t prefill = 0;              ///< set-up routes pool[0 .. prefill)

  [[nodiscard]] const bnb::Permutation& at(std::size_t i) const {
    return pool[order[i % order.size()]];
  }
};

/// Generate `spec`'s inputs from `seed`; same seed, same bytes.
[[nodiscard]] Requests generate(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace servebench
