#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/expect.hpp"
#include "perm/generators.hpp"

namespace servebench {
namespace {

// The mix parameters (Zipf exponent, hot-set size, fresh share, cache
// capacity, swap distance) are assumptions, not measured from any request
// trace.  Each workload isolates one property instead: a hit ratio of about
// 0.8 at m = 12, all misses at a swap distance of k = 5, and the small
// lane's fixed cost at the same ~0.8 hit ratio.  A gain on one is a gain on
// that property, not on real traffic.  Replace them once a real request
// trace is in the repository.
constexpr WorkloadSpec kWorkloads[] = {
    // The warm-hit path at N = 4096: hits (digest, copy-out find, apply,
    // audit) set p50, the 20% that miss (solve) set the tail.  Capacity 256
    // against a 512-perm Zipf set plus fresh draws keeps eviction running.
    {.name = "hot_zipf_m12",
     .entry = Entry::kRouter,
     .m = 12,
     .hot_set = 512,
     .zipf_s = 1.0,
     .fresh_frac = 0.05,
     .cache_capacity = 256,
     .cycle = 32768,
     .recorded_hit_ratio = 0.80,
     .quiet_share = 0.01},
    // Cache writes and the solver/applier pipeline at N = 1024: near
    // repeats (10 of 1024 positions moved) all miss, so every item solves,
    // inserts and evicts; the case an incremental delta-solve must win.
    {.name = "churn_stream_m10",
     .entry = Entry::kStream,
     .m = 10,
     .hot_set = 256,
     .transpositions = 5,
     .cache_capacity = 256,
     .cycle = 4096,
     .frame = 32,
     .recorded_hit_ratio = 0.0},
    // The hot_zipf mix at N = 64, on ResilientRouter's small lane, where
    // the fixed cost per request (router code, audit, dest copy) dominates.
    {.name = "small_zipf_m6",
     .entry = Entry::kRouter,
     .m = 6,
     .hot_set = 512,
     .zipf_s = 1.0,
     .fresh_frac = 0.05,
     .cache_capacity = 256,
     .cycle = 65536,
     .recorded_hit_ratio = 0.80,
     .quiet_share = 0.01},
};

/// Independent sub-stream `salt` of `seed` (hot set, order, fresh draws).
[[nodiscard]] bnb::Rng substream(std::uint64_t seed, std::uint64_t salt) {
  bnb::SplitMix64 mix(seed ^ (salt * 0x9E3779B97F4A7C15ULL));
  return bnb::Rng(mix.next());
}

}  // namespace

std::span<const WorkloadSpec> workloads() noexcept { return kWorkloads; }

const WorkloadSpec* find_workload(std::string_view name) noexcept {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  BNB_EXPECTS(n >= 1);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::operator()(bnb::Rng& rng) const {
  const double u = rng.uniform01();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

bnb::Permutation near_repeat(const bnb::Permutation& base, std::size_t k, bnb::Rng& rng) {
  const std::span<const std::uint32_t> src = base.image();
  std::vector<std::uint32_t> image(src.begin(), src.end());
  const std::size_t n = image.size();
  BNB_EXPECTS(n >= 2);
  for (std::size_t t = 0; t < k; ++t) {
    const std::size_t i = rng.below(n);
    std::size_t j = rng.below(n - 1);
    if (j >= i) ++j;
    std::swap(image[i], image[j]);
  }
  return bnb::Permutation(std::move(image));
}

Requests generate(const WorkloadSpec& spec, std::uint64_t seed) {
  const std::size_t n = std::size_t{1} << spec.m;
  bnb::Rng hot_rng = substream(seed, 1);
  bnb::Rng order_rng = substream(seed, 2);
  bnb::Rng fresh_rng = substream(seed, 3);

  Requests req;
  req.pool.reserve(spec.hot_set + spec.cycle / 8);
  for (std::size_t r = 0; r < spec.hot_set; ++r) {
    req.pool.push_back(bnb::random_perm(n, hot_rng));
  }
  req.order.reserve(spec.cycle);

  if (spec.entry == Entry::kStream) {
    // Items are distinct near repeats, stored in request order right after
    // the bases (so every frame is a contiguous span of the pool); set-up
    // caches every base.
    BNB_EXPECTS(spec.cycle % spec.frame == 0);
    req.prefill = spec.hot_set;
    for (std::size_t i = 0; i < spec.cycle; ++i) {
      const std::size_t base = order_rng.below(spec.hot_set);
      req.order.push_back(static_cast<std::uint32_t>(req.pool.size()));
      req.pool.push_back(near_repeat(req.pool[base], spec.transpositions, fresh_rng));
    }
    return req;
  }

  // Router workloads: set-up caches the top `capacity` ranks, so timing
  // starts on a full cache and every miss insert evicts.
  req.prefill = std::min(spec.cache_capacity, spec.hot_set);
  const ZipfSampler zipf(spec.hot_set, spec.zipf_s);
  for (std::size_t i = 0; i < spec.cycle; ++i) {
    if (order_rng.uniform01() < spec.fresh_frac) {
      req.order.push_back(static_cast<std::uint32_t>(req.pool.size()));
      req.pool.push_back(bnb::random_perm(n, fresh_rng));
    } else {
      req.order.push_back(static_cast<std::uint32_t>(zipf(order_rng)));
    }
  }
  return req;
}

}  // namespace servebench
