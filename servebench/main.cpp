// servebench — the engine's end-to-end serving benchmark.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// One closed-loop client drives NAME's seeded requests through the
// library's public entry point (ResilientRouter::route or
// StreamEngine::run) for S seconds and checks every delivery outside the
// timed interval.  --trace 0 prints the end-to-end metrics; --trace 1
// alternates that untraced pass with a replay of the same requests through
// the same public calls the entry point makes, one span per call
// (ledger.hpp), and prints the per-layer ledger.  Either way the
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}.  Exit status: 0 clean, 1 a misroute or a ledger mismatch,
// 2 bad usage, 3 a workload refused because it would oversubscribe the
// host.  See servebench/README.md.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/bnb_network.hpp"
#include "core/compiled_bnb.hpp"
#include "core/kernels/kernel_set.hpp"
#include "core/schedule_cache.hpp"
#include "fabric/stream_engine.hpp"
#include "fault/delivery_audit.hpp"
#include "fault/resilience.hpp"
#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "workload.hpp"

namespace sb = servebench;

namespace {

using bnb::Permutation;

/// Requests whose delivery is also compared against the behavioral model.
constexpr std::size_t kBehavioralChecks = 16;
/// Requests whose spans are written whole to the trace file.
constexpr std::size_t kTraceKeepRequests = 2048;
/// Untraced work per turn when the traced run alternates the two passes.
constexpr std::uint64_t kTraceChunkNs = 50'000'000;

[[nodiscard]] std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

[[nodiscard]] unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return 1;
}

/// Peak resident set of this process image (VmHWM).  getrusage's
/// ru_maxrss is not used: it survives exec, so it would report the
/// launching interpreter's peak whenever that is larger.
[[nodiscard]] double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

[[nodiscard]] bool same_image(std::span<const std::uint32_t> dest, const Permutation& pi) {
  return std::equal(dest.begin(), dest.end(), pi.image().begin(), pi.image().end());
}

// ---- set-up -------------------------------------------------------------

/// ResilientRouter over a shared ScheduleCache, primed with the hot set.
struct RouterRig {
  std::unique_ptr<bnb::obs::MetricsRegistry> registry;
  std::unique_ptr<bnb::ScheduleCache> cache;
  std::unique_ptr<bnb::ResilientRouter> router;
};

/// Default-Options StreamEngine with a cache attached, primed with the bases.
struct StreamRig {
  std::unique_ptr<bnb::obs::MetricsRegistry> registry;
  std::unique_ptr<bnb::CompiledBnb> plan;
  std::unique_ptr<bnb::ScheduleCache> cache;
  std::unique_ptr<bnb::StreamEngine> engine;
};

[[nodiscard]] RouterRig make_router_rig(const sb::WorkloadSpec& spec, const sb::Requests& req) {
  RouterRig rig;
  rig.registry = std::make_unique<bnb::obs::MetricsRegistry>();
  rig.cache = std::make_unique<bnb::ScheduleCache>(spec.cache_capacity, 8, rig.registry.get());
  rig.router = std::make_unique<bnb::ResilientRouter>(spec.m, bnb::ResilientPolicy{},
                                                      rig.cache.get(), rig.registry.get());
  for (std::size_t i = 0; i < req.prefill; ++i) {
    const bnb::ResilientReport report = rig.router->route(req.pool[i]);
    if (!report.delivered() || !same_image(report.dest, req.pool[i])) {
      throw std::runtime_error("set-up: prefill route was not delivered");
    }
  }
  return rig;
}

[[nodiscard]] StreamRig make_stream_rig(const sb::WorkloadSpec& spec, const sb::Requests& req) {
  StreamRig rig;
  rig.registry = std::make_unique<bnb::obs::MetricsRegistry>();
  rig.plan = std::make_unique<bnb::CompiledBnb>(spec.m);
  rig.cache = std::make_unique<bnb::ScheduleCache>(spec.cache_capacity, 8, rig.registry.get());
  bnb::StreamEngine::Options options;
  options.cache = rig.cache.get();
  options.registry = rig.registry.get();
  rig.engine = std::make_unique<bnb::StreamEngine>(*rig.plan, options);
  const bnb::StreamEngine::Result prefill =
      rig.engine->run(std::span<const Permutation>(req.pool).first(req.prefill));
  for (std::size_t i = 0; i < req.prefill; ++i) {
    const std::size_t n = rig.plan->inputs();
    if (prefill.status[i] != bnb::StreamItemStatus::kOk ||
        !same_image(std::span(prefill.dest).subspan(i * n, n), req.pool[i])) {
      throw std::runtime_error("set-up: prefill stream item was not delivered");
    }
  }
  return rig;
}

/// Set up at least 7 times and until 3 s has gone, so
/// the set-ups span both of the host's speed regimes (see WorkloadSpec);
/// returns the last rig and stores the median set-up time in `median_s`.
template <class MakeRig>
[[nodiscard]] auto repeated_setup(MakeRig make, double& median_s, std::size_t& reps) {
  std::vector<double> secs;
  const std::uint64_t begin = now_ns();
  for (;;) {
    const std::uint64_t t0 = now_ns();
    auto rig = make();
    secs.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (secs.size() >= 7 && now_ns() - begin >= 3'000'000'000ULL) {
      reps = secs.size();
      median_s = sb::quantile(secs, 0.5);
      return rig;
    }
  }
}

// ---- untraced passes ----------------------------------------------------

struct CacheCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  friend bool operator==(const CacheCounts&, const CacheCounts&) = default;
};

[[nodiscard]] CacheCounts counts_since(const bnb::ScheduleCache& cache,
                                       const bnb::ScheduleCacheStats& before) {
  const bnb::ScheduleCacheStats now = cache.stats();
  return {now.hits - before.hits, now.misses - before.misses,
          now.evictions - before.evictions};
}

using Refs = std::vector<std::vector<std::uint32_t>>;

/// What the untraced pass measured and checked.
struct Pass {
  sb::WindowedTimer timer;                ///< per request (router) or frame (stream)
  std::uint64_t requests = 0;             ///< entry-point calls
  std::uint64_t permutations = 0;         ///< permutations offered
  std::uint64_t failed = 0;               ///< not delivered cleanly
  std::uint64_t misroutes = 0;            ///< delivered to the wrong line
  std::uint64_t fallbacks = 0;            ///< router left the one-attempt fast path
  std::uint64_t ring_high_water = 0;
  double cycle_rss_mb = 0.0;              ///< peak_rss_mb() once a request cycle is served
};

/// Peak RSS grows with the work served (ScheduleCache keeps every payload
/// buffer it ever allocated), so it is read at a fixed amount of work, one
/// full request cycle, not at the end of a run whose length in requests
/// depends on the host's speed.
void mark_cycle_rss(const sb::Requests& req, Pass& pass) {
  if (pass.cycle_rss_mb == 0.0 && pass.permutations >= req.order.size()) {
    pass.cycle_rss_mb = peak_rss_mb();
  }
}

/// Behavioral-model deliveries of the first requests (Thm. 2 reference),
/// computed before timing; a model that does not self-route is a misroute.
[[nodiscard]] Refs behavioral_refs(const sb::WorkloadSpec& spec, const sb::Requests& req,
                                   std::uint64_t& misroutes) {
  const bnb::BnbNetwork net(spec.m);
  Refs refs;
  for (std::size_t i = 0; i < kBehavioralChecks; ++i) {
    const Permutation& pi = req.at(i);
    bnb::BnbNetwork::Result result = net.route(pi);
    if (!result.self_routed || !same_image(result.dest, pi)) ++misroutes;
    refs.push_back(std::move(result.dest));
  }
  return refs;
}

/// Route requests from pass.requests on, one at a time, until `deadline_ns`.
void run_router(RouterRig& rig, const sb::Requests& req, const Refs& refs,
                std::uint64_t deadline_ns, Pass& pass) {
  for (;;) {
    const std::size_t i = pass.requests;
    const Permutation& pi = req.at(i);
    const std::uint64_t t0 = now_ns();
    const bnb::ResilientReport report = rig.router->route(pi);
    const std::uint64_t t1 = now_ns();
    pass.timer.add(t1 - t0, 1);
    ++pass.requests;
    ++pass.permutations;
    if (report.outcome != bnb::ResilientOutcome::kDelivered) ++pass.failed;
    if (report.outcome != bnb::ResilientOutcome::kDelivered || report.attempts != 1) {
      ++pass.fallbacks;
    }
    if (report.delivered() && !same_image(report.dest, pi)) ++pass.misroutes;
    if (i < refs.size() && report.dest != refs[i]) ++pass.misroutes;
    mark_cycle_rss(req, pass);
    if (t1 >= deadline_ns) return;
  }
}

/// The `frame`-item span of the pool that frame `f` routes.
[[nodiscard]] std::span<const Permutation> frame_span(const sb::WorkloadSpec& spec,
                                                      const sb::Requests& req, std::size_t f) {
  return {&req.at(f * spec.frame), spec.frame};
}

/// Stream frames from frame pass.requests on until `deadline_ns`.
void run_stream(StreamRig& rig, const sb::WorkloadSpec& spec, const sb::Requests& req,
                const Refs& refs, std::uint64_t deadline_ns, Pass& pass) {
  const std::size_t n = rig.plan->inputs();
  for (;;) {
    const std::span<const Permutation> frame = frame_span(spec, req, pass.requests);
    const std::uint64_t t0 = now_ns();
    const bnb::StreamEngine::Result result = rig.engine->run(frame);
    const std::uint64_t t1 = now_ns();
    pass.timer.add(t1 - t0, frame.size());
    pass.ring_high_water = std::max(pass.ring_high_water, result.stats.ring_high_water);
    for (std::size_t k = 0; k < frame.size(); ++k) {
      const std::size_t item = pass.permutations + k;
      const std::span<const std::uint32_t> dest = std::span(result.dest).subspan(k * n, n);
      if (result.status[k] != bnb::StreamItemStatus::kOk) {
        ++pass.failed;
        continue;
      }
      if (!same_image(dest, frame[k])) ++pass.misroutes;
      if (item < refs.size() && !std::ranges::equal(dest, refs[item])) ++pass.misroutes;
    }
    ++pass.requests;
    pass.permutations += frame.size();
    mark_cycle_rss(req, pass);
    if (t1 >= deadline_ns) return;
  }
}

// ---- traced replays -----------------------------------------------------

/// Times one call at a time into the ledger under the current request id.
struct Tracer {
  sb::Ledger& ledger;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t t0 = 0;

  void begin() noexcept { t0 = now_ns(); }
  std::uint64_t end(sb::Layer layer) {
    const std::uint64_t t1 = now_ns();
    ledger.add({layer, t0, t1 - t0, id, parent});
    return t1 - t0;
  }
};

struct Replay {
  std::uint64_t failed = 0;
  std::uint64_t misroutes = 0;
  std::vector<std::uint64_t> solve_busy_ns;  ///< per frame (stream)
  std::vector<std::uint64_t> apply_busy_ns;  ///< per frame (stream)
};

/// ResilientRouter::route_fast's calls, in its order, against the traced
/// rig's cache: digest, find, solve on a miss, apply, audit, insert on a
/// miss, dest copy.
class RouterReplay {
 public:
  RouterReplay(bnb::ScheduleCache& cache, unsigned m, sb::Ledger& ledger)
      : cache_(cache), plan_(m), audit_(m), tr_{ledger} {
    scratch_.prepare(plan_);
  }

  /// Replay requests [begin, end).
  void replay(const sb::Requests& req, std::uint64_t begin, std::uint64_t end, Replay& out) {
    for (std::uint64_t i = begin; i < end; ++i) {
      const Permutation& pi = req.at(i);
      tr_.id = i + 1;
      const std::uint64_t root = now_ns();
      tr_.begin();
      const bnb::PermutationDigest digest = bnb::digest_permutation(pi);
      tr_.end(sb::Layer::kDigest);
      const auto [clean, out_dest] =
          plan_.small_capable() ? route_small(pi, digest) : route_general(pi, digest);
      const std::vector<std::uint32_t> dest(out_dest.begin(), out_dest.end());
      tr_.ledger.add({sb::Layer::kRequest, root, now_ns() - root, tr_.id, 0});
      if (!clean) ++out.failed;
      if (!same_image(dest, pi)) ++out.misroutes;
    }
  }

 private:
  struct Delivery {
    bool clean;
    std::span<const std::uint32_t> dest;
  };

  Delivery route_small(const Permutation& pi, const bnb::PermutationDigest& digest) {
    bnb::SmallSchedule sched;
    tr_.begin();
    const bool hit = cache_.find_small(digest, sched);
    tr_.end(hit ? sb::Layer::kLookupHit : sb::Layer::kLookupMiss);
    if (!hit) {
      tr_.begin();
      sched = plan_.compile_small(pi, scratch_);
      tr_.end(sb::Layer::kSolve);
    }
    tr_.begin();
    const bnb::CompiledBnb::Output out = plan_.apply_small(sched, pi, scratch_);
    tr_.end(sb::Layer::kApply);
    tr_.begin();
    const bool clean = audit_.audit(pi, out.outputs).ok;
    tr_.end(sb::Layer::kAudit);
    if (clean && !hit) {
      tr_.begin();
      cache_.insert_small(digest, sched);
      tr_.end(sb::Layer::kInsert);
    }
    return {clean, out.dest};
  }

  Delivery route_general(const Permutation& pi, const bnb::PermutationDigest& digest) {
    bnb::ControlSchedule& sched = scratch_.schedule_slot();
    tr_.begin();
    const bool hit = cache_.find(digest, sched);
    tr_.end(hit ? sb::Layer::kLookupHit : sb::Layer::kLookupMiss);
    if (!hit) {
      tr_.begin();
      plan_.solve(pi, scratch_, sched);
      tr_.end(sb::Layer::kSolve);
    }
    tr_.begin();
    const bnb::CompiledBnb::Output out = plan_.apply(sched, pi, scratch_);
    tr_.end(sb::Layer::kApply);
    tr_.begin();
    const bool clean = audit_.audit(pi, out.outputs).ok;
    tr_.end(sb::Layer::kAudit);
    if (clean && !hit) {
      tr_.begin();
      cache_.insert(digest, sched);
      tr_.end(sb::Layer::kInsert);
    }
    return {clean, out.dest};
  }

  bnb::ScheduleCache& cache_;
  const bnb::CompiledBnb plan_;
  bnb::RouteScratch scratch_;
  const bnb::DeliveryAudit audit_;
  Tracer tr_;
};

/// StreamEngine's solver loop (digest, find, solve + insert on a miss) and
/// applier loop (apply, dest copy) for each item, run back to back on one
/// thread so each stage's busy time is its own.
class StreamReplay {
 public:
  StreamReplay(StreamRig& rig, const sb::WorkloadSpec& spec, sb::Ledger& ledger)
      : rig_(rig), spec_(spec), tr_{ledger} {}

  /// Replay frames [begin, end).
  void replay(const sb::Requests& req, std::uint64_t begin, std::uint64_t end, Replay& out) {
    const bnb::CompiledBnb& plan = *rig_.plan;
    bnb::ScheduleCache& cache = *rig_.cache;
    const std::size_t n = plan.inputs();
    for (std::uint64_t f = begin; f < end; ++f) {
      const std::span<const Permutation> frame = frame_span(spec_, req, f);
      std::vector<std::uint32_t> dest(frame.size() * n);
      std::uint64_t solve_busy = 0;
      std::uint64_t apply_busy = 0;
      tr_.parent = f + 1;
      for (std::size_t k = 0; k < frame.size(); ++k) {
        const Permutation& pi = frame[k];
        tr_.id = f * spec_.frame + k + 1;
        const std::uint64_t root = now_ns();
        tr_.begin();
        const bnb::PermutationDigest digest = bnb::digest_permutation(pi);
        solve_busy += tr_.end(sb::Layer::kDigest);
        tr_.begin();
        const bool hit = cache.find(digest, slot_);
        solve_busy += tr_.end(hit ? sb::Layer::kLookupHit : sb::Layer::kLookupMiss);
        if (!hit) {
          tr_.begin();
          plan.solve(pi, solver_scratch_, slot_);
          solve_busy += tr_.end(sb::Layer::kSolve);
          tr_.begin();
          cache.insert(digest, slot_);
          solve_busy += tr_.end(sb::Layer::kInsert);
        }
        tr_.begin();
        const bnb::CompiledBnb::Output delivered = plan.apply(slot_, pi, applier_scratch_);
        apply_busy += tr_.end(sb::Layer::kApply);
        const auto row = dest.begin() + static_cast<std::ptrdiff_t>(k * n);
        std::copy(delivered.dest.begin(), delivered.dest.end(), row);
        tr_.ledger.add({sb::Layer::kRequest, root, now_ns() - root, tr_.id, tr_.parent});
        if (!same_image(std::span(dest).subspan(k * n, n), pi)) ++out.misroutes;
      }
      out.solve_busy_ns.push_back(solve_busy);
      out.apply_busy_ns.push_back(apply_busy);
    }
  }

 private:
  StreamRig& rig_;
  const sb::WorkloadSpec& spec_;
  bnb::RouteScratch solver_scratch_;
  bnb::RouteScratch applier_scratch_;
  bnb::ControlSchedule slot_;
  Tracer tr_;
};

// ---- reporting ----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

[[nodiscard]] double median_of(std::vector<std::uint64_t> values) {
  return sb::quantile(values, 0.5);
}

[[nodiscard]] double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void print_counts(const char* label, const CacheCounts& c) {
  std::printf("%s: hits=%llu misses=%llu evictions=%llu hit_ratio=%.4f\n", label,
              static_cast<unsigned long long>(c.hits),
              static_cast<unsigned long long>(c.misses),
              static_cast<unsigned long long>(c.evictions),
              ratio(static_cast<double>(c.hits), static_cast<double>(c.hits + c.misses)));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\nworkloads:",
               why.c_str());
  for (const sb::WorkloadSpec& spec : sb::workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(spec.name.size()), spec.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

[[nodiscard]] Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value after " + std::string(flag));
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*value == '\0' || *end != '\0' || !(args.seconds > 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      const std::string_view v = value;
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      args.trace = v == "1" ? 1 : 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (sb::find_workload(args.workload) == nullptr) usage("unknown --workload");
  return args;
}

// ---- one workload -------------------------------------------------------

int run(const Args& args) {
  const sb::WorkloadSpec& spec = *sb::find_workload(args.workload);
  const bool stream = spec.entry == sb::Entry::kStream;
  const unsigned nproc = host_cpus();
  std::printf("# env: nproc=%u kernel_tier=%s bnb_obs=%s build_type=%s\n", nproc,
              bnb::kernels::active_kernels().name, BNB_OBS_COMPILED ? "compiled" : "off",
              SERVEBENCH_BUILD_TYPE);

  const sb::Requests req = sb::generate(spec, args.seed);
  std::uint64_t misroutes = 0;
  const Refs refs = behavioral_refs(spec, req, misroutes);
  const std::uint64_t seconds_ns = static_cast<std::uint64_t>(args.seconds * 1e9);

  // Set-up: --trace 0 times repeated set-ups for setup_s; --trace 1 builds
  // the rig it drives untraced plus an identical one it replays traced.
  double setup_s = 0.0;
  std::size_t setup_reps = 0;
  const auto make_router = [&] { return make_router_rig(spec, req); };
  const auto make_stream = [&] { return make_stream_rig(spec, req); };
  std::unique_ptr<RouterRig> router_rig;
  std::unique_ptr<StreamRig> stream_rig;
  if (stream) {
    stream_rig = std::make_unique<StreamRig>(
        args.trace ? make_stream() : repeated_setup(make_stream, setup_s, setup_reps));
  } else {
    router_rig = std::make_unique<RouterRig>(
        args.trace ? make_router() : repeated_setup(make_router, setup_s, setup_reps));
  }
  const unsigned threads = stream && stream_rig->engine->threads() >= 2 ? 2 : 1;
  std::printf("# workload: %.*s entry=%s m=%u seed=%llu threads=%u oversubscribed=%s\n",
              static_cast<int>(spec.name.size()), spec.name.data(),
              stream ? "StreamEngine::run" : "ResilientRouter::route", spec.m,
              static_cast<unsigned long long>(args.seed), threads,
              threads > nproc ? "true" : "false");
  if (threads > nproc) {
    std::fprintf(stderr, "servebench: %.*s needs %u threads but the host has %u; refused\n",
                 static_cast<int>(spec.name.size()), spec.name.data(), threads, nproc);
    return 3;
  }

  bnb::ScheduleCache& cache = stream ? *stream_rig->cache : *router_rig->cache;
  const bnb::ScheduleCacheStats before = cache.stats();
  Pass pass;
  const auto run_until = [&](std::uint64_t deadline_ns) {
    if (stream) {
      run_stream(*stream_rig, spec, req, refs, deadline_ns, pass);
    } else {
      run_router(*router_rig, req, refs, deadline_ns, pass);
    }
  };
  const char* unit_name = stream ? "frames" : "requests";

  if (args.trace == 0) {
    run_until(now_ns() + seconds_ns);
    misroutes += pass.misroutes;
    print_counts("cache", counts_since(cache, before));
    const double busy_s = static_cast<double>(pass.timer.busy_ns()) * 1e-9;
    const sb::WindowedTimer::Quiet quiet = pass.timer.quiet(spec.quiet_share);
    const double throughput = quiet.throughput_per_s;
    const double p50_us = quiet.p50_ns / 1000.0;
    const double p90_us = pass.timer.tail_ns(0.90) / 1000.0;
    const double p99_us = pass.timer.tail_ns(0.99) / 1000.0;
    const double rss = pass.cycle_rss_mb != 0.0 ? pass.cycle_rss_mb : peak_rss_mb();
    const std::size_t windows = pass.timer.windows();
    const auto samples = static_cast<unsigned long long>(pass.timer.samples());
    std::printf("setup_s          %12.6f s    (median of %zu set-ups)\n", setup_s, setup_reps);
    std::printf("throughput_per_s %12.1f 1/s  (fastest %zu of %zu windows by p50; %llu "
                "permutations in %.3f s of entry-point time)\n",
                throughput, quiet.windows, windows,
                static_cast<unsigned long long>(pass.permutations), busy_s);
    std::printf("latency_p50_us   %12.3f us   (window %zu of %zu by p50; %llu %s)\n", p50_us,
                quiet.windows, windows, samples, unit_name);
    std::printf("latency_p90_us   %12.3f us   (%llu %s)\n", p90_us, samples, unit_name);
    std::printf("latency_p99_us   %12.3f us   (%llu %s)\n", p99_us, samples, unit_name);
    std::printf("failed_frac      %12.6f      (%llu of %llu permutations)\n",
                ratio(static_cast<double>(pass.failed), static_cast<double>(pass.permutations)),
                static_cast<unsigned long long>(pass.failed),
                static_cast<unsigned long long>(pass.permutations));
    std::printf("peak_rss_mb      %12.3f MB   (VmHWM after the first cycle: %zu permutations)\n",
                rss, req.order.size());
    if (misroutes != 0) {
      std::printf("MISROUTE: %llu deliveries did not match pi\n",
                  static_cast<unsigned long long>(misroutes));
    }
    print_result(misroutes == 0, pass.permutations, pass.failed,
                 {{"setup_s", setup_s, "s"},
                  {"throughput_per_s", throughput, "1/s"},
                  {"latency_p50_us", p50_us, "us"},
                  {"peak_rss_mb", rss, "MB"}});
    return misroutes == 0 ? 0 : 1;
  }

  // Traced run: the untraced pass and the traced replay of the same
  // requests alternate in chunks, each on its own rig, so host drift lands
  // on both alike; together they take --seconds.
  sb::Ledger ledger(kTraceKeepRequests);
  Replay replay;
  std::unique_ptr<RouterRig> traced_router_rig;
  std::unique_ptr<StreamRig> traced_stream_rig;
  std::unique_ptr<RouterReplay> router_replay;
  std::unique_ptr<StreamReplay> stream_replay;
  if (stream) {
    traced_stream_rig = std::make_unique<StreamRig>(make_stream());
    stream_replay = std::make_unique<StreamReplay>(*traced_stream_rig, spec, ledger);
  } else {
    traced_router_rig = std::make_unique<RouterRig>(make_router());
    router_replay = std::make_unique<RouterReplay>(*traced_router_rig->cache, spec.m, ledger);
  }
  bnb::ScheduleCache& traced_cache =
      stream ? *traced_stream_rig->cache : *traced_router_rig->cache;
  const bnb::ScheduleCacheStats traced_before = traced_cache.stats();
  bnb::obs::phase_histogram(bnb::obs::Phase::kQueueWait).reset();
  std::uint64_t untraced_wall_ns = 0;
  while (untraced_wall_ns < seconds_ns / 2) {
    const std::uint64_t begin = pass.requests;
    const std::uint64_t t0 = now_ns();
    run_until(t0 + kTraceChunkNs);
    untraced_wall_ns += now_ns() - t0;
    if (stream) {
      stream_replay->replay(req, begin, pass.requests, replay);
    } else {
      router_replay->replay(req, begin, pass.requests, replay);
    }
  }
  misroutes += pass.misroutes + replay.misroutes;
  const CacheCounts counts = counts_since(cache, before);
  const CacheCounts traced_counts = counts_since(traced_cache, traced_before);
  print_counts("cache", counts);
  print_counts("traced cache", traced_counts);
  const bool counts_match = traced_counts == counts;
  if (!counts_match) {
    std::printf("LEDGER MISMATCH: traced cache counts differ from the untraced run\n");
  }
  if (!args.trace_out.empty()) {
    std::ofstream file(args.trace_out, std::ios::binary);
    file << ledger.to_chrome();
    if (!file) {
      std::fprintf(stderr, "servebench: cannot write %s\n", args.trace_out.c_str());
      return 2;
    }
    std::printf("trace: %zu requests' spans -> %s\n",
                std::min<std::size_t>(kTraceKeepRequests, ledger.roots()),
                args.trace_out.c_str());
  }

  double queue_wait_p50_ns = 0.0;
  const bnb::obs::RegistrySnapshot snap = bnb::obs::MetricsRegistry::global().snapshot();
  if (const bnb::obs::MetricSnapshot* wait = snap.find("bnb_stream_queue_wait_ns")) {
    queue_wait_p50_ns = wait->histogram.p50();
  }
  const auto med = [&](sb::Layer layer) { return median_of(ledger.samples(layer)); };
  const double lookups = static_cast<double>(traced_counts.hits + traced_counts.misses);
  const double untraced = static_cast<double>(pass.timer.busy_ns());
  double traced_total = 0.0;
  for (const std::uint64_t ns : ledger.samples(sb::Layer::kRequest)) {
    traced_total += static_cast<double>(ns);
  }
  double busy_total = 0.0;
  for (std::size_t f = 0; f < replay.solve_busy_ns.size(); ++f) {
    busy_total += static_cast<double>(replay.solve_busy_ns[f] + replay.apply_busy_ns[f]);
  }
  const std::vector<Metric> metrics = {
      {"core.digest.ns", med(sb::Layer::kDigest), "ns"},
      {"core.cache.lookup_hit.ns", med(sb::Layer::kLookupHit), "ns"},
      {"core.cache.lookup_miss.ns", med(sb::Layer::kLookupMiss), "ns"},
      {"core.cache.hit_ratio", ratio(static_cast<double>(traced_counts.hits), lookups), "ratio"},
      {"core.cache.insert.ns", med(sb::Layer::kInsert), "ns"},
      {"core.cache.evictions_per_req",
       ratio(static_cast<double>(traced_counts.evictions),
             static_cast<double>(pass.permutations)),
       "1/req"},
      {"core.cache.hits", static_cast<double>(traced_counts.hits), "count"},
      {"core.cache.misses", static_cast<double>(traced_counts.misses), "count"},
      {"core.cache.evictions", static_cast<double>(traced_counts.evictions), "count"},
      {"core.solve.ns", med(sb::Layer::kSolve), "ns"},
      {"core.apply.ns", med(sb::Layer::kApply), "ns"},
      {"fault.audit.ns", med(sb::Layer::kAudit), "ns"},
      {"fault.router.fallback_frac",
       ratio(static_cast<double>(pass.fallbacks), static_cast<double>(pass.requests)), "ratio"},
      {"fabric.stream.solve_busy.ns", median_of(replay.solve_busy_ns), "ns"},
      {"fabric.stream.apply_busy.ns", median_of(replay.apply_busy_ns), "ns"},
      {"fabric.stream.overlap_ratio", ratio(busy_total, untraced), "ratio"},
      {"fabric.stream.queue_wait.ns", queue_wait_p50_ns, "ns"},
      {"fabric.stream.ring_high_water", static_cast<double>(pass.ring_high_water), "count"},
      {"ledger.unattributed_pct",
       100.0 * ratio(untraced - static_cast<double>(ledger.child_self_ns()), untraced), "%"},
      {"ledger.trace_overhead_pct", 100.0 * ratio(traced_total - untraced, untraced), "%"},
  };
  for (const Metric& metric : metrics) {
    std::printf("%-32s %16.3f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("ledger: %llu %s untraced (p50 %.3f us), %llu traced requests (p50 %.3f us)\n",
              static_cast<unsigned long long>(pass.requests), unit_name,
              pass.timer.quiet(0.5).p50_ns / 1000.0,
              static_cast<unsigned long long>(ledger.roots()), med(sb::Layer::kRequest) / 1000.0);
  if (misroutes != 0) {
    std::printf("MISROUTE: %llu deliveries did not match pi\n",
                static_cast<unsigned long long>(misroutes));
  }
  const bool correct = misroutes == 0 && counts_match;
  print_result(correct, pass.permutations + ledger.roots(), pass.failed + replay.failed,
               metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
