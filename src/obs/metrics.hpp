// Runtime telemetry: lock-free metric primitives and the MetricsRegistry.
//
// The repo's hot paths (compiled engine, schedule cache, stream engine,
// robust router, pipelined fabric) each grew bespoke counter structs in
// PRs 2-4; this module is the one substrate behind all of them.  Three
// primitives, all safe for concurrent writers and all allocation-free on
// the write path:
//
//   * Counter   — monotonically increasing uint64 (relaxed fetch_add);
//   * Gauge     — settable int64 with an additional lock-free running-max
//                 update (ring occupancy high-water marks);
//   * Histogram — fixed power-of-two buckets (le 2^0 .. 2^30 ns, +Inf):
//                 record() is a bit_width, two relaxed fetch_adds, nothing
//                 else.  Latency distributions without malloc or locks.
//
// A MetricsRegistry names metrics.  It can OWN a metric (get-or-create by
// name, stable reference for the life of the registry) or it can have
// external instances ATTACHED under a name: every ScheduleCache /
// StreamEngine / ResilientRouter keeps its own per-instance counters (their
// historic stats() accessors still read exactly those), and attaches them
// to a registry so one snapshot() call returns ONE coherent fabric-wide
// view — the per-name value of an attached metric is the sum over every
// attached instance plus the owned one, taken in a single pass instead of
// three racing per-subsystem reads.
//
// Counters/gauges/histograms are relaxed atomics: totals are exact under
// quiescence and approximate during concurrent traffic, same contract the
// ScheduleCache counters always had.  Registration (counter()/attach_*)
// takes a mutex and may allocate; do it at construction time, not on the
// route path.  snapshot() also takes the mutex but only reads the atomics.
//
// The compile-time BNB_OBS_OFF switch (see obs/span.hpp) removes the
// TIMING instrumentation; the registry and the counters stay available in
// every build because the subsystem stats() accessors are adapters over
// them.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/expect.hpp"

namespace bnb::obs {

/// Monotonic event counter; concurrent inc() from any thread.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous level; set/add from any thread, plus a lock-free
/// raise-to-max update for high-water marks.
class Gauge {
 public:
  void set(std::int64_t value) noexcept {
    v_.store(value, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Raise the gauge to `value` iff it is higher than the current level.
  void update_max(std::int64_t value) noexcept {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (value > cur &&
           !v_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket latency histogram.  Bucket b collects values v with
/// v <= 2^b (b = 0 .. kBuckets-2); the last bucket is +Inf.  record() is
/// lock-free and allocation-free: safe on the zero-alloc steady state.
class Histogram {
 public:
  /// 31 finite power-of-two bounds (1 ns .. 2^30 ns ~ 1.07 s) plus +Inf.
  static constexpr std::size_t kBuckets = 32;

  /// Upper bound of bucket `b` (inclusive); UINT64_MAX for the last.
  [[nodiscard]] static constexpr std::uint64_t upper_bound(std::size_t b) noexcept {
    return b + 1 < kBuckets ? (std::uint64_t{1} << b) : ~std::uint64_t{0};
  }

  void record(std::uint64_t value) noexcept {
    // Smallest b with value <= 2^b: 0 for 0/1, bit_width(value - 1) above.
    std::size_t b = value <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(value - 1));
    if (b >= kBuckets) b = kBuckets - 1;
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t bucket_count(std::size_t b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_count() const noexcept {
    std::uint64_t total = 0;
    for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
    return total;
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(MetricKind kind) noexcept;

/// Point-in-time value of one histogram (per-bucket, NOT cumulative).
struct HistogramSnapshot {
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  /// Estimate the `q`-quantile (q in [0, 1]) from the power-of-two
  /// buckets: find the bucket holding the rank-ceil(q*count) sample and
  /// interpolate linearly inside it.  The +Inf bucket clamps to the last
  /// finite bound, so the estimate is conservative there.  Returns 0 for
  /// an empty histogram.
  [[nodiscard]] double percentile(double q) const noexcept;
  [[nodiscard]] double p50() const noexcept { return percentile(0.50); }
  [[nodiscard]] double p90() const noexcept { return percentile(0.90); }
  [[nodiscard]] double p99() const noexcept { return percentile(0.99); }
};

/// Point-in-time value of one named metric.
struct MetricSnapshot {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter = 0;  ///< kind == kCounter
  std::int64_t gauge = 0;     ///< kind == kGauge
  HistogramSnapshot histogram; ///< kind == kHistogram
};

/// One coherent pass over a registry; metrics sorted by name.
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  /// The metric named `name`, or nullptr.
  [[nodiscard]] const MetricSnapshot* find(std::string_view name) const noexcept;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create the owned metric `name`; the reference stays valid for
  /// the registry's lifetime.  Re-requesting an existing name with a
  /// different kind throws contract_violation.  `help` is kept from the
  /// first caller that provides one.
  [[nodiscard]] Counter& counter(std::string_view name, std::string_view help = {});
  [[nodiscard]] Gauge& gauge(std::string_view name, std::string_view help = {});
  [[nodiscard]] Histogram& histogram(std::string_view name, std::string_view help = {});

  /// Expose an externally-owned instance under `name`.  Several instances
  /// may share one name; snapshot() reports their sum (for gauges, the sum
  /// of levels).  The caller must detach before destroying the source.
  void attach_counter(std::string_view name, const Counter* source,
                      std::string_view help = {});
  void detach_counter(std::string_view name, const Counter* source) noexcept;
  void attach_gauge(std::string_view name, const Gauge* source,
                    std::string_view help = {});
  void detach_gauge(std::string_view name, const Gauge* source) noexcept;

  /// One coherent view of every named metric (owned + attached, summed).
  [[nodiscard]] RegistrySnapshot snapshot() const;

  /// Number of distinct metric names.
  [[nodiscard]] std::size_t size() const;

  /// The process-wide default registry every subsystem attaches to unless
  /// given an explicit one.
  [[nodiscard]] static MetricsRegistry& global();

 private:
  struct Entry {
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;      ///< owned (may be null: attach-only)
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::vector<const Counter*> counter_sources;
    std::vector<const Gauge*> gauge_sources;
  };

  Entry& entry_for(std::string_view name, MetricKind kind, std::string_view help);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;  ///< node-stable
};

}  // namespace bnb::obs
