// Per-layer ledger for the traced benchmark run, and the windowed timer
// of the untraced run.
//
// The traced run drives each request through the same public calls the
// entry point makes and wraps every call in a span recorded from the
// benchmark's own code: one root span per request, one child span per
// layer call, all sharing the request's trace id.  Every child duration is
// kept (for medians); the first `keep_requests` requests' spans are also kept
// whole and written at the end as Chrome trace-event JSON, the layout
// obs::trace_to_chrome emits, so the file opens in Perfetto.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

/// The layers a request crosses, named after the modules that own them.
enum class Layer : std::uint8_t {
  kRequest,     ///< root span: the whole request (or stream item)
  kDigest,      ///< core: digest_permutation
  kLookupHit,   ///< core: ScheduleCache::find / find_small that hit
  kLookupMiss,  ///< core: ScheduleCache::find / find_small that missed
  kSolve,       ///< core: CompiledBnb::solve / compile_small
  kInsert,      ///< core: ScheduleCache::insert / insert_small
  kApply,       ///< core: CompiledBnb::apply / apply_small
  kAudit,       ///< fault: DeliveryAudit::audit
};
inline constexpr std::size_t kLayerCount = 8;

[[nodiscard]] const char* layer_name(Layer layer) noexcept;

struct Span {
  Layer layer = Layer::kRequest;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t parent_id = 0;
};

class Ledger {
 public:
  /// Keep whole spans of the first `keep_requests` root spans.
  explicit Ledger(std::size_t keep_requests) : keep_requests_(keep_requests) {}

  /// Record one finished span.  Child spans must be added before their
  /// root (a root closes the request).
  void add(const Span& span);

  /// Every recorded duration of `layer`, in ns.
  [[nodiscard]] const std::vector<std::uint64_t>& samples(Layer layer) const {
    return samples_[static_cast<std::size_t>(layer)];
  }
  /// Sum of the child spans' self time (= their duration: layer calls are
  /// leaves) over every request.
  [[nodiscard]] std::uint64_t child_self_ns() const noexcept { return child_self_ns_; }
  [[nodiscard]] std::uint64_t roots() const noexcept { return roots_; }

  /// Chrome trace-event JSON of the kept spans.
  [[nodiscard]] std::string to_chrome() const;

 private:
  std::size_t keep_requests_;
  std::uint64_t roots_ = 0;
  std::uint64_t child_self_ns_ = 0;
  std::array<std::vector<std::uint64_t>, kLayerCount> samples_;
  std::vector<Span> kept_;
};

/// Log-linear latency histogram (the HdrHistogram layout): exact below
/// 2048 ns, 1024 sub-buckets per power of two above, so a quantile read
/// from it is within 0.1% of the sample it stands for.  Fixed memory
/// (~450 KB) however many samples it takes.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void record(std::uint64_t ns) noexcept;
  /// Nearest-rank q-quantile, as the midpoint of its bucket; 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// End-to-end timing of the untraced pass.  Throughput and p50 are taken
/// in windows: a window closes once it holds at least kMinSamples
/// entry-point calls and kMinNs of entry-point time, or kMaxSamples calls
/// (so the window buffer, and the resident set, does not depend on the
/// host's speed); a trailing window that never closed is dropped unless no
/// window closed at all.  The windows are ranked by their p50; quiet(share)
/// reports the p50 of the window at that rank and the throughput pooled
/// over it and every faster window (see WorkloadSpec::quiet_share).  Tail
/// quantiles are read from every sample of the run.  Memory stays constant
/// however long the run.
class WindowedTimer {
 public:
  static constexpr std::size_t kMinSamples = 64;
  static constexpr std::uint64_t kMinNs = 50'000'000;
  static constexpr std::size_t kMaxSamples = 65536;

  WindowedTimer() { open_ns_.reserve(kMaxSamples); }

  /// One entry-point call that took `ns` and delivered `permutations`.
  void add(std::uint64_t ns, std::uint64_t permutations);

  struct Quiet {
    double p50_ns = 0.0;            ///< p50 of the window ranked at `share`
    double throughput_per_s = 0.0;  ///< permutations / busy time of that and faster windows
    std::size_t windows = 0;        ///< windows pooled for the throughput
  };
  /// The fastest `share` (0, 1] of the windows, ranked by p50.
  [[nodiscard]] Quiet quiet(double share) const;
  /// Tail quantile `q` over every sample of the run.
  [[nodiscard]] double tail_ns(double q) const { return all_.quantile(q); }
  [[nodiscard]] std::size_t windows() const;
  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }
  [[nodiscard]] std::uint64_t busy_ns() const noexcept { return busy_ns_; }

 private:
  struct Window {
    double p50_ns;
    std::uint64_t busy_ns;
    std::uint64_t permutations;
  };
  /// Reorders `ns`.
  [[nodiscard]] static Window summarize(std::vector<std::uint64_t>& ns,
                                        std::uint64_t busy_ns, std::uint64_t permutations);
  [[nodiscard]] std::vector<Window> all() const;

  LatencyHistogram all_;
  std::vector<Window> closed_;
  std::vector<std::uint64_t> open_ns_;
  std::uint64_t open_busy_ns_ = 0;
  std::uint64_t open_permutations_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t busy_ns_ = 0;
};

/// Nearest-rank q-quantile (q in [0, 1]) of `values`; 0 when empty.
/// Reorders `values`.
[[nodiscard]] double quantile(std::vector<std::uint64_t>& values, double q);
[[nodiscard]] double quantile(std::vector<double>& values, double q);

}  // namespace servebench
