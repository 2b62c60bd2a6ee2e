#include "ledger.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace servebench {
namespace {

template <class T>
double nearest_rank(std::vector<T>& values, double q) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return static_cast<double>(values[index]);
}

void append_us(std::string& out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1000.0);
  out += buf;
}

}  // namespace

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kRequest: return "request";
    case Layer::kDigest: return "core.digest";
    case Layer::kLookupHit: return "core.cache.lookup_hit";
    case Layer::kLookupMiss: return "core.cache.lookup_miss";
    case Layer::kSolve: return "core.solve";
    case Layer::kInsert: return "core.cache.insert";
    case Layer::kApply: return "core.apply";
    case Layer::kAudit: return "fault.audit";
  }
  return "?";
}

void Ledger::add(const Span& span) {
  samples_[static_cast<std::size_t>(span.layer)].push_back(span.duration_ns);
  if (roots_ < keep_requests_) kept_.push_back(span);
  if (span.layer == Layer::kRequest) {
    ++roots_;
  } else {
    child_self_ns_ += span.duration_ns;
  }
}

std::string Ledger::to_chrome() const {
  std::string out =
      "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n"
      "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"servebench\"}},\n"
      "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
      "\"args\": {\"name\": \"client\"}}";
  for (const Span& span : kept_) {
    out += ",\n    {\"name\": \"";
    out += layer_name(span.layer);
    out += "\", \"cat\": \"servebench\", \"ph\": \"X\", \"ts\": ";
    append_us(out, span.start_ns);
    out += ", \"dur\": ";
    append_us(out, span.duration_ns);
    out += ", \"pid\": 1, \"tid\": 1, \"args\": {\"trace_id\": ";
    out += std::to_string(span.trace_id);
    out += ", \"parent_id\": ";
    out += std::to_string(span.parent_id);
    out += "}}";
  }
  out += "\n  ]\n}\n";
  return out;
}

namespace {

constexpr unsigned kSubBits = 10;
constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;  // sub-buckets per octave
constexpr std::uint64_t kExact = kSub * 2;                     // exact below this
constexpr std::size_t kBuckets = kExact + (64 - kSubBits - 1) * kSub;

[[nodiscard]] std::size_t bucket_of(std::uint64_t ns) noexcept {
  if (ns < kExact) return static_cast<std::size_t>(ns);
  const unsigned shift = static_cast<unsigned>(std::bit_width(ns)) - (kSubBits + 1);
  return static_cast<std::size_t>(kExact + (shift - 1) * kSub + ((ns >> shift) - kSub));
}

[[nodiscard]] double midpoint_of(std::size_t bucket) noexcept {
  if (bucket < kExact) return static_cast<double>(bucket);
  const std::uint64_t k = bucket - kExact;
  const unsigned shift = static_cast<unsigned>(k / kSub) + 1;
  const std::uint64_t low = ((k % kSub) + kSub) << shift;
  return static_cast<double>(low) + static_cast<double>((std::uint64_t{1} << shift) - 1) / 2.0;
}

}  // namespace

LatencyHistogram::LatencyHistogram() : counts_(kBuckets, 0) {}

void LatencyHistogram::record(std::uint64_t ns) noexcept {
  ++counts_[bucket_of(ns)];
  ++total_;
}

double LatencyHistogram::quantile(double q) const noexcept {
  if (total_ == 0) return 0.0;
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(total_)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (static_cast<double>(seen) >= rank) return midpoint_of(b);
  }
  return midpoint_of(counts_.size() - 1);
}

void WindowedTimer::add(std::uint64_t ns, std::uint64_t permutations) {
  all_.record(ns);
  open_ns_.push_back(ns);
  open_busy_ns_ += ns;
  open_permutations_ += permutations;
  ++samples_;
  busy_ns_ += ns;
  if ((open_ns_.size() >= kMinSamples && open_busy_ns_ >= kMinNs) ||
      open_ns_.size() >= kMaxSamples) {
    closed_.push_back(summarize(open_ns_, open_busy_ns_, open_permutations_));
    open_ns_.clear();
    open_busy_ns_ = 0;
    open_permutations_ = 0;
  }
}

WindowedTimer::Window WindowedTimer::summarize(std::vector<std::uint64_t>& ns,
                                               std::uint64_t busy_ns,
                                               std::uint64_t permutations) {
  return {quantile(ns, 0.50), busy_ns, permutations};
}

std::vector<WindowedTimer::Window> WindowedTimer::all() const {
  if (!closed_.empty() || open_ns_.empty()) return closed_;
  std::vector<std::uint64_t> ns = open_ns_;
  return {summarize(ns, open_busy_ns_, open_permutations_)};
}

WindowedTimer::Quiet WindowedTimer::quiet(double share) const {
  std::vector<Window> windows = all();
  if (windows.empty()) return {};
  std::ranges::sort(windows, {}, &Window::p50_ns);
  const double rank = std::ceil(share * static_cast<double>(windows.size()));
  const std::size_t count =
      std::min(windows.size(), static_cast<std::size_t>(std::max(rank, 1.0)));
  std::uint64_t busy = 0;
  std::uint64_t permutations = 0;
  for (std::size_t i = 0; i < count; ++i) {
    busy += windows[i].busy_ns;
    permutations += windows[i].permutations;
  }
  return {windows[count - 1].p50_ns,
          static_cast<double>(permutations) / (static_cast<double>(busy) * 1e-9), count};
}

std::size_t WindowedTimer::windows() const { return all().size(); }

double quantile(std::vector<std::uint64_t>& values, double q) { return nearest_rank(values, q); }
double quantile(std::vector<double>& values, double q) { return nearest_rank(values, q); }

}  // namespace servebench
