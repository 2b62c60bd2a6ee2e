#include "obs/span.hpp"

#include "obs/trace_context.hpp"

namespace bnb::obs {

namespace detail {
std::atomic<bool> g_enabled{true};
}  // namespace detail

namespace {

std::atomic<SpanTrace*> g_trace{nullptr};

/// All phase histograms, bound to the global registry together so the
/// first span of ANY phase materializes the whole catalog (after that the
/// span path never touches the registry lock again).
struct PhaseTable {
  Histogram* histograms[kPhaseCount];

  PhaseTable() {
    MetricsRegistry& registry = MetricsRegistry::global();
    histograms[static_cast<std::size_t>(Phase::kSolve)] =
        &registry.histogram("bnb_solve_ns", "control solve (arbiter trees) latency");
    histograms[static_cast<std::size_t>(Phase::kApply)] =
        &registry.histogram("bnb_apply_ns", "schedule replay (apply) latency");
    histograms[static_cast<std::size_t>(Phase::kRoute)] =
        &registry.histogram("bnb_route_ns", "fused engine route latency");
    histograms[static_cast<std::size_t>(Phase::kAudit)] =
        &registry.histogram("bnb_audit_ns", "delivery audit latency");
    histograms[static_cast<std::size_t>(Phase::kDiagnose)] =
        &registry.histogram("bnb_diagnose_ns", "fault diagnosis latency");
    histograms[static_cast<std::size_t>(Phase::kFallback)] =
        &registry.histogram("bnb_fallback_ns", "behavioral spare-plane route latency");
    histograms[static_cast<std::size_t>(Phase::kStreamRun)] =
        &registry.histogram("bnb_stream_run_ns", "whole StreamEngine::run latency");
    histograms[static_cast<std::size_t>(Phase::kSmallApply)] =
        &registry.histogram("bnb_small_apply_ns",
                            "register-resident small-N replay latency");
    histograms[static_cast<std::size_t>(Phase::kQueueWait)] =
        &registry.histogram("bnb_stream_queue_wait_ns",
                            "stream-item dwell time in the ordered ring between "
                            "solver enqueue and applier pickup");
    histograms[static_cast<std::size_t>(Phase::kCacheLookup)] =
        &registry.histogram("bnb_cache_lookup_ns",
                            "general-lane schedule cache probe latency "
                            "(recorded only while a trace sink is installed)");
  }
};

PhaseTable& phase_table() {
  static PhaseTable table;
  return table;
}

}  // namespace

const char* to_string(Phase phase) noexcept {
  switch (phase) {
    case Phase::kSolve: return "solve";
    case Phase::kApply: return "apply";
    case Phase::kRoute: return "route";
    case Phase::kAudit: return "audit";
    case Phase::kDiagnose: return "diagnose";
    case Phase::kFallback: return "fallback";
    case Phase::kStreamRun: return "stream_run";
    case Phase::kSmallApply: return "small_apply";
    case Phase::kQueueWait: return "queue_wait";
    case Phase::kCacheLookup: return "cache_lookup";
  }
  return "?";
}

void set_enabled(bool enabled) noexcept {
  detail::g_enabled.store(enabled, std::memory_order_relaxed);
}

Histogram& phase_histogram(Phase phase) {
  return *phase_table().histograms[static_cast<std::size_t>(phase)];
}

SpanTrace::SpanTrace(std::size_t capacity) : slots_(capacity == 0 ? 1 : capacity) {}

void SpanTrace::record(Phase phase, std::uint64_t start_ns,
                       std::uint64_t duration_ns, std::uint64_t trace_id,
                       std::uint64_t parent_id, std::uint32_t thread_id) noexcept {
  const std::uint64_t index = next_.fetch_add(1, std::memory_order_relaxed);
  if (index >= slots_.size()) dropped_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[index % slots_.size()];
  slot.phase.store(static_cast<std::uint64_t>(phase), std::memory_order_relaxed);
  slot.start.store(start_ns, std::memory_order_relaxed);
  slot.duration.store(duration_ns, std::memory_order_relaxed);
  slot.trace.store(trace_id, std::memory_order_relaxed);
  slot.parent.store(parent_id, std::memory_order_relaxed);
  slot.thread.store(thread_id, std::memory_order_relaxed);
}

std::vector<SpanRecord> SpanTrace::snapshot() const {
  const std::uint64_t total = next_.load(std::memory_order_relaxed);
  const std::uint64_t held = total < slots_.size() ? total : slots_.size();
  std::vector<SpanRecord> out;
  out.reserve(static_cast<std::size_t>(held));
  // Oldest retained span first: with a wrapped ring that is slot (total -
  // held), walking forward `held` slots.
  for (std::uint64_t k = 0; k < held; ++k) {
    const Slot& slot = slots_[(total - held + k) % slots_.size()];
    SpanRecord record;
    record.phase = static_cast<Phase>(slot.phase.load(std::memory_order_relaxed));
    record.start_ns = slot.start.load(std::memory_order_relaxed);
    record.duration_ns = slot.duration.load(std::memory_order_relaxed);
    record.trace_id = slot.trace.load(std::memory_order_relaxed);
    record.parent_id = slot.parent.load(std::memory_order_relaxed);
    record.thread_id =
        static_cast<std::uint32_t>(slot.thread.load(std::memory_order_relaxed));
    out.push_back(record);
  }
  return out;
}

void SpanTrace::clear() noexcept {
  next_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

void set_trace(SpanTrace* trace) noexcept {
  g_trace.store(trace, std::memory_order_release);
}

SpanTrace* trace() noexcept { return g_trace.load(std::memory_order_acquire); }

void record_phase(Phase phase, std::uint64_t start_ns,
                  std::uint64_t duration_ns) noexcept {
  const TraceContext context = current_context();
  record_phase(phase, start_ns, duration_ns, context.trace_id, context.parent_id,
               current_thread_id());
}

void record_phase(Phase phase, std::uint64_t start_ns, std::uint64_t duration_ns,
                  std::uint64_t trace_id, std::uint64_t parent_id,
                  std::uint32_t thread_id) noexcept {
  phase_histogram(phase).record(duration_ns);
  if (SpanTrace* sink = trace()) {
    sink->record(phase, start_ns, duration_ns, trace_id, parent_id, thread_id);
  }
}

}  // namespace bnb::obs
