#include "fabric/pipeline.hpp"

#include <deque>
#include <type_traits>

#include "common/expect.hpp"
#include "obs/metrics.hpp"

namespace bnb {

namespace {
StagedJob make_job(const Permutation& pi, std::uint64_t tag) {
  std::vector<Word> words(pi.size());
  for (std::size_t j = 0; j < pi.size(); ++j) {
    words[j] = Word{pi(j), (tag << 24) | j};  // provenance: (issue cycle, source)
  }
  StagedJob job;
  job.lines = std::move(words);
  job.tag = tag;
  return job;
}

/// Audit a retired job: every line holds its addressed word, and the
/// payload's provenance is consistent with the issuing permutation.
bool audit(const StagedJob& job, const Permutation& pi) {
  for (std::size_t line = 0; line < job.lines.size(); ++line) {
    const Word& w = job.lines[line];
    if (w.address != line) return false;
    if ((w.payload >> 24) != job.tag) return false;
    const std::uint64_t src = w.payload & 0xFFFFFFU;
    if (pi(static_cast<std::size_t>(src)) != line) return false;
  }
  return true;
}

/// Fold one finished stream into the global registry's bnb_fabric_* view.
void publish_stream(const PipelinedFabric::StreamStats& s) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.counter("bnb_fabric_streams_total", "run_stream calls completed").inc();
  reg.counter("bnb_fabric_permutations_total", "permutations issued to the pipelined fabric")
      .inc(s.permutations);
  reg.counter("bnb_fabric_misroutes_caught_total", "retired jobs failing the stream audit")
      .inc(s.misroutes_caught);
  reg.counter("bnb_fabric_retries_total", "permutations reissued after a failed audit")
      .inc(s.retries);
  reg.counter("bnb_fabric_degraded_cycles_total", "cycles routed with live fault overlays")
      .inc(s.degraded_cycles);
  reg.counter("bnb_fabric_degraded_transitions_total",
              "healthy->degraded mode flips across all streams")
      .inc(s.degraded_transitions);
  reg.counter("bnb_fabric_failed_permutations_total",
              "permutations misrouted with retries exhausted")
      .inc(s.failed_permutations);
}
}  // namespace

PipelinedFabric::PipelinedFabric(Kind kind, unsigned m)
    : kind_(kind),
      router_(kind == Kind::kBnb
                  ? std::variant<StagedBnbRouter, StagedBatcherRouter>(
                        std::in_place_type<StagedBnbRouter>, m)
                  : std::variant<StagedBnbRouter, StagedBatcherRouter>(
                        std::in_place_type<StagedBatcherRouter>, m)) {}

std::size_t PipelinedFabric::inputs() const {
  return std::visit([](const auto& r) { return r.inputs(); }, router_);
}

unsigned PipelinedFabric::depth_columns() const {
  return std::visit([](const auto& r) { return r.total_columns(); }, router_);
}

sim::DelayUnits PipelinedFabric::cycle_time() const {
  return std::visit([](const auto& r) { return r.max_column_delay(); }, router_);
}

PipelinedFabric::StreamStats PipelinedFabric::run_stream(
    std::span<const Permutation> perms, const InjectionWindow* inject,
    unsigned max_retries) const {
  // Fault injection drives StagedBnbRouter's overlay hooks; the Batcher
  // baseline has none.
  BNB_EXPECTS(inject == nullptr || kind_ == Kind::kBnb);
  StreamStats stats;
  stats.permutations = perms.size();
  stats.latency_columns = depth_columns();
  stats.cycle_time_units = cycle_time().evaluate(1.0, 1.0);
  stats.all_delivered = true;
  if (perms.empty()) return stats;

  const EngineFaults* overlay =
      (inject != nullptr && !inject->faults.empty()) ? &inject->faults : nullptr;

  return std::visit(
      [&](const auto& router) {
        StreamStats s = stats;
        std::deque<StagedJob> in_flight;
        // Issue queue of permutation indices: the initial stream in order,
        // with audited-bad permutations reissued at the back.
        std::deque<std::size_t> pending;
        for (std::size_t i = 0; i < perms.size(); ++i) pending.push_back(i);
        std::vector<unsigned> attempts(perms.size(), 0);
        std::uint64_t cycle = 0;
        bool was_degraded = false;

        while (!pending.empty() || !in_flight.empty()) {
          const EngineFaults* live =
              (overlay != nullptr && cycle < inject->until_cycle) ? overlay
                                                                  : nullptr;
          if (live != nullptr) {
            ++s.degraded_cycles;
            if (!was_degraded) ++s.degraded_transitions;
          }
          was_degraded = live != nullptr;
          // Advance every in-flight job by one column: each column's
          // arbiters set its switches from the addresses in flight.
          for (StagedJob& job : in_flight) {
            if constexpr (std::is_same_v<std::decay_t<decltype(router)>, StagedBnbRouter>) {
              router.step(job, live);
            } else {
              router.step(job);
            }
          }
          // Retire deliveries (oldest jobs are furthest along).
          while (!in_flight.empty() && router.finished(in_flight.front())) {
            const StagedJob& done = in_flight.front();
            const auto idx = static_cast<std::size_t>(done.tag);
            if (audit(done, perms[idx])) {
              s.words_delivered += done.lines.size();
            } else {
              ++s.misroutes_caught;
              if (attempts[idx] < max_retries) {
                ++attempts[idx];
                ++s.retries;
                pending.push_back(idx);
              } else {
                ++s.failed_permutations;
                s.all_delivered = false;
              }
            }
            in_flight.pop_front();
          }
          // Issue the next permutation into the freed input column.
          if (!pending.empty()) {
            const std::size_t idx = pending.front();
            pending.pop_front();
            BNB_EXPECTS(perms[idx].size() == router.inputs());
            in_flight.push_back(make_job(perms[idx], idx));
          }
          ++cycle;
        }

        s.cycles = cycle;
        s.time_per_permutation =
            s.cycle_time_units * static_cast<double>(cycle) /
            static_cast<double>(perms.size());
        publish_stream(s);
        return s;
      },
      router_);
}

}  // namespace bnb
