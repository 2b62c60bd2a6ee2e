// Exporters for MetricsRegistry snapshots and span traces.
//
//   * to_prometheus — Prometheus text exposition format 0.0.4: # HELP /
//     # TYPE headers, counters and gauges as bare samples, histograms as
//     cumulative name_bucket{le="..."} series plus name_sum / name_count.
//   * to_json — schema "bnb.metrics.v1": {schema, counters{}, gauges{},
//     histograms{name: {count, sum, buckets: [{le, count}...]}}} with the
//     same cumulative bucket convention, names in sorted order.
//   * trace_to_chrome — Chrome trace-event JSON (the catapult format
//     Perfetto and chrome://tracing load): one ph:"X" complete event per
//     span (ts/dur in microseconds, pid 1, tid = the span's dense thread
//     id, args carrying the causal ids), thread_name/process_name
//     metadata events, and ph:"s"/"t"/"f" flow events stitching each
//     multi-thread trace id across the solver/applier handoff.  The
//     envelope's otherData carries the SpanTrace's dropped_total, so a
//     wrapped ring reports how many spans it lost.
//
// Both snapshot exporters emit the FULL metric catalog of the snapshot —
// the golden tests in tests/test_obs.cpp parse the output back and verify
// every metric round-trips with its exact value.
#pragma once

#include <span>
#include <string>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace bnb::obs {

[[nodiscard]] std::string to_prometheus(const RegistrySnapshot& snapshot);

[[nodiscard]] std::string to_json(const RegistrySnapshot& snapshot);

[[nodiscard]] std::string trace_to_chrome(std::span<const SpanRecord> spans,
                                          std::uint64_t dropped_total = 0);

}  // namespace bnb::obs
