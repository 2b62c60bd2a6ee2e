#include "obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <vector>

namespace bnb::obs {
namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out += buf;
}

/// Nanoseconds as a microsecond decimal ("1234.567") — the unit Chrome
/// trace `ts`/`dur` fields expect.
void append_us(std::string& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1000.0);
  out += buf;
}

/// Append `text` with JSON string escaping (quotes, backslashes, control
/// characters).  Phase names are currently plain identifiers, but event
/// names are part of the exporter contract and must stay valid JSON no
/// matter what the taxonomy grows into.
void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
        break;
    }
  }
}

/// `le` label text of histogram bucket b: the finite bound or +Inf.
std::string le_text(std::size_t b) {
  if (b + 1 == Histogram::kBuckets) return "+Inf";
  std::string out;
  append_u64(out, Histogram::upper_bound(b));
  return out;
}

}  // namespace

std::string to_prometheus(const RegistrySnapshot& snapshot) {
  std::string out;
  for (const MetricSnapshot& metric : snapshot.metrics) {
    if (!metric.help.empty()) {
      out += "# HELP " + metric.name + " " + metric.help + "\n";
    }
    out += "# TYPE " + metric.name + " ";
    out += to_string(metric.kind);
    out += "\n";
    switch (metric.kind) {
      case MetricKind::kCounter:
        out += metric.name + " ";
        append_u64(out, metric.counter);
        out += "\n";
        break;
      case MetricKind::kGauge:
        out += metric.name + " ";
        append_i64(out, metric.gauge);
        out += "\n";
        break;
      case MetricKind::kHistogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
          cumulative += metric.histogram.buckets[b];
          out += metric.name + "_bucket{le=\"" + le_text(b) + "\"} ";
          append_u64(out, cumulative);
          out += "\n";
        }
        out += metric.name + "_sum ";
        append_u64(out, metric.histogram.sum);
        out += "\n";
        out += metric.name + "_count ";
        append_u64(out, metric.histogram.count);
        out += "\n";
        break;
      }
    }
  }
  return out;
}

std::string to_json(const RegistrySnapshot& snapshot) {
  std::string counters;
  std::string gauges;
  std::string histograms;
  for (const MetricSnapshot& metric : snapshot.metrics) {
    switch (metric.kind) {
      case MetricKind::kCounter:
        if (!counters.empty()) counters += ",\n";
        counters += "    \"" + metric.name + "\": ";
        append_u64(counters, metric.counter);
        break;
      case MetricKind::kGauge:
        if (!gauges.empty()) gauges += ",\n";
        gauges += "    \"" + metric.name + "\": ";
        append_i64(gauges, metric.gauge);
        break;
      case MetricKind::kHistogram: {
        if (!histograms.empty()) histograms += ",\n";
        histograms += "    \"" + metric.name + "\": {\"count\": ";
        append_u64(histograms, metric.histogram.count);
        histograms += ", \"sum\": ";
        append_u64(histograms, metric.histogram.sum);
        histograms += ", \"buckets\": [";
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
          cumulative += metric.histogram.buckets[b];
          if (b > 0) histograms += ", ";
          histograms += "{\"le\": \"" + le_text(b) + "\", \"count\": ";
          append_u64(histograms, cumulative);
          histograms += "}";
        }
        histograms += "]}";
        break;
      }
    }
  }
  std::string out = "{\n  \"schema\": \"bnb.metrics.v1\",\n";
  out += "  \"counters\": {";
  if (!counters.empty()) out += "\n" + counters + "\n  ";
  out += "},\n  \"gauges\": {";
  if (!gauges.empty()) out += "\n" + gauges + "\n  ";
  out += "},\n  \"histograms\": {";
  if (!histograms.empty()) out += "\n" + histograms + "\n  ";
  out += "}\n}\n";
  return out;
}

std::string trace_to_chrome(std::span<const SpanRecord> spans,
                            std::uint64_t dropped_total) {
  std::string events;
  const auto emit = [&events](std::string_view body) {
    if (!events.empty()) events += ",\n";
    events += "    {";
    events += body;
    events += "}";
  };

  // Metadata: one process, one named row per thread seen in the trace.
  {
    std::string body =
        "\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
        "\"args\": {\"name\": \"bnb\"}";
    emit(body);
  }
  std::vector<std::uint32_t> tids;
  for (const SpanRecord& span : spans) tids.push_back(span.thread_id);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  for (const std::uint32_t tid : tids) {
    std::string body = "\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": ";
    append_u64(body, tid);
    body += ", \"args\": {\"name\": \"bnb-thread-";
    append_u64(body, tid);
    body += "\"}";
    emit(body);
  }

  // One complete (ph:"X") event per span.
  for (const SpanRecord& span : spans) {
    std::string body = "\"name\": \"";
    append_escaped(body, to_string(span.phase));
    body += "\", \"cat\": \"bnb\", \"ph\": \"X\", \"ts\": ";
    append_us(body, span.start_ns);
    body += ", \"dur\": ";
    append_us(body, span.duration_ns);
    body += ", \"pid\": 1, \"tid\": ";
    append_u64(body, span.thread_id);
    body += ", \"args\": {\"trace_id\": ";
    append_u64(body, span.trace_id);
    body += ", \"parent_id\": ";
    append_u64(body, span.parent_id);
    body += "}";
    emit(body);
  }

  // Flow events: a trace id whose spans land on more than one thread gets
  // an s -> t ... -> f arrow chain (start at the end of the first span,
  // finish at the start of the last) so Perfetto draws the solver ->
  // queue -> applier handoff as one connected route.
  std::map<std::uint64_t, std::vector<const SpanRecord*>> by_trace;
  for (const SpanRecord& span : spans) {
    if (span.trace_id != 0) by_trace[span.trace_id].push_back(&span);
  }
  for (auto& [trace_id, group] : by_trace) {
    bool multi_thread = false;
    for (const SpanRecord* span : group) {
      if (span->thread_id != group.front()->thread_id) multi_thread = true;
    }
    if (!multi_thread) continue;
    std::stable_sort(group.begin(), group.end(),
                     [](const SpanRecord* a, const SpanRecord* b) {
                       return a->start_ns < b->start_ns;
                     });
    for (std::size_t i = 0; i < group.size(); ++i) {
      const SpanRecord* span = group[i];
      const bool first = i == 0;
      const bool last = i + 1 == group.size();
      std::string body = "\"name\": \"route\", \"cat\": \"bnb\", \"ph\": \"";
      body += first ? "s" : (last ? "f" : "t");
      body += "\", \"id\": ";
      append_u64(body, trace_id);
      body += ", \"ts\": ";
      // The arrow leaves the first span at its end and lands on later
      // spans at their starts.
      append_us(body, first ? span->start_ns + span->duration_ns : span->start_ns);
      body += ", \"pid\": 1, \"tid\": ";
      append_u64(body, span->thread_id);
      if (last) body += ", \"bp\": \"e\"";
      emit(body);
    }
  }

  std::string out = "{\n  \"displayTimeUnit\": \"ns\",\n  \"otherData\": {\"dropped_total\": ";
  append_u64(out, dropped_total);
  out += "},\n  \"traceEvents\": [";
  if (!events.empty()) out += "\n" + events + "\n  ";
  out += "]\n}\n";
  return out;
}

}  // namespace bnb::obs
