// BENCH_routing.json is the repo's recorded perf baseline; docs/PERF.md
// documents its schema (bnb.bench_routing.v7).  This test parses the
// checked-in file with a minimal JSON reader and validates the schema, so
// a bench_engine change that drifts the emitted shape fails CI instead of
// silently invalidating the regression baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

namespace {

// ---- A deliberately small JSON reader (objects/arrays/strings/numbers/
// bools/null; no \u escapes — the bench file needs none). ----------------

struct JsonValue;
using JsonObject = std::map<std::string, std::shared_ptr<JsonValue>>;
using JsonArray = std::vector<std::shared_ptr<JsonValue>>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject>
      value;

  [[nodiscard]] bool is_object() const { return value.index() == 5; }
  [[nodiscard]] bool is_array() const { return value.index() == 4; }
  [[nodiscard]] bool is_string() const { return value.index() == 3; }
  [[nodiscard]] bool is_number() const { return value.index() == 2; }
  [[nodiscard]] bool is_bool() const { return value.index() == 1; }
  [[nodiscard]] bool boolean() const { return std::get<bool>(value); }
  [[nodiscard]] const JsonObject& object() const { return std::get<JsonObject>(value); }
  [[nodiscard]] const JsonArray& array() const { return std::get<JsonArray>(value); }
  [[nodiscard]] const std::string& str() const { return std::get<std::string>(value); }
  [[nodiscard]] double num() const { return std::get<double>(value); }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  std::shared_ptr<JsonValue> parse() {
    auto v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON error at offset " + std::to_string(pos_) +
                             ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  std::shared_ptr<JsonValue> parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      return std::make_shared<JsonValue>(JsonValue{parse_string()});
    }
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') return parse_null();
    return parse_number();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          default: fail("unsupported escape");
        }
      } else {
        out += c;
      }
    }
  }

  std::shared_ptr<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    return std::make_shared<JsonValue>(
        JsonValue{std::stod(text_.substr(start, pos_ - start))});
  }

  std::shared_ptr<JsonValue> parse_bool() {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return std::make_shared<JsonValue>(JsonValue{true});
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return std::make_shared<JsonValue>(JsonValue{false});
    }
    fail("expected bool");
  }

  std::shared_ptr<JsonValue> parse_null() {
    if (text_.compare(pos_, 4, "null") != 0) fail("expected null");
    pos_ += 4;
    return std::make_shared<JsonValue>(JsonValue{nullptr});
  }

  std::shared_ptr<JsonValue> parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return std::make_shared<JsonValue>(JsonValue{std::move(obj)});
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return std::make_shared<JsonValue>(JsonValue{std::move(obj)});
    }
  }

  std::shared_ptr<JsonValue> parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return std::make_shared<JsonValue>(JsonValue{std::move(arr)});
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return std::make_shared<JsonValue>(JsonValue{std::move(arr)});
    }
  }

  std::string text_;
  std::size_t pos_ = 0;
};

std::shared_ptr<JsonValue> load_bench_json() {
  const std::string path = std::string(BNB_REPO_ROOT) + "/BENCH_routing.json";
  std::ifstream in(path);
  if (!in) {
    ADD_FAILURE() << "cannot open " << path;
    return nullptr;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return JsonParser(buffer.str()).parse();
}

const JsonValue& field(const JsonObject& obj, const std::string& key) {
  const auto it = obj.find(key);
  EXPECT_TRUE(it != obj.end()) << "missing field \"" << key << "\"";
  if (it == obj.end()) {
    static const JsonValue null_value{nullptr};
    return null_value;
  }
  return *it->second;
}

TEST(BenchRoutingJson, MatchesTheDocumentedSchema) {
  const auto root = load_bench_json();
  ASSERT_TRUE(root != nullptr);
  ASSERT_TRUE(root->is_object());
  const JsonObject& top = root->object();

  // Header.
  ASSERT_TRUE(field(top, "schema").is_string());
  EXPECT_EQ(field(top, "schema").str(), "bnb.bench_routing.v7");
  ASSERT_TRUE(field(top, "generated_by").is_string());
  ASSERT_TRUE(field(top, "hardware_threads").is_number());
  const double hardware_threads = field(top, "hardware_threads").num();
  EXPECT_GE(hardware_threads, 1.0);

  // kernels: the dispatch report — which tier the run selected, every tier
  // the host could run, and the per-tier microbenchmark rows at one fixed
  // m.  "scalar" leads the available list and anchors speedup_vs_scalar.
  ASSERT_TRUE(field(top, "kernels").is_object());
  const JsonObject& kernels = field(top, "kernels").object();
  ASSERT_TRUE(field(kernels, "selected").is_string());
  ASSERT_TRUE(field(kernels, "m").is_number());
  ASSERT_TRUE(field(kernels, "available").is_array());
  const JsonArray& available = field(kernels, "available").array();
  ASSERT_FALSE(available.empty());
  std::vector<std::string> tier_names;
  for (const auto& name_value : available) {
    ASSERT_TRUE(name_value->is_string());
    tier_names.push_back(name_value->str());
  }
  EXPECT_EQ(tier_names.front(), "scalar") << "scalar reference must lead";
  EXPECT_TRUE(std::find(tier_names.begin(), tier_names.end(),
                        field(kernels, "selected").str()) != tier_names.end())
      << "selected tier must be one of \"available\"";
  ASSERT_TRUE(field(kernels, "tiers").is_array());
  const JsonArray& tier_rows = field(kernels, "tiers").array();
  ASSERT_EQ(tier_rows.size(), tier_names.size())
      << "one microbenchmark row per available tier";
  double scalar_ns = 0;
  for (std::size_t i = 0; i < tier_rows.size(); ++i) {
    ASSERT_TRUE(tier_rows[i]->is_object());
    const JsonObject& row = tier_rows[i]->object();
    ASSERT_TRUE(field(row, "name").is_string());
    EXPECT_EQ(field(row, "name").str(), tier_names[i])
        << "tiers rows must follow the \"available\" order";
    ASSERT_TRUE(field(row, "ns_per_perm").is_number());
    ASSERT_TRUE(field(row, "speedup_vs_scalar").is_number());
    const double ns = field(row, "ns_per_perm").num();
    EXPECT_GT(ns, 0.0);
    if (i == 0) {
      scalar_ns = ns;
      EXPECT_NEAR(field(row, "speedup_vs_scalar").num(), 1.0, 0.005);
    } else {
      EXPECT_NEAR(field(row, "speedup_vs_scalar").num(), scalar_ns / ns, 0.05)
          << "speedup_vs_scalar inconsistent for " << tier_names[i];
    }
  }

  // single_thread: rows of {m, n, seed_ns_per_perm, compiled_ns_per_perm,
  // speedup}, n = 2^m, speedup consistent with the two timings.
  ASSERT_TRUE(field(top, "single_thread").is_array());
  const JsonArray& rows = field(top, "single_thread").array();
  ASSERT_FALSE(rows.empty());
  double prev_m = 0;
  for (const auto& row_value : rows) {
    ASSERT_TRUE(row_value->is_object());
    const JsonObject& row = row_value->object();
    for (const char* key :
         {"m", "n", "seed_ns_per_perm", "compiled_ns_per_perm", "speedup"}) {
      ASSERT_TRUE(field(row, key).is_number()) << key;
    }
    const double m = field(row, "m").num();
    const double n = field(row, "n").num();
    EXPECT_GT(m, prev_m) << "rows must be sorted by m, strictly increasing";
    prev_m = m;
    EXPECT_EQ(n, static_cast<double>(1ULL << static_cast<unsigned>(m)));
    const double seed_ns = field(row, "seed_ns_per_perm").num();
    const double compiled_ns = field(row, "compiled_ns_per_perm").num();
    const double speedup = field(row, "speedup").num();
    EXPECT_GT(seed_ns, 0.0);
    EXPECT_GT(compiled_ns, 0.0);
    EXPECT_NEAR(speedup, seed_ns / compiled_ns, 0.05)
        << "speedup column inconsistent at m=" << m;
  }

  // batch: {m, permutations, results: [{threads, ns_per_perm,
  // perms_per_sec, scaling, oversubscribed}]}, threads strictly increasing,
  // scaling anchored at 1.0 for the first row.  A row may exceed the host's
  // hardware threads only when it says so (oversubscribed = true, emitted
  // under --force-threads).
  ASSERT_TRUE(field(top, "batch").is_object());
  const JsonObject& batch = field(top, "batch").object();
  ASSERT_TRUE(field(batch, "m").is_number());
  ASSERT_TRUE(field(batch, "permutations").is_number());
  EXPECT_GE(field(batch, "permutations").num(), 1.0);
  ASSERT_TRUE(field(batch, "results").is_array());
  const JsonArray& results = field(batch, "results").array();
  // v3: bench_engine always times threads=2 (flagged oversubscribed on a
  // 1-core host), so the checked-in file always keeps a scaling curve.
  ASSERT_GE(results.size(), 2U) << "batch section must hold a scaling curve";
  double prev_threads = 0;
  double base_ns = 0;
  for (const auto& row_value : results) {
    ASSERT_TRUE(row_value->is_object());
    const JsonObject& row = row_value->object();
    for (const char* key : {"threads", "ns_per_perm", "perms_per_sec", "scaling"}) {
      ASSERT_TRUE(field(row, key).is_number()) << key;
    }
    ASSERT_TRUE(field(row, "oversubscribed").is_bool());
    const double threads = field(row, "threads").num();
    EXPECT_GT(threads, prev_threads) << "thread counts must increase";
    prev_threads = threads;
    if (!field(row, "oversubscribed").boolean()) {
      EXPECT_LE(threads, hardware_threads)
          << "a non-oversubscribed row cannot exceed the host's cores";
    }
    const double ns = field(row, "ns_per_perm").num();
    EXPECT_GT(ns, 0.0);
    if (base_ns == 0) {
      base_ns = ns;
      EXPECT_NEAR(field(row, "scaling").num(), 1.0, 0.005);
    } else {
      EXPECT_NEAR(field(row, "scaling").num(), base_ns / ns, 0.05);
    }
    EXPECT_NEAR(field(row, "perms_per_sec").num(), 1e9 / ns,
                1e9 / ns * 0.01)
        << "perms_per_sec must be the double 1e9 / ns_per_perm";
  }

  // cache (v3): ScheduleCache cold-vs-warm economics.  warm_speedup is the
  // recorded repeated-traffic payoff and must be consistent with the two
  // timings; the recorded run itself must be hit-dominated and bypass-free.
  ASSERT_TRUE(field(top, "cache").is_object());
  const JsonObject& cache = field(top, "cache").object();
  for (const char* key : {"m", "capacity", "pool", "cold_ns_per_perm",
                          "warm_ns_per_perm", "warm_speedup", "hits", "misses",
                          "evictions", "bypasses", "contended_m",
                          "probe_len_avg", "probe_len_max_bucket"}) {
    ASSERT_TRUE(field(cache, key).is_number()) << key;
  }
  const double cold_ns = field(cache, "cold_ns_per_perm").num();
  const double warm_ns = field(cache, "warm_ns_per_perm").num();
  EXPECT_GT(cold_ns, 0.0);
  EXPECT_GT(warm_ns, 0.0);
  EXPECT_NEAR(field(cache, "warm_speedup").num(), cold_ns / warm_ns, 0.05)
      << "warm_speedup inconsistent with its timings";
  EXPECT_GE(field(cache, "warm_speedup").num(), 1.0)
      << "a cache hit can never be slower than the cold solve it skips";
  EXPECT_GE(field(cache, "capacity").num(), field(cache, "pool").num())
      << "the recorded warm run must fit its pool in the cache";
  EXPECT_GT(field(cache, "hits").num(), field(cache, "misses").num())
      << "the recorded warm run is hit-dominated by construction";
  EXPECT_EQ(field(cache, "bypasses").num(), 0.0)
      << "no fault/trace traffic in the recorded run";

  // cache.contended (v6): warm-hit latency of the seqlock flat store vs the
  // reconstructed PR4 mutex+LRU baseline under 1/2/4/8 reader threads.  The
  // flat store must win single-threaded (>= 1.05x: no mutex, no shared_ptr
  // copy, no LRU splice) and by >= 2x wherever the host genuinely runs 4+
  // readers in parallel — oversubscribed rows time time-slicing, not
  // contention, so the 2x bar only applies to real-parallel rows.
  EXPECT_GE(field(cache, "probe_len_avg").num(), 1.0)
      << "every lookup probes at least one slot";
  EXPECT_GE(field(cache, "probe_len_max_bucket").num(),
            field(cache, "probe_len_avg").num());
  ASSERT_TRUE(field(cache, "contended").is_array());
  const JsonArray& contended = field(cache, "contended").array();
  ASSERT_GE(contended.size(), 2U)
      << "contended section must hold a thread-scaling curve";
  double prev_cont_threads = 0;
  for (const auto& row_value : contended) {
    ASSERT_TRUE(row_value->is_object());
    const JsonObject& row = row_value->object();
    for (const char* key : {"threads", "old_hit_ns", "new_hit_ns", "speedup"}) {
      ASSERT_TRUE(field(row, key).is_number()) << key;
    }
    ASSERT_TRUE(field(row, "oversubscribed").is_bool());
    const double threads = field(row, "threads").num();
    EXPECT_GT(threads, prev_cont_threads) << "thread counts must increase";
    prev_cont_threads = threads;
    if (!field(row, "oversubscribed").boolean()) {
      EXPECT_LE(threads, hardware_threads)
          << "a non-oversubscribed row cannot exceed the host's cores";
    }
    const double old_ns = field(row, "old_hit_ns").num();
    const double new_ns = field(row, "new_hit_ns").num();
    const double speedup = field(row, "speedup").num();
    EXPECT_GT(old_ns, 0.0);
    EXPECT_GT(new_ns, 0.0);
    EXPECT_NEAR(speedup, old_ns / new_ns, old_ns / new_ns * 0.01)
        << "speedup inconsistent at threads=" << threads;
    if (threads == 1.0) {
      EXPECT_GE(speedup, 1.05)
          << "acceptance bar: the seqlock flat store must beat the mutex+LRU "
             "baseline even uncontended";
    }
    if (threads >= 4.0 && !field(row, "oversubscribed").boolean()) {
      EXPECT_GE(speedup, 2.0)
          << "acceptance bar: lock-free readers must beat the mutex >= 2x "
             "under real 4+-thread contention";
    }
  }

  // small (v5): the register-resident small-N lane.  One row per m in
  // 4..6, each comparing the pre-lane warm path (general-lane find +
  // schedule apply) against the flat SmallSchedule replay; the recorded
  // speedups are the lane's acceptance bars — apply must beat the general
  // warm path >= 10x at m = 6, and apply8 must beat scalar apply >= 3x
  // when the run used an AVX-512 kernel tier.
  ASSERT_TRUE(field(top, "small").is_object());
  const JsonObject& small = field(top, "small").object();
  ASSERT_TRUE(field(small, "pool").is_number());
  ASSERT_TRUE(field(small, "apply8_tier").is_string());
  const std::string& apply8_tier = field(small, "apply8_tier").str();
  EXPECT_TRUE(std::find(tier_names.begin(), tier_names.end(), apply8_tier) !=
              tier_names.end())
      << "apply8_tier must be one of kernels.available";
  ASSERT_TRUE(field(small, "results").is_array());
  const JsonArray& small_rows = field(small, "results").array();
  ASSERT_EQ(small_rows.size(), 3U) << "one row per m in {4, 5, 6}";
  double small_prev_m = 0;
  for (const auto& row_value : small_rows) {
    ASSERT_TRUE(row_value->is_object());
    const JsonObject& row = row_value->object();
    for (const char* key :
         {"m", "n", "general_warm_ns_per_perm", "small_route_warm_ns_per_perm",
          "apply_ns_per_perm", "apply8_ns_per_perm", "apply_speedup_vs_general",
          "apply8_speedup_vs_apply"}) {
      ASSERT_TRUE(field(row, key).is_number()) << key;
    }
    const double m = field(row, "m").num();
    EXPECT_GT(m, small_prev_m) << "rows must be sorted by m, strictly increasing";
    small_prev_m = m;
    EXPECT_LE(m, 6.0) << "the small lane ends at m = 6 (one word of state)";
    EXPECT_EQ(field(row, "n").num(),
              static_cast<double>(1ULL << static_cast<unsigned>(m)));
    const double general_ns = field(row, "general_warm_ns_per_perm").num();
    const double small_route_ns = field(row, "small_route_warm_ns_per_perm").num();
    const double apply_ns = field(row, "apply_ns_per_perm").num();
    const double apply8_ns = field(row, "apply8_ns_per_perm").num();
    EXPECT_GT(general_ns, 0.0);
    EXPECT_GT(small_route_ns, 0.0);
    EXPECT_GT(apply_ns, 0.0);
    EXPECT_GT(apply8_ns, 0.0);
    EXPECT_NEAR(field(row, "apply_speedup_vs_general").num(), general_ns / apply_ns,
                general_ns / apply_ns * 0.01)
        << "apply_speedup_vs_general inconsistent at m=" << m;
    EXPECT_NEAR(field(row, "apply8_speedup_vs_apply").num(), apply_ns / apply8_ns,
                apply_ns / apply8_ns * 0.01)
        << "apply8_speedup_vs_apply inconsistent at m=" << m;
    if (m == 6.0) {
      EXPECT_GE(field(row, "apply_speedup_vs_general").num(), 10.0)
          << "acceptance bar: the flat replay must beat the general warm "
             "path >= 10x at m = 6";
    }
    if (apply8_tier.rfind("avx512", 0) == 0) {
      EXPECT_GE(field(row, "apply8_speedup_vs_apply").num(), 3.0)
          << "acceptance bar: apply8 must beat scalar apply >= 3x on an "
             "AVX-512 tier (m=" << m << ")";
    }
  }

  // stream (v3): StreamEngine rows {threads, pipelined, cached,
  // ns_per_perm, perms_per_sec, oversubscribed}.
  ASSERT_TRUE(field(top, "stream").is_object());
  const JsonObject& stream = field(top, "stream").object();
  ASSERT_TRUE(field(stream, "m").is_number());
  ASSERT_TRUE(field(stream, "permutations").is_number());
  EXPECT_GE(field(stream, "permutations").num(), 1.0);
  ASSERT_TRUE(field(stream, "results").is_array());
  const JsonArray& stream_rows = field(stream, "results").array();
  ASSERT_GE(stream_rows.size(), 2U)
      << "stream section must compare at least inline vs pipelined";
  bool saw_pipelined = false;
  bool saw_cached = false;
  for (const auto& row_value : stream_rows) {
    ASSERT_TRUE(row_value->is_object());
    const JsonObject& row = row_value->object();
    for (const char* key : {"threads", "ns_per_perm", "perms_per_sec"}) {
      ASSERT_TRUE(field(row, key).is_number()) << key;
    }
    for (const char* key : {"pipelined", "cached", "oversubscribed"}) {
      ASSERT_TRUE(field(row, key).is_bool()) << key;
    }
    const double ns = field(row, "ns_per_perm").num();
    EXPECT_GT(ns, 0.0);
    EXPECT_NEAR(field(row, "perms_per_sec").num(), 1e9 / ns, 1e9 / ns * 0.01);
    saw_pipelined |= field(row, "pipelined").boolean();
    saw_cached |= field(row, "cached").boolean();
    if (!field(row, "oversubscribed").boolean()) {
      EXPECT_LE(field(row, "threads").num(), hardware_threads);
    }
  }
  EXPECT_TRUE(saw_pipelined) << "stream section must time the pipelined engine";
  EXPECT_TRUE(saw_cached) << "stream section must time the cached engine";

  // obs (v4): telemetry overhead — the same phase work timed with spans
  // runtime-enabled vs runtime-disabled.  overhead_pct must be consistent
  // with its two timings, and the recorded overhead on the hot phases
  // (route, apply) must clear the <3% acceptance bar.  Negative values are
  // fine: the span cost sits inside timing noise.
  ASSERT_TRUE(field(top, "obs").is_object());
  const JsonObject& obs = field(top, "obs").object();
  ASSERT_TRUE(field(obs, "m").is_number());
  ASSERT_TRUE(field(obs, "phases").is_array());
  const JsonArray& obs_rows = field(obs, "phases").array();
  std::vector<std::string> obs_phases;
  for (const auto& row_value : obs_rows) {
    ASSERT_TRUE(row_value->is_object());
    const JsonObject& row = row_value->object();
    ASSERT_TRUE(field(row, "phase").is_string());
    for (const char* key :
         {"enabled_ns_per_call", "disabled_ns_per_call", "overhead_pct"}) {
      ASSERT_TRUE(field(row, key).is_number()) << key;
    }
    const double enabled_ns = field(row, "enabled_ns_per_call").num();
    const double disabled_ns = field(row, "disabled_ns_per_call").num();
    const double overhead = field(row, "overhead_pct").num();
    EXPECT_GT(enabled_ns, 0.0);
    EXPECT_GT(disabled_ns, 0.0);
    EXPECT_NEAR(overhead, (enabled_ns - disabled_ns) / disabled_ns * 100.0, 0.05)
        << "overhead_pct inconsistent for phase " << field(row, "phase").str();
    obs_phases.push_back(field(row, "phase").str());
    if (field(row, "phase").str() == "route" ||
        field(row, "phase").str() == "apply") {
      EXPECT_LT(overhead, 3.0)
          << "telemetry must cost <3% on the " << field(row, "phase").str()
          << " hot path";
    }
  }
  for (const char* phase : {"route", "solve", "apply"}) {
    EXPECT_TRUE(std::find(obs_phases.begin(), obs_phases.end(), phase) !=
                obs_phases.end())
        << "obs section must record the " << phase << " phase";
  }

  // obs.tracing (v7): the marginal cost of causal tracing — the same
  // phases with a SpanTrace sink installed vs not, runtime-enabled on
  // both sides.  Every row must clear the <3% bar: tracing-on routing
  // must stay within 3% of tracing-off.
  ASSERT_TRUE(field(obs, "tracing").is_array());
  const JsonArray& tracing_rows = field(obs, "tracing").array();
  std::vector<std::string> tracing_phases;
  for (const auto& row_value : tracing_rows) {
    ASSERT_TRUE(row_value->is_object());
    const JsonObject& row = row_value->object();
    ASSERT_TRUE(field(row, "phase").is_string());
    for (const char* key :
         {"traced_ns_per_call", "untraced_ns_per_call", "overhead_pct"}) {
      ASSERT_TRUE(field(row, key).is_number()) << key;
    }
    const double traced_ns = field(row, "traced_ns_per_call").num();
    const double untraced_ns = field(row, "untraced_ns_per_call").num();
    const double overhead = field(row, "overhead_pct").num();
    EXPECT_GT(traced_ns, 0.0);
    EXPECT_GT(untraced_ns, 0.0);
    EXPECT_NEAR(overhead, (traced_ns - untraced_ns) / untraced_ns * 100.0, 0.05)
        << "overhead_pct inconsistent for traced phase "
        << field(row, "phase").str();
    EXPECT_LT(overhead, 3.0)
        << "causal tracing must cost <3% on the " << field(row, "phase").str()
        << " phase";
    tracing_phases.push_back(field(row, "phase").str());
  }
  for (const char* phase : {"route", "solve", "apply"}) {
    EXPECT_TRUE(std::find(tracing_phases.begin(), tracing_phases.end(),
                          phase) != tracing_phases.end())
        << "obs.tracing section must record the " << phase << " phase";
  }
}

}  // namespace
