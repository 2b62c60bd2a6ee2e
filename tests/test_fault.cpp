// Fault subsystem: the FaultModel address space, the injection compiler
// (behavioral and compiled overlays MUST behave identically), the
// DeliveryAudit taxonomy, and the recovery ladder's no-silent-misroute
// contract (ResilientRouter) — exhaustively for every single fault at m <= 3, and with
// randomized multi-fault campaigns at m = 8 and m = 10.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "core/bnb_network.hpp"
#include "core/compiled_bnb.hpp"
#include "fabric/pipeline.hpp"
#include "fault/delivery_audit.hpp"
#include "fault/fault_model.hpp"
#include "fault/injection.hpp"
#include "fault/resilience.hpp"
#include "obs/metrics.hpp"
#include "perm/generators.hpp"

namespace bnb {
namespace {

/// True iff the routed result actually delivered pi: every input's word is
/// on the line pi names, with its address intact.
bool delivery_matches(const Permutation& pi, std::span<const Word> outputs) {
  for (std::size_t line = 0; line < outputs.size(); ++line) {
    const Word& w = outputs[line];
    if (w.payload >= outputs.size()) return false;
    if (pi(static_cast<std::size_t>(w.payload)) != line) return false;
    if (w.address != line) return false;
  }
  return true;
}

// ---- FaultModel -------------------------------------------------------

TEST(FaultModel, ValidatesSpecs) {
  FaultModel model(3);
  // Good specs of every kind.
  model.add({FaultKind::kStuckControl, {0, 0, 0, 3}, true, 0, 0});
  model.add({FaultKind::kStuckFlag, {0, 1, 1, 1}, false, 0, 0});
  model.add({FaultKind::kDeadCrosspoint, {1, 0, 1, 1}, false, 1, 0});
  model.add({FaultKind::kLinkFlip, {2, 0, 3, 1}, false, 0, 0});
  EXPECT_EQ(model.size(), 4U);

  // Out-of-shape coordinates must throw, not silently inject elsewhere.
  EXPECT_THROW(model.add({FaultKind::kStuckControl, {3, 0, 0, 0}}),
               contract_violation);  // main stage >= m
  EXPECT_THROW(model.add({FaultKind::kStuckControl, {0, 3, 0, 0}}),
               contract_violation);  // nested column >= m - i
  EXPECT_THROW(model.add({FaultKind::kStuckControl, {0, 0, 1, 0}}),
               contract_violation);  // splitter >= 2^{i+j}
  EXPECT_THROW(model.add({FaultKind::kStuckControl, {0, 0, 0, 4}}),
               contract_violation);  // switch >= 2^{p-1}
  EXPECT_THROW(model.add({FaultKind::kStuckFlag, {0, 2, 0, 0}}),
               contract_violation);  // sp(1) has no arbiter flags
  EXPECT_THROW(model.add({FaultKind::kLinkFlip, {0, 0, 0, 8}}),
               contract_violation);  // line >= 2^p
  EXPECT_THROW(model.add({FaultKind::kDeadCrosspoint, {0, 0, 0, 0}, false, 2, 0}),
               contract_violation);  // port > 1
  EXPECT_EQ(model.size(), 4U);       // rejected specs were not added
}

TEST(FaultModel, SingleFaultEnumerationIsExhaustive) {
  // m = 2 by hand: column (0,0) is one sp(2) (2 switches, 4 lines) ->
  // 2*(2 stuck-ctl + 2 stuck-flag + 4 dead) + 4 flips = 20; columns (0,1)
  // and (1,0) are two sp(1) each (1 switch, 2 lines, no flags) ->
  // 2*((2+4) + 2) = 16 apiece.  52 total.
  const auto faults = FaultModel::all_single_faults(2);
  EXPECT_EQ(faults.size(), 52U);
  // Every one must validate.
  FaultModel model(2);
  for (const auto& f : faults) model.add(f);
  EXPECT_EQ(model.size(), faults.size());
  // And the enumeration must not repeat itself.
  std::set<std::string> seen;
  for (const auto& f : faults) seen.insert(to_string(f));
  EXPECT_EQ(seen.size(), faults.size());
}

TEST(FaultModel, RandomCampaignIsValidAndDeterministic) {
  for (const unsigned m : {2U, 5U, 10U}) {
    Rng rng_a(0xCA3A11 + m);
    Rng rng_b(0xCA3A11 + m);
    const auto a = FaultModel::random_campaign(m, 25, rng_a);
    const auto b = FaultModel::random_campaign(m, 25, rng_b);
    ASSERT_EQ(a.size(), 25U);
    EXPECT_TRUE(a == b) << "campaign must replay from the seed, m=" << m;
    FaultModel model(m);
    for (const auto& f : a) model.add(f);  // all specs in-shape
  }
}

// ---- Injection compiler: behavioral == compiled -----------------------

TEST(FaultInjection, BehavioralMatchesCompiledOnEverySingleFault) {
  // The same FaultModel compiled to both overlays must produce the SAME
  // damaged delivery from both engines — word for word.
  for (const unsigned m : {2U, 3U}) {
    const BnbNetwork behavioral(m);
    const CompiledBnb engine(m);
    RouteScratch scratch;
    Rng rng(0xD1FF + m);
    const std::size_t n = std::size_t{1} << m;
    for (const FaultSpec& spec : FaultModel::all_single_faults(m)) {
      FaultModel model(m);
      model.add(spec);
      const NetworkFaults net_overlay = compile_network_faults(model);
      const EngineFaults eng_overlay = compile_engine_faults(model);
      for (int round = 0; round < 8; ++round) {
        const Permutation pi = random_perm(n, rng);
        const auto ref = behavioral.route_with_faults(pi, net_overlay);
        const auto got = engine.route(pi, scratch, nullptr, &eng_overlay);
        ASSERT_EQ(ref.self_routed, got.self_routed)
            << to_string(spec) << " " << pi.to_string();
        for (std::size_t line = 0; line < n; ++line) {
          ASSERT_EQ(ref.outputs[line], got.outputs[line])
              << "line " << line << " under " << to_string(spec) << " "
              << pi.to_string();
        }
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(ref.dest[j], got.dest[j]) << to_string(spec);
        }
      }
    }
  }
}

TEST(FaultInjection, EmptyOverlayRoutesClean) {
  const unsigned m = 5;
  const BnbNetwork behavioral(m);
  const CompiledBnb engine(m);
  RouteScratch scratch;
  const EngineFaults empty_engine;
  const NetworkFaults empty_net;
  Rng rng(0xC1EA);
  for (int round = 0; round < 20; ++round) {
    const Permutation pi = random_perm(std::size_t{1} << m, rng);
    EXPECT_TRUE(engine.route(pi, scratch, nullptr, &empty_engine).self_routed);
    EXPECT_TRUE(behavioral.route_with_faults(pi, empty_net).self_routed);
  }
}

// ---- Exhaustive single-fault campaign (m <= 3) ------------------------

TEST(FaultCampaign, EverySingleFaultRoutesOrIsCaughtM2Exhaustive) {
  // All 52 faults x all 24 permutations of N = 4: either the damaged
  // fabric still delivered correctly (the fault was not excited), or the
  // DeliveryAudit catches it.  Never a clean audit over a wrong delivery.
  const unsigned m = 2;
  const CompiledBnb engine(m);
  const DeliveryAudit audit(m);
  RouteScratch scratch;
  for (const FaultSpec& spec : FaultModel::all_single_faults(m)) {
    FaultModel model(m);
    model.add(spec);
    const EngineFaults overlay = compile_engine_faults(model);
    Permutation pi(4);
    do {
      const auto out = engine.route(pi, scratch, nullptr, &overlay);
      const AuditReport report = audit.audit(pi, out.outputs);
      const bool correct = delivery_matches(pi, out.outputs);
      ASSERT_EQ(report.ok, correct)
          << to_string(spec) << " " << pi.to_string()
          << ": audit and ground truth disagree";
    } while (pi.next_lexicographic());
  }
}

TEST(FaultCampaign, EverySingleFaultRoutesOrIsCaughtM3Random) {
  const unsigned m = 3;
  const CompiledBnb engine(m);
  const DeliveryAudit audit(m);
  RouteScratch scratch;
  Rng rng(0xFA0173);
  std::uint64_t excited = 0;
  const auto faults = FaultModel::all_single_faults(m);
  for (const FaultSpec& spec : faults) {
    FaultModel model(m);
    model.add(spec);
    const EngineFaults overlay = compile_engine_faults(model);
    for (int round = 0; round < 200; ++round) {
      const Permutation pi = random_perm(8, rng);
      const auto out = engine.route(pi, scratch, nullptr, &overlay);
      const AuditReport report = audit.audit(pi, out.outputs);
      ASSERT_EQ(report.ok, delivery_matches(pi, out.outputs))
          << to_string(spec) << " " << pi.to_string();
      if (!report.ok) ++excited;
    }
  }
  // The campaign is meaningless if nothing ever fires.
  EXPECT_GT(excited, faults.size());
}

// ---- DeliveryAudit taxonomy -------------------------------------------

TEST(DeliveryAudit, ClassifiesEachFailureKind) {
  const unsigned m = 3;
  const DeliveryAudit audit(m);
  const std::size_t n = 8;
  Rng rng(0xA0D17);
  const Permutation pi = random_perm(n, rng);

  // A clean delivery: line pi(j) holds {address pi(j), payload j}.
  std::vector<Word> clean(n);
  for (std::size_t j = 0; j < n; ++j) {
    clean[pi(j)] = Word{pi(j), std::uint64_t{j}};
  }
  {
    const AuditReport report = audit.audit(pi, clean);
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.errors, 0U);
    EXPECT_EQ(report.first_kind(), RouteErrorKind::kNone);
    EXPECT_EQ(DeliveryAudit::slice_checksum(clean), audit.expected_checksum());
  }
  {
    // Two words swapped whole: both lines are wrong destinations, the
    // checksum (order-independent) stays clean.
    auto bad = clean;
    std::swap(bad[0], bad[1]);
    const AuditReport report = audit.audit(pi, bad);
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.errors, 2U);
    EXPECT_EQ(report.first_kind(), RouteErrorKind::kWrongDestination);
  }
  {
    // Address damaged in transit (what a dead crosspoint does).
    auto bad = clean;
    bad[3].address ^= static_cast<std::uint32_t>(n - 1);
    const AuditReport report = audit.audit(pi, bad);
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.first_kind(), RouteErrorKind::kCorruptedAddress);
    // The aggregate checksum must notice the altered slice too.
    EXPECT_NE(DeliveryAudit::slice_checksum(bad), audit.expected_checksum());
    bool has_checksum_finding = false;
    for (const auto& f : report.findings) {
      has_checksum_finding |= f.kind == RouteErrorKind::kChecksumMismatch;
    }
    EXPECT_TRUE(has_checksum_finding);
  }
  {
    // One word duplicated over another: provenance scoreboard trips.
    auto bad = clean;
    bad[5] = bad[4];
    const AuditReport report = audit.audit(pi, bad);
    EXPECT_FALSE(report.ok);
    bool has_bijection_finding = false;
    for (const auto& f : report.findings) {
      has_bijection_finding |= f.kind == RouteErrorKind::kBrokenBijection;
    }
    EXPECT_TRUE(has_bijection_finding);
  }
  {
    // Garbage payload.
    auto bad = clean;
    bad[2].payload = n + 17;
    const AuditReport report = audit.audit(pi, bad);
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.first_kind(), RouteErrorKind::kPayloadMismatch);
  }
  {
    // A totally scrambled slice must not overflow the findings cap.
    std::vector<Word> bad(n, Word{0, 0});
    const AuditReport report = audit.audit(pi, bad);
    EXPECT_FALSE(report.ok);
    EXPECT_LE(report.findings.size(), DeliveryAudit::kMaxFindings);
    EXPECT_GE(report.errors, report.findings.size());
  }
}

/// The two-pass audit DeliveryAudit::audit made before it fused its
/// checksum into the per-word pass, kept as the reference it must match
/// finding for finding.
AuditReport reference_audit(const Permutation& pi, std::span<const Word> outputs) {
  const std::size_t n = outputs.size();
  AuditReport report;
  std::vector<std::uint8_t> seen(n, 0);
  auto flag = [&](RouteErrorKind kind, std::size_t line) {
    report.ok = false;
    ++report.errors;
    if (report.findings.size() < DeliveryAudit::kMaxFindings) {
      report.findings.push_back({kind, static_cast<std::uint32_t>(line),
                                 outputs[line].address, outputs[line].payload});
    }
  };
  for (std::size_t line = 0; line < n; ++line) {
    const Word& w = outputs[line];
    if (w.payload >= n) {
      flag(RouteErrorKind::kPayloadMismatch, line);
      continue;
    }
    const auto j = static_cast<std::size_t>(w.payload);
    if (seen[j] != 0) {
      flag(RouteErrorKind::kBrokenBijection, line);
      continue;
    }
    seen[j] = 1;
    const std::uint32_t requested = pi(j);
    if (w.address != requested) {
      flag(RouteErrorKind::kCorruptedAddress, line);
    } else if (line != requested) {
      flag(RouteErrorKind::kWrongDestination, line);
    }
  }
  // Second pass: the checksum of a clean slice (address == line, payloads
  // 0..N-1) computed from scratch, against the delivered slice's.
  std::vector<Word> clean(n);
  for (std::size_t j = 0; j < n; ++j) clean[j] = Word{static_cast<std::uint32_t>(j), j};
  if (DeliveryAudit::slice_checksum(outputs) != DeliveryAudit::slice_checksum(clean)) {
    report.ok = false;
    ++report.errors;
    if (report.findings.size() < DeliveryAudit::kMaxFindings) {
      report.findings.push_back({RouteErrorKind::kChecksumMismatch, 0, 0, 0});
    }
  }
  return report;
}

/// got must equal want finding for finding.
void expect_same_report(const AuditReport& got, const AuditReport& want,
                        const std::string& where) {
  ASSERT_EQ(got.ok, want.ok) << where;
  ASSERT_EQ(got.errors, want.errors) << where;
  ASSERT_EQ(got.findings.size(), want.findings.size()) << where;
  for (std::size_t f = 0; f < want.findings.size(); ++f) {
    ASSERT_EQ(got.findings[f].kind, want.findings[f].kind) << where << " f=" << f;
    ASSERT_EQ(got.findings[f].line, want.findings[f].line) << where << " f=" << f;
    ASSERT_EQ(got.findings[f].address, want.findings[f].address) << where << " f=" << f;
    ASSERT_EQ(got.findings[f].payload, want.findings[f].payload) << where << " f=" << f;
  }
}

/// A clean delivery of pi under the engine convention, then `corruptions`
/// seeded single corruptions on top of it.
std::vector<Word> corrupted_delivery(const Permutation& pi, int corruptions, Rng& rng) {
  const std::size_t n = pi.size();
  const unsigned m = static_cast<unsigned>(std::countr_zero(n));
  std::vector<Word> out(n);
  for (std::size_t j = 0; j < n; ++j) out[pi(j)] = Word{pi(j), std::uint64_t{j}};
  for (int c = 0; c < corruptions; ++c) {
    const std::size_t line = rng.below(n);
    const std::size_t other = rng.below(n);
    switch (rng.below(5)) {
      case 0:  // swapped lines
        std::swap(out[line], out[other]);
        break;
      case 1:  // a payload duplicated over another line
        out[line].payload = out[other].payload;
        break;
      case 2:  // payload >= N, from just past the end to huge
        out[line].payload = n + ((rng.next() >> 1) >> rng.below(63));
        break;
      case 3:  // a flipped address bit, inside or outside [0, N)
        out[line].address ^= 1U << rng.below(rng.flip() ? m : 32);
        break;
      default:  // address >= N
        out[line].address = static_cast<std::uint32_t>(n + rng.below(0x100000000ULL - n));
        break;
    }
  }
  return out;
}

TEST(DeliveryAudit, OnePassMatchesTheTwoPassReferenceOnSeededCorruptions) {
  // Every tier's audit (the clean-delivery proof, then the classifier when
  // it fails) against the reference, through the explicit-set constructor.
  Rng rng(0xA0D18);
  std::size_t dirty = 0;
  for (unsigned m = 1; m <= 14; ++m) {
    std::vector<DeliveryAudit> audits;
    for (const kernels::KernelSet* set : kernels::supported_kernel_sets()) {
      audits.emplace_back(m, set);
    }
    const std::size_t n = std::size_t{1} << m;
    for (int trial = 0; trial < 200; ++trial) {
      const Permutation pi = random_perm(n, rng);
      // 0..3 corruptions on a clean delivery; trial 0 stays clean, and
      // every 25th trial scrambles enough lines to hit the findings cap.
      const int corruptions = trial == 0 ? 0 : trial % 25 == 0 ? 40 : 1 + trial % 3;
      const std::vector<Word> out = corrupted_delivery(pi, corruptions, rng);
      const AuditReport want = reference_audit(pi, out);
      dirty += want.ok ? 0 : 1;
      for (std::size_t t = 0; t < audits.size(); ++t) {
        expect_same_report(audits[t].audit(pi, out), want,
                           std::string(kernels::supported_kernel_sets()[t]->name) +
                               " m=" + std::to_string(m) + " trial " + std::to_string(trial));
      }
    }
  }
  // The corruptions must actually exercise the failure paths.
  EXPECT_GT(dirty, 1500U);
}

TEST(DeliveryAudit, ConcurrentAuditsOnOneConstObjectMatchTheReference) {
  // audit() is const and must be reentrant: threads sharing one
  // DeliveryAudit over clean and corrupted deliveries each get exactly the
  // reference report (a shared scoreboard would let one thread's reset or
  // marks leak into another's classification).
  const unsigned m = 10;
  const std::size_t n = std::size_t{1} << m;
  const DeliveryAudit audit(m);
  Rng rng(0xA0D19);
  struct Case {
    Permutation pi;
    std::vector<Word> out;
    AuditReport want;
  };
  std::vector<Case> cases;
  for (int c = 0; c < 16; ++c) {
    Permutation pi = random_perm(n, rng);
    std::vector<Word> out = corrupted_delivery(pi, c % 2 == 0 ? 0 : 1 + c % 3, rng);
    AuditReport want = reference_audit(pi, out);
    cases.push_back({std::move(pi), std::move(out), std::move(want)});
  }
  constexpr int kThreads = 4;
  constexpr int kAuditsPerThread = 20000;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAuditsPerThread; ++i) {
        const Case& c = cases[static_cast<std::size_t>(i + t) % cases.size()];
        const AuditReport got = audit.audit(c.pi, c.out);
        bool same = got.ok == c.want.ok && got.errors == c.want.errors &&
                    got.findings.size() == c.want.findings.size();
        for (std::size_t f = 0; same && f < got.findings.size(); ++f) {
          same = got.findings[f].kind == c.want.findings[f].kind &&
                 got.findings[f].line == c.want.findings[f].line &&
                 got.findings[f].address == c.want.findings[f].address &&
                 got.findings[f].payload == c.want.findings[f].payload;
        }
        if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  std::size_t dirty = 0;
  for (const Case& c : cases) dirty += c.want.ok ? 0 : 1;
  EXPECT_GE(dirty, 6U) << "the corrupted cases must reach the classifier";
  EXPECT_EQ(mismatches.load(), 0) << "of " << kThreads * kAuditsPerThread << " audits";
}

// ---- Recovery ladder (RobustRouter.* = the robust-routing contract) ----
//
// These run on ResilientRouter with backoff accounted but never slept and
// a breaker that never trips, so every persistent primary failure is
// diagnosed and falls back to the audited spare plane.

ResilientPolicy ladder_policy(unsigned max_retries) {
  ResilientPolicy policy;
  policy.max_retries = max_retries;
  policy.sleep_on_backoff = false;
  policy.breaker.trip_threshold = std::numeric_limits<unsigned>::max();
  return policy;
}

std::uint64_t counter_value(const obs::MetricsRegistry& registry, const char* name) {
  const auto snap = registry.snapshot();
  const auto* metric = snap.find(name);
  return metric != nullptr ? metric->counter : 0;
}

TEST(RobustRouter, CleanFabricDeliversFirstTry) {
  obs::MetricsRegistry registry;
  ResilientRouter router(5, ladder_policy(1), nullptr, &registry);
  Rng rng(0xC1EA2);
  for (int round = 0; round < 10; ++round) {
    const Permutation pi = random_perm(32, rng);
    const ResilientReport report = router.route(pi);
    EXPECT_EQ(report.outcome, ResilientOutcome::kDelivered);
    EXPECT_EQ(report.attempts, 1U);
    ASSERT_EQ(report.dest.size(), 32U);
    for (std::size_t j = 0; j < 32; ++j) EXPECT_EQ(report.dest[j], pi(j));
  }
  EXPECT_EQ(counter_value(registry, "bnb_robust_routed_total"), 10U);
  EXPECT_EQ(counter_value(registry, "bnb_robust_misroutes_caught_total"), 0U);
}

TEST(RobustRouter, TransientFaultHealsByRetry) {
  // A one-attempt glitch window: the first attempt may misroute, the retry
  // runs on healed hardware — the ladder must end delivered either way.
  const unsigned m = 5;
  Rng rng(0x7E4A);
  std::uint64_t healed = 0;
  for (int round = 0; round < 40; ++round) {
    ResilientRouter router(m, ladder_policy(1));
    Rng campaign_rng(0x7E4A00 + round);
    FaultModel model(m);
    for (const auto& f : FaultModel::random_campaign(m, 2, campaign_rng)) {
      model.add(f);
    }
    router.inject_transient(model, 1);
    const Permutation pi = random_perm(32, rng);
    const ResilientReport report = router.route(pi);
    ASSERT_TRUE(report.delivered()) << "round " << round;
    ASSERT_EQ(report.dest.size(), 32U);
    for (std::size_t j = 0; j < 32; ++j) ASSERT_EQ(report.dest[j], pi(j));
    if (report.outcome == ResilientOutcome::kDeliveredAfterRetry) ++healed;
  }
  // With 40 random 2-fault glitches, some must actually have fired.
  EXPECT_GT(healed, 0U);
}

TEST(RobustRouter, PersistentFaultFallsBackToSparePlane) {
  const unsigned m = 6;
  ResilientRouter router(m, ladder_policy(1));
  FaultModel model(m);
  // A link flip into the first splitter's slice: fires on essentially
  // every permutation.
  model.add({FaultKind::kLinkFlip, {0, 0, 0, 0}, false, 0, 0});
  router.inject(model);
  Rng rng(0xFA11BAC);
  std::uint64_t fallbacks = 0;
  for (int round = 0; round < 20; ++round) {
    const Permutation pi = random_perm(64, rng);
    const ResilientReport report = router.route(pi);
    ASSERT_TRUE(report.delivered());
    for (std::size_t j = 0; j < 64; ++j) ASSERT_EQ(report.dest[j], pi(j));
    if (report.outcome == ResilientOutcome::kDeliveredByFallback) {
      ++fallbacks;
      EXPECT_TRUE(report.diagnosis.located);
    }
  }
  EXPECT_GT(fallbacks, 0U);
  // Every persistent failure fell back; none was served degraded.
  EXPECT_EQ(router.stats().degraded, 0U);
  // Clearing the faults restores the primary path.
  router.clear_faults();
  const Permutation pi = random_perm(64, rng);
  EXPECT_EQ(router.route(pi).outcome, ResilientOutcome::kDelivered);
}

TEST(RobustRouter, DiagnosisLocatesStuckControls) {
  // For persistent stuck-control faults the binary search must name the
  // exact paper coordinates of the broken switch's column and splitter.
  const unsigned m = 6;
  Rng rng(0xD1A6);
  int diagnosed = 0;
  for (const FaultSpec base : {
           FaultSpec{FaultKind::kStuckControl, {0, 0, 0, 5}, false, 0, 0},
           FaultSpec{FaultKind::kStuckControl, {0, 2, 1, 3}, false, 0, 0},
           FaultSpec{FaultKind::kStuckControl, {2, 1, 5, 1}, false, 0, 0},
           FaultSpec{FaultKind::kStuckControl, {4, 0, 13, 1}, false, 0, 0},
           FaultSpec{FaultKind::kStuckControl, {5, 0, 17, 0}, false, 0, 0},
       }) {
    for (const bool value : {false, true}) {
      FaultSpec spec = base;
      spec.value = value;
      ResilientRouter router(m, ladder_policy(0));
      FaultModel model(m);
      model.add(spec);
      router.inject(model);
      for (int round = 0; round < 10; ++round) {
        const Permutation pi = random_perm(64, rng);
        const ResilientReport report = router.route(pi);
        ASSERT_TRUE(report.delivered());
        for (std::size_t j = 0; j < 64; ++j) ASSERT_EQ(report.dest[j], pi(j));
        // Stuck at the naturally computed value: benign for this perm.
        if (report.outcome == ResilientOutcome::kDelivered) continue;
        const Diagnosis diagnosis = router.diagnose(pi);
        ASSERT_TRUE(diagnosis.located) << to_string(spec);
        EXPECT_EQ(diagnosis.main_stage, spec.at.main_stage) << to_string(spec);
        EXPECT_EQ(diagnosis.nested_stage, spec.at.nested_column) << to_string(spec);
        EXPECT_EQ(diagnosis.splitter, spec.at.splitter) << to_string(spec);
        ++diagnosed;
      }
    }
  }
  EXPECT_GT(diagnosed, 0);
}

TEST(RobustRouter, MultiFaultCampaignNeverSilentlyMisroutes) {
  // Randomized multi-fault campaigns at m = 8 and m = 10: whatever the
  // damage, every route ends delivered with a verified mapping, and every
  // second campaign requires each primary failure to name the faulty
  // component.  Silent misroutes — delivered() with a wrong mapping — are
  // the one forbidden outcome.
  for (const unsigned m : {8U, 10U}) {
    const std::size_t n = std::size_t{1} << m;
    Rng rng(0xCA4BA16 + m);
    for (int campaign = 0; campaign < 6; ++campaign) {
      const bool check_diagnosis = campaign % 2 == 1;
      ResilientRouter router(m, ladder_policy(1));
      FaultModel model(m);
      Rng campaign_rng(0xF00D + 97 * campaign + m);
      const std::size_t count = 1 + campaign_rng.below(3);
      for (const auto& f : FaultModel::random_campaign(m, count, campaign_rng)) {
        model.add(f);
      }
      router.inject(model);
      for (int round = 0; round < 6; ++round) {
        const Permutation pi = random_perm(n, rng);
        const ResilientReport report = router.route(pi);
        ASSERT_TRUE(report.delivered()) << "clean spare plane can never fail, m=" << m;
        ASSERT_EQ(report.dest.size(), n);
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(report.dest[j], pi(j))
              << "SILENT MISROUTE m=" << m << " campaign " << campaign;
        }
        if (!check_diagnosis || report.outcome == ResilientOutcome::kDelivered) continue;
        const Diagnosis diagnosis = router.diagnose(pi);
        ASSERT_TRUE(diagnosis.located) << "a primary failure must name a component, m=" << m;
        EXPECT_LT(diagnosis.column, router.engine().columns().size());
      }
    }
  }
}

TEST(RobustRouter, SingleStuckFaultsAtM10AreNeverSilent) {
  // Any single stuck-at fault at m <= 10 must never produce a silent
  // misroute, and every second trial requires each primary failure to be
  // diagnosed.
  const unsigned m = 10;
  const std::size_t n = std::size_t{1} << m;
  Rng rng(0x57C4);
  Rng fault_rng(0x57C5);
  for (int trial = 0; trial < 24; ++trial) {
    const bool check_diagnosis = trial % 2 == 1;
    ResilientRouter router(m, ladder_policy(0));
    FaultModel model(m);
    // Constrain the random campaign to stuck-at faults only.
    for (;;) {
      const auto sample = FaultModel::random_campaign(m, 1, fault_rng);
      if (sample[0].kind == FaultKind::kStuckControl ||
          sample[0].kind == FaultKind::kStuckFlag) {
        model.add(sample[0]);
        break;
      }
    }
    router.inject(model);
    for (int round = 0; round < 4; ++round) {
      const Permutation pi = random_perm(n, rng);
      const ResilientReport report = router.route(pi);
      ASSERT_TRUE(report.delivered());
      for (std::size_t j = 0; j < n; ++j) ASSERT_EQ(report.dest[j], pi(j));
      if (check_diagnosis && report.outcome != ResilientOutcome::kDelivered) {
        ASSERT_TRUE(router.diagnose(pi).located);
      }
    }
  }
}

// ---- Batch + staged/pipelined integration -----------------------------

TEST(FaultInjection, BatchRoutingSeesTheOverlay) {
  const unsigned m = 5;
  const CompiledBnb engine(m);
  Rng rng(0xBA7C4);
  std::vector<Permutation> perms;
  for (int i = 0; i < 12; ++i) perms.push_back(random_perm(32, rng));

  const auto clean = engine.route_batch(perms, 2);
  EXPECT_TRUE(clean.all_self_routed);

  FaultModel model(m);
  model.add({FaultKind::kLinkFlip, {0, 0, 0, 0}, false, 0, 0});
  const EngineFaults overlay = compile_engine_faults(model);
  const auto faulty = engine.route_batch(perms, 2, &overlay);
  EXPECT_FALSE(faulty.all_self_routed);
}

TEST(PipelinedFabric, TransientInjectionWindowSelfHeals) {
  // Damage the streaming fabric for the first cycles only; with retries,
  // the stream must end all_delivered with the damage visible in the
  // fault-aware counters.
  const unsigned m = 4;
  const PipelinedFabric fabric(PipelinedFabric::Kind::kBnb, m);
  Rng rng(0x51EA3);
  std::vector<Permutation> perms;
  for (int i = 0; i < 24; ++i) perms.push_back(random_perm(16, rng));

  const auto clean = fabric.run_stream(perms);
  EXPECT_TRUE(clean.all_delivered);
  EXPECT_EQ(clean.misroutes_caught, 0U);
  EXPECT_EQ(clean.degraded_cycles, 0U);
  EXPECT_EQ(clean.words_delivered, perms.size() * 16U);

  FaultModel model(m);
  model.add({FaultKind::kLinkFlip, {0, 0, 0, 0}, false, 0, 0});
  PipelinedFabric::InjectionWindow window;
  window.faults = compile_engine_faults(model);
  window.until_cycle = 8;
  const auto healed = fabric.run_stream(perms, &window, /*max_retries=*/4);
  EXPECT_EQ(healed.degraded_cycles, 8U);
  EXPECT_GT(healed.misroutes_caught, 0U);
  EXPECT_EQ(healed.retries, healed.misroutes_caught);
  EXPECT_EQ(healed.failed_permutations, 0U);
  EXPECT_TRUE(healed.all_delivered);
  EXPECT_EQ(healed.words_delivered, perms.size() * 16U);
  EXPECT_GT(healed.cycles, clean.cycles);  // reissues lengthen the stream
}

TEST(PipelinedFabric, PermanentFaultWithoutRetriesIsCountedNotHidden) {
  const unsigned m = 4;
  const PipelinedFabric fabric(PipelinedFabric::Kind::kBnb, m);
  Rng rng(0x51EA4);
  std::vector<Permutation> perms;
  for (int i = 0; i < 10; ++i) perms.push_back(random_perm(16, rng));

  FaultModel model(m);
  model.add({FaultKind::kLinkFlip, {0, 0, 0, 1}, false, 0, 0});
  PipelinedFabric::InjectionWindow window;
  window.faults = compile_engine_faults(model);  // never expires
  const auto stats = fabric.run_stream(perms, &window, /*max_retries=*/0);
  EXPECT_EQ(stats.degraded_cycles, stats.cycles);
  EXPECT_GT(stats.misroutes_caught, 0U);
  EXPECT_EQ(stats.retries, 0U);
  EXPECT_EQ(stats.failed_permutations, stats.misroutes_caught);
  EXPECT_FALSE(stats.all_delivered);
}

}  // namespace
}  // namespace bnb
