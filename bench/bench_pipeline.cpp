// Pipelined-operation study (extension beyond the paper's combinational
// analysis): registers between switch columns let a new permutation enter
// every cycle.  Compares BNB and Batcher fabrics on
//
//   * pipeline depth (columns) — identical, m(m+1)/2, by construction;
//   * cycle time — the worst register-to-register column: BNB's big first
//     arbiter (2m D_FN) vs Batcher's uniform comparator (m D_FN);
//   * end-to-end combinational latency (the paper's Table 2 metric);
//   * audited functional throughput over a 200-permutation stream.
//
// The interesting outcome: column-registered, Batcher's uniform columns
// clock FASTER, while the BNB wins the unpipelined combinational race —
// the paper's claims concern the latter, and finer-grained pipelining of
// the arbiter tree would be needed to carry the BNB's edge into cycle time.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/complexity.hpp"
#include "core/compiled_bnb.hpp"
#include "fabric/pipeline.hpp"
#include "perm/generators.hpp"

namespace {

using bnb::TablePrinter;

void timing_comparison() {
  std::puts("== Column-pipelined timing (D_SW = D_FN = 1) ==");
  TablePrinter t({"N", "depth (cols)", "BNB cycle", "Batcher cycle",
                  "BNB comb. latency", "Batcher comb. latency"});
  for (unsigned m = 3; m <= 12; ++m) {
    const std::uint64_t N = bnb::pow2(m);
    const bnb::PipelinedFabric bnb_fab(bnb::PipelinedFabric::Kind::kBnb, m);
    const bnb::PipelinedFabric bat_fab(bnb::PipelinedFabric::Kind::kBatcher, m);
    t.add_row({TablePrinter::num(N), TablePrinter::num(std::uint64_t{bnb_fab.depth_columns()}),
               TablePrinter::num(bnb_fab.cycle_time().evaluate(1.0, 1.0), 0),
               TablePrinter::num(bat_fab.cycle_time().evaluate(1.0, 1.0), 0),
               TablePrinter::num(bnb::model::bnb_delay(N).evaluate(), 0),
               TablePrinter::num(bnb::model::batcher_delay(N).evaluate(), 0)});
  }
  t.print();
}

void functional_stream() {
  std::puts("\n== Audited 200-permutation streams ==");
  TablePrinter t({"N", "fabric", "cycles", "words delivered", "audit",
                  "time/permutation"});
  bnb::Rng rng(909);
  for (const unsigned m : {4U, 6U, 8U}) {
    const std::size_t n = bnb::pow2(m);
    std::vector<bnb::Permutation> stream;
    stream.reserve(200);
    for (int i = 0; i < 200; ++i) stream.push_back(bnb::random_perm(n, rng));

    for (const auto kind : {bnb::PipelinedFabric::Kind::kBnb,
                            bnb::PipelinedFabric::Kind::kBatcher}) {
      const bnb::PipelinedFabric fabric(kind, m);
      const auto stats = fabric.run_stream(stream);
      t.add_row({TablePrinter::num(static_cast<std::uint64_t>(n)),
                 kind == bnb::PipelinedFabric::Kind::kBnb ? "BNB" : "Batcher",
                 TablePrinter::num(stats.cycles),
                 TablePrinter::num(stats.words_delivered),
                 stats.all_delivered ? "ok" : "FAIL",
                 TablePrinter::num(stats.time_per_permutation, 1)});
    }
  }
  t.print();
  std::puts("(time/permutation = cycle_time * cycles / permutations; for long");
  std::puts(" streams it converges to one cycle time per permutation)");
}

void software_engine_stream() {
  // The same 200-permutation streams through the compiled software engine
  // (CompiledBnb::route_batch) — wall-clock rather than model cycles, as a
  // reference point for users of the library as a software router.
  std::puts("\n== Same streams through the compiled software engine (wall clock) ==");
  // One route_batch call (thread spawn and first scratch sizing included)
  // swings about 2x from run to run, so each row is the median of kCalls
  // calls, with the min-max spread beside it.
  constexpr std::size_t kCalls = 7;
  TablePrinter t({"N", "threads", "audit", "us/permutation (median)", "min-max"});
  bnb::Rng rng(909);
  for (const unsigned m : {4U, 6U, 8U}) {
    const std::size_t n = bnb::pow2(m);
    std::vector<bnb::Permutation> stream;
    stream.reserve(200);
    for (int i = 0; i < 200; ++i) stream.push_back(bnb::random_perm(n, rng));
    const bnb::CompiledBnb engine(m);
    for (const unsigned threads : {1U, 4U}) {
      std::vector<double> us(kCalls);
      bool ok = true;
      for (double& call_us : us) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto batch = engine.route_batch(stream, threads);
        call_us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - t0)
                      .count() /
                  static_cast<double>(stream.size());
        ok = ok && batch.all_self_routed;
      }
      std::sort(us.begin(), us.end());
      t.add_row({TablePrinter::num(static_cast<std::uint64_t>(n)),
                 TablePrinter::num(std::uint64_t{threads}), ok ? "ok" : "FAIL",
                 TablePrinter::num(us[kCalls / 2], 2),
                 TablePrinter::num(us.front(), 2) + "-" + TablePrinter::num(us.back(), 2)});
    }
  }
  t.print();
}

}  // namespace

int main() {
  std::puts("BNB network -- pipelined fabric study (extension)\n");
  timing_comparison();
  functional_stream();
  software_engine_stream();
  return 0;
}
