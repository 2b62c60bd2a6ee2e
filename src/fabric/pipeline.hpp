// Pipelined fabric operation: a new permutation every cycle.
//
// With registers between switch columns, the fabric holds one in-flight
// permutation per column: latency is the column count, throughput is one
// full N-word permutation per cycle, and the cycle time is the slowest
// register-to-register column.  This module simulates that overlapped
// operation functionally (every in-flight job advances each cycle; each
// delivery is audited word-by-word) and reports the timing economics —
// where the BNB's short one-gate decision nodes pay off against Batcher's
// log N-bit comparators even though both have m(m+1)/2 columns.
#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "fabric/staged_router.hpp"
#include "perm/permutation.hpp"

namespace bnb {

class PipelinedFabric {
 public:
  enum class Kind { kBnb, kBatcher };

  PipelinedFabric(Kind kind, unsigned m);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t inputs() const;
  [[nodiscard]] unsigned depth_columns() const;

  /// Worst register-to-register column delay = pipeline cycle time.
  [[nodiscard]] sim::DelayUnits cycle_time() const;

  struct StreamStats {
    std::uint64_t permutations = 0;
    std::uint64_t words_delivered = 0; ///< words of audit-clean deliveries
    std::uint64_t cycles = 0;          ///< total cycles to drain the stream
    unsigned latency_columns = 0;      ///< cycles from issue to delivery
    double cycle_time_units = 0.0;     ///< cycle time at D_SW = D_FN = 1
    double time_per_permutation = 0.0; ///< amortized, in delay units
    bool all_delivered = false;        ///< every permutation delivered clean
                                       ///< (possibly after retries)
    // Fault-aware accounting (all zero on a clean run):
    std::uint64_t misroutes_caught = 0;    ///< retired jobs failing the audit
    std::uint64_t retries = 0;             ///< permutations reissued
    std::uint64_t degraded_cycles = 0;     ///< cycles routed with live faults
    std::uint64_t degraded_transitions = 0; ///< healthy->degraded mode flips
    std::uint64_t failed_permutations = 0; ///< misrouted with retries exhausted
  };

  /// A burst of hardware faults on the streaming fabric: `faults` overlays
  /// every in-flight column while cycle < until_cycle (the default never
  /// expires — a permanent fault).  BNB fabrics only.
  struct InjectionWindow {
    EngineFaults faults;
    std::uint64_t until_cycle = ~std::uint64_t{0};
  };

  /// Issue one permutation per cycle, step all in-flight jobs each cycle,
  /// audit every delivery (addresses AND payload provenance).  Every BNB
  /// column sets its switches with its own arbiters as the job crosses it
  /// (StagedBnbRouter::step); cycles and timing come from the netlist
  /// delays alone.
  ///
  /// A non-null `inject` damages the fabric for the window's cycles
  /// (requires Kind::kBnb).  A delivery that fails the audit is counted in
  /// misroutes_caught and its permutation reissued up to `max_retries`
  /// times; a permutation still misrouted after that counts in
  /// failed_permutations and clears all_delivered.  A transient burst
  /// (until_cycle past) with enough retries therefore self-heals: the
  /// stream ends all_delivered with nonzero misroutes_caught/retries.
  [[nodiscard]] StreamStats run_stream(std::span<const Permutation> perms,
                                       const InjectionWindow* inject = nullptr,
                                       unsigned max_retries = 0) const;

 private:
  Kind kind_;
  std::variant<StagedBnbRouter, StagedBatcherRouter> router_;
};

}  // namespace bnb
