// Column-steppable routers — the substrate for pipelined operation.
//
// A combinational network routes one permutation and then idles; a real
// switching system inserts registers between switch columns so a NEW
// permutation can enter every cycle while earlier ones are still in
// flight.  These routers expose that column granularity: start() captures
// the words at the inputs, step() advances exactly one hardware column
// (including the wiring after it), finished() says when the words are at
// the outputs.  Jobs are independent state blobs, so a pipeline can hold
// one job per column simultaneously (fabric/pipeline.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "baselines/batcher.hpp"
#include "core/bnb_network.hpp"  // Word
#include "core/compiled_bnb.hpp"
#include "sim/delay_graph.hpp"

namespace bnb {

/// One in-flight permutation: its line contents and its progress.  The
/// packed-bit buffers are the job's private workspace (sized by start()),
/// so stepping a job never allocates and jobs stay independent state blobs.
struct StagedJob {
  std::vector<Word> lines;
  unsigned column = 0;
  std::uint64_t tag = 0;  ///< caller-assigned id (e.g. issue cycle)

  std::vector<Word> spare;            ///< double buffer for lines
  std::vector<std::uint64_t> bits;    ///< packed address bit per line
  std::vector<std::uint64_t> ctl;     ///< packed controls of one column
  std::vector<std::uint64_t> work;    ///< arbiter workspace
};

/// Column-steppable BNB network.  Columns enumerate the m(m+1)/2 splitter
/// columns in signal order: main stage 0's BSN columns first, and so on.
/// Routing decisions are made by the shared CompiledBnb plan: step()
/// evaluates one column's packed arbiters and applies the resulting switch
/// controls (plus the following wiring) to the job's words.
class StagedBnbRouter {
 public:
  explicit StagedBnbRouter(unsigned m);

  [[nodiscard]] unsigned m() const noexcept { return m_; }
  [[nodiscard]] std::size_t inputs() const noexcept { return std::size_t{1} << m_; }
  [[nodiscard]] unsigned total_columns() const noexcept {
    return static_cast<unsigned>(plan_.columns().size());
  }
  [[nodiscard]] const CompiledBnb& plan() const noexcept { return plan_; }

  /// Per-column settle time (register-to-register) under unit delays: the
  /// column's arbiter (2p D_FN) plus its switch (1 D_SW).
  [[nodiscard]] sim::DelayUnits column_delay(unsigned column) const;

  /// Worst column — the pipeline's cycle time when registered per column.
  [[nodiscard]] sim::DelayUnits max_column_delay() const;

  [[nodiscard]] StagedJob start(std::span<const Word> words,
                                std::uint64_t tag = 0) const;
  /// Advance one column.  A non-null `faults` overlays injected hardware
  /// faults on the column being stepped (same masks the compiled engine
  /// applies in route(); dead crosspoints corrupt the job's words) — the
  /// pipelined fabric uses it to damage in-flight traffic mid-stream.
  void step(StagedJob& job, const EngineFaults* faults = nullptr) const;
  [[nodiscard]] bool finished(const StagedJob& job) const {
    return job.column >= total_columns();
  }

  /// Convenience: run a job to completion (equals BnbNetwork::route_words).
  [[nodiscard]] std::vector<Word> run_to_completion(std::span<const Word> words) const;

 private:
  unsigned m_;
  CompiledBnb plan_;
};

/// Column-steppable Batcher network (one comparator stage per column).
class StagedBatcherRouter {
 public:
  explicit StagedBatcherRouter(unsigned m);

  [[nodiscard]] std::size_t inputs() const noexcept { return net_.inputs(); }
  [[nodiscard]] unsigned total_columns() const noexcept {
    return static_cast<unsigned>(net_.depth());
  }

  /// Every Batcher column costs log N D_FN (the comparison) + 1 D_SW.
  [[nodiscard]] sim::DelayUnits column_delay(unsigned column) const;
  [[nodiscard]] sim::DelayUnits max_column_delay() const;

  [[nodiscard]] StagedJob start(std::span<const Word> words,
                                std::uint64_t tag = 0) const;
  void step(StagedJob& job) const;
  [[nodiscard]] bool finished(const StagedJob& job) const {
    return job.column >= total_columns();
  }

 private:
  BatcherNetwork net_;
};

}  // namespace bnb
