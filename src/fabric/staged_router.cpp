#include "fabric/staged_router.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "common/math_util.hpp"
#include "core/arbiter.hpp"
#include "core/bit_pack.hpp"

namespace bnb {

StagedBnbRouter::StagedBnbRouter(unsigned m) : m_(m), plan_(m) {
  BNB_EXPECTS(m >= 1 && m < 22);
}

sim::DelayUnits StagedBnbRouter::column_delay(unsigned column) const {
  BNB_EXPECTS(column < total_columns());
  const unsigned p = plan_.columns()[column].p;
  return sim::DelayUnits{1, Arbiter::delay_fn_units(p), 0};
}

sim::DelayUnits StagedBnbRouter::max_column_delay() const {
  sim::DelayUnits worst{};
  for (unsigned c = 0; c < total_columns(); ++c) {
    const auto d = column_delay(c);
    if (d.evaluate(1.0, 1.0) > worst.evaluate(1.0, 1.0)) worst = d;
  }
  return worst;
}

StagedJob StagedBnbRouter::start(std::span<const Word> words, std::uint64_t tag) const {
  BNB_EXPECTS(words.size() == inputs());
  StagedJob job;
  job.lines.assign(words.begin(), words.end());
  job.tag = tag;
  job.spare.resize(inputs());
  job.bits.resize(bitpack::words_for(inputs()));
  job.ctl.resize(plan_.control_words());
  job.work.resize(plan_.work_words());
  return job;
}

void StagedBnbRouter::step(StagedJob& job, const EngineFaults* faults) const {
  BNB_EXPECTS(!finished(job));
  BNB_EXPECTS(job.lines.size() == inputs());
  if (faults != nullptr && !faults->empty()) {
    BNB_EXPECTS(faults->columns.size() == plan_.columns().size());
  }
  const CompiledBnb::Column& col = plan_.columns()[job.column];
  const std::size_t n = inputs();

  // Jobs may be built by hand (the pipelined fabric does); size the
  // per-job scratch on first use, after which stepping is allocation-free.
  if (job.spare.size() != n) {
    job.spare.resize(n);
    job.bits.resize(bitpack::words_for(n));
    job.ctl.resize(plan_.control_words());
    job.work.resize(plan_.work_words());
  }

  if (col.nested_stage == 0) {
    // Entering a new main stage: pack its address bit for every line.  The
    // later columns of the stage reuse the bits advanced by the plan.
    const unsigned addr_bit = m_ - 1 - col.main_stage;
    const std::size_t words = bitpack::words_for(n);
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t lo = w * 64;
      const std::size_t hi = std::min(n, lo + 64);
      std::uint64_t packed = 0;
      for (std::size_t t = lo; t < hi; ++t) {
        packed |= static_cast<std::uint64_t>(
                      bit_of(job.lines[t].address, addr_bit))
                  << (t - lo);
      }
      job.bits[w] = packed;
    }
  }

  // One column of the compiled plan: packed arbiters decide the switch
  // settings; the words follow them through the column's wiring.
  const ColumnFaultMasks* fcol =
      faults != nullptr ? faults->column(job.column) : nullptr;
  plan_.column_controls(job.column, job.bits.data(), job.ctl.data(),
                        job.work.data(), fcol);
  if (fcol != nullptr && !fcol->dead.empty()) {
    const std::uint32_t poison =
        static_cast<std::uint32_t>(dead_crosspoint_poison(n));
    plan_.visit_dead_crosspoint_hits(*fcol, job.ctl.data(), [&](std::size_t line) {
      job.lines[line].address ^= poison;
    });
  }
  apply_column_to_lines<Word>(job.ctl.data(), {job.lines.data(), n},
                              {job.spare.data(), n}, col.group);
  job.lines.swap(job.spare);
  ++job.column;
}

std::vector<Word> StagedBnbRouter::run_to_completion(std::span<const Word> words) const {
  StagedJob job = start(words);
  while (!finished(job)) step(job);
  return std::move(job.lines);
}

StagedBatcherRouter::StagedBatcherRouter(unsigned m) : net_(m) {}

sim::DelayUnits StagedBatcherRouter::column_delay(unsigned column) const {
  BNB_EXPECTS(column < total_columns());
  return sim::DelayUnits{1, net_.m(), 0};
}

sim::DelayUnits StagedBatcherRouter::max_column_delay() const {
  return column_delay(0);
}

StagedJob StagedBatcherRouter::start(std::span<const Word> words,
                                     std::uint64_t tag) const {
  BNB_EXPECTS(words.size() == inputs());
  StagedJob job;
  job.lines.assign(words.begin(), words.end());
  job.tag = tag;
  return job;
}

void StagedBatcherRouter::step(StagedJob& job) const {
  BNB_EXPECTS(!finished(job));
  for (const auto& c : net_.stages()[job.column]) {
    if (job.lines[c.low].address > job.lines[c.high].address) {
      std::swap(job.lines[c.low], job.lines[c.high]);
    }
  }
  ++job.column;
}

}  // namespace bnb
