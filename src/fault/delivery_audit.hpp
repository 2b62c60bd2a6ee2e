// DeliveryAudit — did the fabric actually deliver what was asked?
//
// The self-routing theorem guarantees delivery only for a HEALTHY network;
// a robust system re-checks every delivery instead of trusting the
// hardware.  The audit verifies, per word, that (1) its address survived
// transit, (2) it rests on the line its requested destination names, (3)
// its payload provenance is intact, and that the slice as a whole is still
// a bijection with the expected checksum.
//
// It runs in two tiers over the same words:
//   proof       one vectorised pass (KernelSet::delivery_clean): every line
//               has payload < N, address == line and pi(payload) == line.
//               Thm. 2 makes this the common case, and when it holds the
//               exact classifier provably returns a clean report (the
//               argument is at DeliveryAudit::audit), so the proof's "yes"
//               IS that report;
//   classifier  the exact one-pass audit, run only when the proof fails: it
//               sums the slice checksum in the same pass (the constructor
//               tabulates the per-index address and payload mixes, 16 B x
//               N) and classifies every failure into the RouteErrorKind
//               taxonomy so the ResilientRouter can tell transient misroutes
//               (retry) from structural damage (fall back, diagnose).
// The report is bit-identical to the classifier's alone for every input.
// audit() keeps no mutable state, so one const DeliveryAudit may audit
// from many threads at once.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/bnb_network.hpp"  // Word
#include "core/kernels/kernel_set.hpp"
#include "perm/permutation.hpp"

namespace bnb {

enum class RouteErrorKind : std::uint8_t {
  kNone = 0,
  kCorruptedAddress,   ///< delivered address != the address the word entered with
  kWrongDestination,   ///< word rests on a line other than its requested one
  kPayloadMismatch,    ///< payload provenance is not a valid input index
  kBrokenBijection,    ///< some input word was duplicated or lost in transit
  kChecksumMismatch,   ///< aggregate slice checksum off (catches what the
                       ///< per-word checks cannot see individually)
};

[[nodiscard]] const char* to_string(RouteErrorKind kind) noexcept;

/// One classified audit failure, anchored at an output line.
struct AuditFinding {
  RouteErrorKind kind = RouteErrorKind::kNone;
  std::uint32_t line = 0;      ///< output line of the offending word
  std::uint32_t address = 0;   ///< address the word was delivered with
  std::uint64_t payload = 0;   ///< payload the word was delivered with
};

struct AuditReport {
  bool ok = true;
  std::size_t errors = 0;  ///< total failed checks (findings are capped)
  std::vector<AuditFinding> findings;

  /// The dominant failure class (first finding), kNone when clean.
  [[nodiscard]] RouteErrorKind first_kind() const noexcept {
    return findings.empty() ? RouteErrorKind::kNone : findings.front().kind;
  }
};

class DeliveryAudit {
 public:
  /// Findings beyond this cap are counted in errors but not stored — a
  /// badly broken fabric fails every line and the report must stay small.
  static constexpr std::size_t kMaxFindings = 16;

  /// Audit deliveries of an N = 2^m network.  Requires 1 <= m < 26.  The
  /// clean-delivery proof runs on `kernels`; nullptr (the default) binds
  /// kernels::active_kernels(), as CompiledBnb does.  An explicit set pins
  /// a tier for testing or comparison.
  explicit DeliveryAudit(unsigned m, const kernels::KernelSet* kernels = nullptr);

  [[nodiscard]] unsigned m() const noexcept { return m_; }
  [[nodiscard]] std::size_t inputs() const noexcept { return std::size_t{1} << m_; }

  /// Audit the delivery of `pi` under the engine convention "input j
  /// carried address pi(j) and payload j": outputs[line] is the word
  /// delivered at each output line.  Every delivered word is read: by the
  /// clean-delivery proof, and when that fails by the one-pass classifier
  /// (every check, the checksum over every word included).  Allocation-free
  /// when clean; reentrant.
  [[nodiscard]] AuditReport audit(const Permutation& pi,
                                  std::span<const Word> outputs) const;

  /// Order-independent checksum of a word slice (addresses and payloads);
  /// equal slices => equal checksums, and the expected value of a clean
  /// delivery is expected_checksum().  Cheap enough to run per delivery.
  [[nodiscard]] static std::uint64_t slice_checksum(std::span<const Word> words);

  /// slice_checksum of any clean delivery of this shape (address == line,
  /// payloads a bijection of 0..N-1).
  [[nodiscard]] std::uint64_t expected_checksum() const noexcept {
    return expected_checksum_;
  }

 private:
  /// The exact one-pass audit behind a failed proof.
  [[nodiscard]] AuditReport classify(const Permutation& pi,
                                     std::span<const Word> outputs) const;

  unsigned m_;
  const kernels::KernelSet* ks_;  ///< bound at construction, never null
  std::uint64_t expected_checksum_;
  std::vector<std::uint64_t> address_mix_;  ///< address_mix_[a] = mix of address a < N
  std::vector<std::uint64_t> payload_mix_;  ///< payload_mix_[p] = mix of payload p < N
};

}  // namespace bnb
