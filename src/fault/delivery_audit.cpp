#include "fault/delivery_audit.hpp"

#include "common/expect.hpp"
#include "common/rng.hpp"

namespace bnb {

namespace {

// Mix address and payload through independent SplitMix64 streams and SUM
// over the slice: order-independent, and — because the two components are
// summed separately — the clean-delivery value depends only on N, not on
// which permutation was routed (addresses and payloads are each exactly
// 0..N-1 then).
std::uint64_t mix_address(std::uint32_t a) {
  return SplitMix64(0xADD2E55ULL ^ a).next();
}
std::uint64_t mix_payload(std::uint64_t p) {
  return SplitMix64(0x9E3779B97F4A7C15ULL ^ p).next();
}

}  // namespace

const char* to_string(RouteErrorKind kind) noexcept {
  switch (kind) {
    case RouteErrorKind::kNone: return "none";
    case RouteErrorKind::kCorruptedAddress: return "corrupted-address";
    case RouteErrorKind::kWrongDestination: return "wrong-destination";
    case RouteErrorKind::kPayloadMismatch: return "payload-mismatch";
    case RouteErrorKind::kBrokenBijection: return "broken-bijection";
    case RouteErrorKind::kChecksumMismatch: return "checksum-mismatch";
  }
  return "?";
}

DeliveryAudit::DeliveryAudit(unsigned m, const kernels::KernelSet* kernels)
    : m_(m),
      ks_(kernels != nullptr ? kernels : &kernels::active_kernels()),
      expected_checksum_(0) {
  BNB_EXPECTS(m >= 1 && m < 26);
  const std::size_t n = inputs();
  address_mix_.resize(n);
  payload_mix_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    address_mix_[j] = mix_address(static_cast<std::uint32_t>(j));
    payload_mix_[j] = mix_payload(j);
    expected_checksum_ += address_mix_[j] + payload_mix_[j];
  }
}

std::uint64_t DeliveryAudit::slice_checksum(std::span<const Word> words) {
  std::uint64_t sum = 0;
  for (const Word& w : words) sum += mix_address(w.address) + mix_payload(w.payload);
  return sum;
}

AuditReport DeliveryAudit::audit(const Permutation& pi,
                                 std::span<const Word> outputs) const {
  const std::size_t n = inputs();
  BNB_EXPECTS(pi.size() == n && outputs.size() == n);
  // Why the proof's "yes" is exactly the classifier's clean report.  Say
  // every line holds payload p < N, address == line and pi(p) == line.
  //  - pi is a bijection, so p = pi^-1(line): the payloads are distinct,
  //    and no line trips kPayloadMismatch or kBrokenBijection.
  //  - requested = pi(p) == line == address: no kCorruptedAddress and no
  //    kWrongDestination.
  //  - The addresses are then exactly 0..N-1 (one per line) and the
  //    payloads a permutation of 0..N-1, so the order-independent checksum
  //    sums every address mix and every payload mix once: it equals
  //    expected_checksum(), and no kChecksumMismatch either.
  // So the classifier would return AuditReport{}.  When the proof fails
  // the unchanged classifier runs and reports its findings in its order.
  if (ks_->delivery_clean(pi.image().data(), outputs.data(), n)) return AuditReport{};
  return classify(pi, outputs);
}

AuditReport DeliveryAudit::classify(const Permutation& pi,
                                    std::span<const Word> outputs) const {
  const std::size_t n = inputs();
  AuditReport report;
  // The input-index scoreboard is local: the failure path may allocate,
  // and audit() stays reentrant.
  std::vector<std::uint8_t> seen(n, 0);
  const std::uint32_t* requested_of = pi.image().data();
  const std::uint64_t* address_mix = address_mix_.data();
  const std::uint64_t* payload_mix = payload_mix_.data();

  auto flag = [&](RouteErrorKind kind, std::size_t line) {
    report.ok = false;
    ++report.errors;
    if (report.findings.size() < kMaxFindings) {
      report.findings.push_back({kind, static_cast<std::uint32_t>(line),
                                 outputs[line].address, outputs[line].payload});
    }
  };

  // One pass: every word enters the slice checksum (the tables cover the
  // in-range values, anything else is mixed on the spot), then the
  // per-word checks run in their fixed order.
  std::uint64_t sum = 0;
  for (std::size_t line = 0; line < n; ++line) {
    const Word& w = outputs[line];
    sum += w.address < n ? address_mix[w.address] : mix_address(w.address);
    // Provenance first: the payload names the input the word entered on.
    if (w.payload >= n) {
      sum += mix_payload(w.payload);
      flag(RouteErrorKind::kPayloadMismatch, line);
      continue;
    }
    const auto j = static_cast<std::size_t>(w.payload);
    sum += payload_mix[j];
    if (seen[j] != 0) {
      flag(RouteErrorKind::kBrokenBijection, line);
      continue;
    }
    seen[j] = 1;
    const std::uint32_t requested = requested_of[j];
    if (w.address != requested) {
      // The word no longer carries the address it entered with — it was
      // damaged in transit, not merely mis-switched.
      flag(RouteErrorKind::kCorruptedAddress, line);
    } else if (line != requested) {
      flag(RouteErrorKind::kWrongDestination, line);
    }
  }

  if (sum != expected_checksum_) {
    report.ok = false;
    ++report.errors;
    if (report.findings.size() < kMaxFindings) {
      report.findings.push_back({RouteErrorKind::kChecksumMismatch, 0, 0, 0});
    }
  }
  return report;
}

}  // namespace bnb
