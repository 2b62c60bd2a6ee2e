// Kernel-tier registry and runtime dispatch.  The registry holds every set
// whose translation unit is compiled in AND whose instructions the host can
// execute; on x86 that second test is CPUID feature bits plus XGETBV state
// checks (the OS must save the YMM/ZMM registers, or executing AVX faults
// even though CPUID advertises it).  Detection runs once; everything after
// is a pointer read.
#include "core/kernels/kernel_set.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/kernels/kernel_impl.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#if defined(_MSC_VER)
#include <intrin.h>
#else
#include <cpuid.h>
#include <immintrin.h>
#endif
#endif

namespace bnb::kernels {
namespace {

#if defined(__x86_64__) || defined(_M_X64)

struct CpuidRegs {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
};

CpuidRegs cpuid(unsigned leaf, unsigned subleaf) {
  CpuidRegs r;
#if defined(_MSC_VER)
  int regs[4];
  __cpuidex(regs, static_cast<int>(leaf), static_cast<int>(subleaf));
  r.eax = static_cast<unsigned>(regs[0]);
  r.ebx = static_cast<unsigned>(regs[1]);
  r.ecx = static_cast<unsigned>(regs[2]);
  r.edx = static_cast<unsigned>(regs[3]);
#else
  __cpuid_count(leaf, subleaf, r.eax, r.ebx, r.ecx, r.edx);
#endif
  return r;
}

std::uint64_t xgetbv0() {
#if defined(_MSC_VER)
  return _xgetbv(0);
#else
  unsigned lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
#endif
}

struct X86Features {
  bool avx2_ok = false;    // AVX2 + BMI2 + OS YMM state
  bool avx512_ok = false;  // F/BW/DQ/VL + BMI2 + OS ZMM state
};

X86Features detect_x86() {
  X86Features f;
  const CpuidRegs l1 = cpuid(1, 0);
  const bool osxsave = (l1.ecx >> 27) & 1U;
  const bool avx = (l1.ecx >> 28) & 1U;
  if (!osxsave || !avx) return f;

  const std::uint64_t xcr0 = xgetbv0();
  const bool ymm_state = (xcr0 & 0x6) == 0x6;          // XMM + YMM
  const bool zmm_state = (xcr0 & 0xE6) == 0xE6;        // + opmask, ZMM hi/lo

  if (cpuid(0, 0).eax < 7) return f;
  const CpuidRegs l7 = cpuid(7, 0);
  const bool avx2 = (l7.ebx >> 5) & 1U;
  const bool bmi2 = (l7.ebx >> 8) & 1U;
  const bool avx512f = (l7.ebx >> 16) & 1U;
  const bool avx512dq = (l7.ebx >> 17) & 1U;
  const bool avx512bw = (l7.ebx >> 30) & 1U;
  const bool avx512vl = (l7.ebx >> 31) & 1U;

  f.avx2_ok = avx2 && bmi2 && ymm_state;
  f.avx512_ok = avx512f && avx512bw && avx512dq && avx512vl && bmi2 && zmm_state;
  return f;
}

#endif  // x86_64

/// Build the registry once: scalar always runs; each SIMD set is appended
/// only when its TU is compiled in and the host passes detection.
std::vector<const KernelSet*> build_registry() {
  std::vector<const KernelSet*> sets{&detail::kScalarSet};
#if defined(BNB_KERNELS_HAVE_AVX2) || defined(BNB_KERNELS_HAVE_AVX512)
#if defined(__x86_64__) || defined(_M_X64)
  const X86Features f = detect_x86();
#if defined(BNB_KERNELS_HAVE_AVX2)
  if (f.avx2_ok) sets.push_back(&detail::kAvx2Set);
#endif
#if defined(BNB_KERNELS_HAVE_AVX512)
  if (f.avx512_ok) sets.push_back(&detail::kAvx512Set);
#endif
#endif
#endif
  return sets;
}

const std::vector<const KernelSet*>& registry() {
  static const std::vector<const KernelSet*> sets = build_registry();
  return sets;
}

/// Best tier by dispatch priority: the registry is in ascending tier
/// order, so the last supported set wins.
const KernelSet* best_supported() { return registry().back(); }

}  // namespace

const char* tier_name(Tier tier) noexcept {
  switch (tier) {
    case Tier::kScalar: return "scalar";
    case Tier::kAvx2: return "avx2";
    case Tier::kAvx512: return "avx512";
  }
  return "unknown";
}

const KernelSet& scalar_kernels() noexcept { return detail::kScalarSet; }

std::span<const KernelSet* const> supported_kernel_sets() {
  const auto& sets = registry();
  return {sets.data(), sets.size()};
}

const KernelSet* find_kernels(std::string_view name) {
  for (const KernelSet* s : registry()) {
    if (name == s->name) return s;
  }
  return nullptr;
}

const KernelSet* kernels_from_env() {
  const char* env = std::getenv("BNB_KERNELS");
  if (env == nullptr || *env == '\0') return nullptr;
  const KernelSet* s = find_kernels(env);
  if (s == nullptr) {
    throw std::runtime_error(
        std::string("BNB_KERNELS=") + env +
        " is not a runnable kernel tier on this host (supported:" +
        [] {
          std::string names;
          for (const KernelSet* k : registry()) {
            names += ' ';
            names += k->name;
          }
          return names;
        }() +
        ")");
  }
  return s;
}

const KernelSet& active_kernels() {
  static const KernelSet* const active = [] {
    if (const KernelSet* env = kernels_from_env()) return env;
    return best_supported();
  }();
  return *active;
}

}  // namespace bnb::kernels
