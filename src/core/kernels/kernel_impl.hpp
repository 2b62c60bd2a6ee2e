// Internal registry of the kernel-set instances each translation unit
// defines.  Which SIMD TUs exist in the build is a compile-time fact
// (BNB_KERNELS_HAVE_* definitions set by src/core/CMakeLists.txt from the
// BNB_SIMD option); whether the host can run them is decided at runtime by
// kernel_set.cpp.  Not installed; include kernels/kernel_set.hpp instead.
#pragma once

#include "core/kernels/kernel_set.hpp"

namespace bnb::kernels::detail {

extern const KernelSet kScalarSet;  // portable words

#if defined(BNB_KERNELS_HAVE_AVX2)
extern const KernelSet kAvx2Set;
#endif
#if defined(BNB_KERNELS_HAVE_AVX512)
extern const KernelSet kAvx512Set;
#endif

}  // namespace bnb::kernels::detail
