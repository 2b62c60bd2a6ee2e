// NEON kernel tier (aarch64).  Every pass runs the scalar word loops: the
// column passes and the arbiter are compress/spread bit gathers with no
// NEON equivalent (the portable magic network at 2 lanes does not beat the
// scalar word loop), and the pure bitwise passes the tier once vectorized
// are now fused into those loops.  NEON is baseline on aarch64, so the
// tier stays registered under its own name with no special compile flags
// and no runtime gate beyond the architecture itself.
#if defined(__aarch64__) && defined(__ARM_NEON)

#include "core/kernels/kernel_impl.hpp"

namespace bnb::kernels {

namespace detail {
const KernelSet kNeonSet{"neon",
                         Tier::kNeon,
                         kScalarSet.column_arbiter,
                         kScalarSet.slice_pass,
                         kScalarSet.solve_tail,
                         kScalarSet.pack_slices,
                         kScalarSet.unpack_slices,
                         // 128-bit lanes gain nothing over the unrolled
                         // scalar step loop for the small-schedule replay.
                         kScalarSet.small_apply8,
                         // No NEON gather: the proof's table lookup stays
                         // a scalar load per line.
                         kScalarSet.delivery_clean};
}  // namespace detail

}  // namespace bnb::kernels

#endif  // aarch64 NEON
