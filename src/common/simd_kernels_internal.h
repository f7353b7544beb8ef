// Declarations shared between the dispatching TU (simd_kernels.cc) and the
// AVX2 TU (simd_kernels_avx2.cc, compiled with -mavx2). Interfaces use only
// portable types so the declarations are safe to include anywhere; the
// definitions exist only in builds that compile the AVX2 TU.
#ifndef IREDUCT_COMMON_SIMD_KERNELS_INTERNAL_H_
#define IREDUCT_COMMON_SIMD_KERNELS_INTERNAL_H_

#include "common/simd_kernels.h"

namespace ireduct {
namespace simd {
namespace internal {

void BatchLaplaceAvx2(const LaneStates& states, const size_t* run_ends,
                      const double* run_scales, size_t num_runs, double* out);
void BatchExponentialAvx2(const LaneStates& states, double mean, double* out,
                          size_t n);
void CountPlanNAvx2(const CountPlanNArgs& args);

// Scalar counting loops, shared by the scalar tier and the AVX2 fallbacks
// (no lane scratch, indirect rows, oversized strides). Defined in
// simd_kernels.cc.
void CountPlanNStripedScalar(const CountPlanNArgs& args);
void CountPlanNDirectScalar(const CountPlanNArgs& args);

}  // namespace internal
}  // namespace simd
}  // namespace ireduct

#endif  // IREDUCT_COMMON_SIMD_KERNELS_INTERNAL_H_
