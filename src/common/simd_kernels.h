// Vectorized kernels behind the runtime tier dispatch in common/simd.h.
//
// Two kernel families:
//
//  * Batch sampling — BatchLaplace / BatchExponential draw n variates from
//    four xoshiro256++ substreams (LaneStates, one 4-word state per lane).
//    Element i consumes a draw from lane i mod 4 and all four lanes advance
//    once per 4-element block, including the final partial block, so the
//    output is a function of the lane states alone: the same for every
//    tier, every thread count, and every machine. The *ScalarRef variants
//    always run the pinned scalar instantiation regardless of dispatch;
//    parity tests compare the dispatched output against them bit for bit.
//
//  * Counting — CountPlanN folds a row range of uint16 attribute codes into
//    a single marginal's count table (cell = sum of stride * code). With
//    `lane_scratch` provided, increments round-robin across four private
//    count buffers (breaking the store-to-load dependency chain that
//    serializes increments on Zipf-hot cells) which are then merged in
//    fixed lane order; counts are integers, so any increment placement
//    yields identical totals. On AVX2 the dense-row path computes the
//    cell indices 16 rows at a time.
//
// Each kernel has a scalar and an AVX2 body; the samplers share one pack
// template (common/simd_lanes.h, which carries the bit-identity argument).
#ifndef IREDUCT_COMMON_SIMD_KERNELS_H_
#define IREDUCT_COMMON_SIMD_KERNELS_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace ireduct {
namespace simd {

/// Number of RNG substreams the batch samplers consume. Fixed by the
/// stream contract, not by the register width of any tier.
inline constexpr size_t kBatchLanes = 4;

/// xoshiro256++ states for the four sampling substreams, lane-major:
/// states[lane][word]. Populated from BitGen::Fork in lane order.
using LaneStates = std::array<std::array<uint64_t, 4>, kBatchLanes>;

/// Laplace noise over runs of equal scale. Run r covers elements
/// [run_ends[r-1], run_ends[r]) (with run_ends[-1] = 0) and uses
/// run_scales[r]; `out` holds run_ends[num_runs-1] elements. out[i] =
/// Laplace(scale of i's run) drawn from lane i % 4, so the output depends
/// on the per-element scales and never on how they are split into runs.
/// Run ends must be strictly increasing. Dispatches to the active tier;
/// bit-identical to BatchLaplaceScalarRef on every tier.
void BatchLaplace(const LaneStates& states, const size_t* run_ends,
                  const double* run_scales, size_t num_runs, double* out);

/// Pinned scalar reference for BatchLaplace (ignores dispatch).
void BatchLaplaceScalarRef(const LaneStates& states, const size_t* run_ends,
                           const double* run_scales, size_t num_runs,
                           double* out);

/// out[i] = Exponential(mean) drawn from lane i % 4.
void BatchExponential(const LaneStates& states, double mean, double* out,
                      size_t n);

/// Pinned scalar reference for BatchExponential (ignores dispatch).
void BatchExponentialScalarRef(const LaneStates& states, double mean,
                               double* out, size_t n);

/// One marginal's counting pass over a row range: cell = sum over k of
/// strides[k] * cols[k][r]. Arities 1-3 (every task in the paper plus
/// all-3-way workloads) run loops specialized at compile time; wider
/// marginals read `arity` at run time.
struct CountPlanNArgs {
  const uint16_t* const* cols = nullptr;  // `arity` column code pointers
  const size_t* strides = nullptr;        // `arity` row-major strides
  size_t arity = 0;
  const uint32_t* row_idx = nullptr;  // row subset; null = dense range
  size_t begin = 0;                   // row range [begin, end)
  size_t end = 0;
  uint32_t* counts = nullptr;  // plan-local table, `cells` entries, +='d into
  size_t cells = 0;
  // Optional scratch of kBatchLanes * cells uint32s (need not be zeroed;
  // the kernel clears it). When provided, increments are striped across
  // four private buffers and merged — the profitable mode once the row
  // range is large relative to `cells`. When null, increments go straight
  // into `counts`.
  uint32_t* lane_scratch = nullptr;
};

/// Counts the range into args.counts; identical totals in every mode/tier.
void CountPlanN(const CountPlanNArgs& args);

/// Pinned scalar reference for CountPlanN (ignores dispatch).
void CountPlanNScalarRef(const CountPlanNArgs& args);

}  // namespace simd
}  // namespace ireduct

#endif  // IREDUCT_COMMON_SIMD_KERNELS_H_
