#include "common/simd_kernels.h"

#include <cstring>

#include "common/simd.h"
#include "common/simd_kernels_internal.h"
#include "common/simd_lanes.h"

namespace ireduct {
namespace simd {

namespace {

// The two counting loops, specialized over row indirection so the dense
// case keeps a branch-free inner loop, and over arity: a non-zero kArity
// fixes it at compile time so the per-row stride sum unrolls, kArity == 0
// reads a.arity at run time (the 4+-way fallback).

template <size_t kArity, bool kIndirect>
void CountNDirect(const CountPlanNArgs& a) {
  uint32_t* const counts = a.counts;
  const uint16_t* const* const cols = a.cols;
  const size_t* const strides = a.strides;
  const size_t arity = kArity != 0 ? kArity : a.arity;
  for (size_t i = a.begin; i < a.end; ++i) {
    const size_t r = kIndirect ? a.row_idx[i] : i;
    size_t cell = 0;
    for (size_t k = 0; k < arity; ++k) cell += strides[k] * cols[k][r];
    ++counts[cell];
  }
}

template <size_t kArity, bool kIndirect>
void CountNStriped(const CountPlanNArgs& a) {
  const size_t cells = a.cells;
  uint32_t* const l0 = a.lane_scratch;
  uint32_t* const l1 = l0 + cells;
  uint32_t* const l2 = l1 + cells;
  uint32_t* const l3 = l2 + cells;
  std::memset(l0, 0, kBatchLanes * cells * sizeof(uint32_t));
  const uint16_t* const* const cols = a.cols;
  const size_t* const strides = a.strides;
  const size_t arity = kArity != 0 ? kArity : a.arity;
  const auto cell_of = [&](size_t i) {
    const size_t r = kIndirect ? a.row_idx[i] : i;
    size_t cell = 0;
    for (size_t k = 0; k < arity; ++k) cell += strides[k] * cols[k][r];
    return cell;
  };

  size_t i = a.begin;
  // Four private tables give the core four independent increment chains;
  // on Zipf-hot cells the direct loop serializes on store-to-load
  // forwarding of the same cache line.
  for (; i + 4 <= a.end; i += 4) {
    ++l0[cell_of(i)];
    ++l1[cell_of(i + 1)];
    ++l2[cell_of(i + 2)];
    ++l3[cell_of(i + 3)];
  }
  for (; i < a.end; ++i) ++l0[cell_of(i)];

  uint32_t* const counts = a.counts;
  for (size_t c = 0; c < cells; ++c) {
    counts[c] += l0[c] + l1[c] + l2[c] + l3[c];
  }
}

}  // namespace

namespace internal {

void CountPlanNDirectScalar(const CountPlanNArgs& a) {
  const bool ind = a.row_idx != nullptr;
  switch (a.arity) {
    case 1:
      return (ind ? CountNDirect<1, true> : CountNDirect<1, false>)(a);
    case 2:
      return (ind ? CountNDirect<2, true> : CountNDirect<2, false>)(a);
    case 3:
      return (ind ? CountNDirect<3, true> : CountNDirect<3, false>)(a);
    default:
      return (ind ? CountNDirect<0, true> : CountNDirect<0, false>)(a);
  }
}

void CountPlanNStripedScalar(const CountPlanNArgs& a) {
  const bool ind = a.row_idx != nullptr;
  switch (a.arity) {
    case 1:
      return (ind ? CountNStriped<1, true> : CountNStriped<1, false>)(a);
    case 2:
      return (ind ? CountNStriped<2, true> : CountNStriped<2, false>)(a);
    case 3:
      return (ind ? CountNStriped<3, true> : CountNStriped<3, false>)(a);
    default:
      return (ind ? CountNStriped<0, true> : CountNStriped<0, false>)(a);
  }
}

}  // namespace internal

void BatchLaplaceScalarRef(const LaneStates& states, const size_t* run_ends,
                           const double* run_scales, size_t num_runs,
                           double* out) {
  lanes::BatchLaplaceT<lanes::PackScalar>(states, run_ends, run_scales,
                                          num_runs, out);
}

void BatchExponentialScalarRef(const LaneStates& states, double mean,
                               double* out, size_t n) {
  lanes::BatchExponentialT<lanes::PackScalar>(states, mean, out, n);
}

void BatchLaplace(const LaneStates& states, const size_t* run_ends,
                  const double* run_scales, size_t num_runs, double* out) {
#if defined(IREDUCT_SIMD_ENABLED) && defined(__x86_64__)
  if (ActiveTier() == Tier::kAvx2) {
    internal::BatchLaplaceAvx2(states, run_ends, run_scales, num_runs, out);
    return;
  }
#endif
  BatchLaplaceScalarRef(states, run_ends, run_scales, num_runs, out);
}

void BatchExponential(const LaneStates& states, double mean, double* out,
                      size_t n) {
#if defined(IREDUCT_SIMD_ENABLED) && defined(__x86_64__)
  if (ActiveTier() == Tier::kAvx2) {
    internal::BatchExponentialAvx2(states, mean, out, n);
    return;
  }
#endif
  BatchExponentialScalarRef(states, mean, out, n);
}

void CountPlanNScalarRef(const CountPlanNArgs& args) {
  internal::CountPlanNDirectScalar(args);
}

void CountPlanN(const CountPlanNArgs& args) {
#if defined(IREDUCT_SIMD_ENABLED) && defined(__x86_64__)
  if (ActiveTier() == Tier::kAvx2) {
    internal::CountPlanNAvx2(args);
    return;
  }
#endif
  if (args.lane_scratch != nullptr) {
    internal::CountPlanNStripedScalar(args);
  } else {
    internal::CountPlanNDirectScalar(args);
  }
}

}  // namespace simd
}  // namespace ireduct
