// AVX2 instantiations of the vectorized kernels. This TU is compiled with
// -mavx2 (see src/CMakeLists.txt) and only ever *called* after runtime
// dispatch confirmed AVX2 support, so it may use AVX2 intrinsics freely —
// but nothing in here may leak into a header included by plain TUs.
#include <cstdint>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>

#include "common/simd_kernels_internal.h"
#include "common/simd_lanes.h"

namespace ireduct {
namespace simd {
namespace internal {

void BatchLaplaceAvx2(const LaneStates& states, const size_t* run_ends,
                      const double* run_scales, size_t num_runs, double* out) {
  lanes::BatchLaplaceT<lanes::PackAvx2>(states, run_ends, run_scales,
                                        num_runs, out);
}

void BatchExponentialAvx2(const LaneStates& states, double mean, double* out,
                          size_t n) {
  lanes::BatchExponentialT<lanes::PackAvx2>(states, mean, out, n);
}

namespace {

// Vectorized cell-index computation for the dense-row counting loop:
// 16 rows per iteration, two 8-wide u32 index vectors (one
// widen+multiply+add per column) spilled to a stack buffer, increments
// striped across the four lane tables. The increments themselves stay
// scalar (no scatter in AVX2), but index arithmetic leaves the scalar
// ports free for them and the striping breaks the hot-cell dependency
// chain. Each stride term is mathematically < cells <= 2^31, so the
// mod-2^32 mullo is exact for the u32 indices. A non-zero kArity fixes the
// column count at compile time so the column loop unrolls; kArity == 0
// reads a.arity at run time.
template <size_t kArity>
void CountDenseNAvx2(const CountPlanNArgs& a) {
  const size_t cells = a.cells;
  uint32_t* const l0 = a.lane_scratch;
  uint32_t* const l1 = l0 + cells;
  uint32_t* const l2 = l1 + cells;
  uint32_t* const l3 = l2 + cells;
  std::memset(l0, 0, kBatchLanes * cells * sizeof(uint32_t));

  const size_t arity = kArity != 0 ? kArity : a.arity;
  const uint16_t* const* const cols = a.cols;
  const size_t* const strides = a.strides;

  alignas(32) uint32_t idx[16];
  size_t i = a.begin;
  for (; i + 16 <= a.end; i += 16) {
    __m256i lo = _mm256_setzero_si256();
    __m256i hi = _mm256_setzero_si256();
    for (size_t k = 0; k < arity; ++k) {
      const __m256i stride =
          _mm256_set1_epi32(static_cast<int>(strides[k]));
      const __m256i vlo = _mm256_cvtepu16_epi32(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(cols[k] + i)));
      const __m256i vhi = _mm256_cvtepu16_epi32(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(cols[k] + i + 8)));
      lo = _mm256_add_epi32(lo, _mm256_mullo_epi32(vlo, stride));
      hi = _mm256_add_epi32(hi, _mm256_mullo_epi32(vhi, stride));
    }
    _mm256_store_si256(reinterpret_cast<__m256i*>(idx), lo);
    _mm256_store_si256(reinterpret_cast<__m256i*>(idx + 8), hi);
    for (size_t j = 0; j < 16; j += 4) {
      ++l0[idx[j]];
      ++l1[idx[j + 1]];
      ++l2[idx[j + 2]];
      ++l3[idx[j + 3]];
    }
  }
  for (; i < a.end; ++i) {
    size_t cell = 0;
    for (size_t k = 0; k < arity; ++k) cell += strides[k] * cols[k][i];
    ++l0[cell];
  }

  uint32_t* const counts = a.counts;
  for (size_t c = 0; c < cells; ++c) {
    counts[c] += l0[c] + l1[c] + l2[c] + l3[c];
  }
}

}  // namespace

void CountPlanNAvx2(const CountPlanNArgs& a) {
  // The vector path needs lane scratch, dense rows, and u32-safe indices;
  // everything else takes the scalar loops (same totals either way).
  bool u32_safe = a.cells <= (size_t{1} << 31);
  for (size_t k = 0; u32_safe && k < a.arity; ++k) {
    u32_safe = a.strides[k] <= (size_t{1} << 31);
  }
  if (a.lane_scratch == nullptr) {
    CountPlanNDirectScalar(a);
    return;
  }
  if (a.row_idx != nullptr || !u32_safe) {
    CountPlanNStripedScalar(a);
    return;
  }
  switch (a.arity) {
    case 1:
      return CountDenseNAvx2<1>(a);
    case 2:
      return CountDenseNAvx2<2>(a);
    case 3:
      return CountDenseNAvx2<3>(a);
    default:
      return CountDenseNAvx2<0>(a);
  }
}

}  // namespace internal
}  // namespace simd
}  // namespace ireduct

#endif  // __AVX2__
