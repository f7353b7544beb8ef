// Runtime SIMD tier detection and dispatch policy for the vectorized
// kernels in common/simd_kernels.h.
//
// The library ships one algorithm per kernel, instantiated for each of two
// tiers (scalar, AVX2) from a shared pack template (common/simd_lanes.h).
// Because every instantiation performs the same IEEE-754 operations in the
// same order — and +, -, *, / are exactly rounded — all tiers produce
// bit-identical results; the tier only changes wall-clock. Dispatch picks
// AVX2 when the CPU supports it, overridable with the IREDUCT_SIMD
// environment variable:
//
//   IREDUCT_SIMD=off     force the scalar reference tier
//   IREDUCT_SIMD=scalar  same as off
//   IREDUCT_SIMD=avx2    allow the 4-wide AVX2 tier (still subject to what
//                        the CPU actually supports); the default
//
// Builds configured with -DIREDUCT_ENABLE_SIMD=OFF compile only the scalar
// tier; detection then always reports kScalar.
#ifndef IREDUCT_COMMON_SIMD_H_
#define IREDUCT_COMMON_SIMD_H_

namespace ireduct {
namespace simd {

/// Kernel implementation tiers, widest last.
enum class Tier { kScalar = 0, kAvx2 = 1 };

/// Human-readable tier name ("scalar" / "avx2").
const char* TierName(Tier tier);

/// The widest tier this CPU supports, ignoring the IREDUCT_SIMD override
/// (always kScalar when the build disabled SIMD).
Tier DetectedTier();

/// The tier kernels actually dispatch to: DetectedTier() capped by the
/// IREDUCT_SIMD override. Resolved once and cached; call
/// ResetDispatchForTesting after changing the environment mid-process.
Tier ActiveTier();

/// Re-reads IREDUCT_SIMD and re-resolves ActiveTier. Test-only: kernels
/// re-fetch the dispatch table on every batch call, so a reset between
/// batches is safe, but flipping tiers concurrently with kernel execution
/// is not synchronized.
void ResetDispatchForTesting();

}  // namespace simd
}  // namespace ireduct

#endif  // IREDUCT_COMMON_SIMD_H_
