#include "common/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace ireduct {
namespace simd {

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Tier DetectedTier() {
#if defined(IREDUCT_SIMD_ENABLED) && defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
#endif
  return Tier::kScalar;
}

namespace {

Tier EnvCap() {
  const char* env = std::getenv("IREDUCT_SIMD");
  if (env == nullptr || *env == '\0') return Tier::kAvx2;
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0) {
    return Tier::kScalar;
  }
  // "avx2" and anything unrecognized leave detection uncapped; a typo in
  // the override must not silently change results (it can't — tiers are
  // bit-identical) or quietly disable vectorization.
  return Tier::kAvx2;
}

Tier Resolve() {
  const Tier detected = DetectedTier();
  const Tier cap = EnvCap();
  return detected < cap ? detected : cap;
}

std::atomic<int> g_active{-1};

}  // namespace

Tier ActiveTier() {
  int cached = g_active.load(std::memory_order_acquire);
  if (cached < 0) {
    cached = static_cast<int>(Resolve());
    g_active.store(cached, std::memory_order_release);
  }
  return static_cast<Tier>(cached);
}

void ResetDispatchForTesting() {
  g_active.store(static_cast<int>(Resolve()), std::memory_order_release);
}

}  // namespace simd
}  // namespace ireduct
