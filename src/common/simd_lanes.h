// Shared lane-pack implementation of the vectorized sampling kernels.
//
// One algorithm, two widths: every kernel below is a template over a
// "pack" type P that models W = P::kWidth parallel double/uint64 lanes.
// PackScalar (W = 1) is the pinned reference; PackAvx2 (W = 4, compiled
// only in the -mavx2 translation unit) runs the *same operations in the
// same order* on wider registers. Since IEEE-754 +, -, *, / are exactly
// rounded (and the kernels use no FMA and no libm), each lane of the wide
// pack computes bit-for-bit what the scalar pack computes — which is what
// makes the IREDUCT_SIMD dispatch override a pure performance knob and
// lets the parity tests require exact equality.
//
// The batch samplers consume randomness through a fixed 4-substream
// contract (simd_kernels.h): element i draws from lane i mod 4, all four
// lanes advance once per 4-element block (including the final partial
// block), so every tier consumes exactly ceil(n/4) draws per lane.
#ifndef IREDUCT_COMMON_SIMD_LANES_H_
#define IREDUCT_COMMON_SIMD_LANES_H_

#include <cstdint>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace ireduct {
namespace simd {
namespace lanes {

inline constexpr size_t kBatchLanes = 4;

// ---------------------------------------------------------------------------
// Pack types
// ---------------------------------------------------------------------------

struct PackScalar {
  static constexpr size_t kWidth = 1;
  using U64 = uint64_t;
  using F64 = double;
  // Masks are all-ones/all-zeros uint64 bit patterns, exactly like the
  // vector compare results, so Select composes identically.
  using Mask = uint64_t;

  static U64 LoadU(const uint64_t* p) { return *p; }
  static void StoreU(uint64_t* p, U64 x) { *p = x; }
  static U64 BroadcastU(uint64_t v) { return v; }
  static U64 Add(U64 a, U64 b) { return a + b; }
  static U64 Xor(U64 a, U64 b) { return a ^ b; }
  static U64 Or(U64 a, U64 b) { return a | b; }
  static U64 And(U64 a, U64 b) { return a & b; }
  template <int k>
  static U64 Shl(U64 a) {
    return a << k;
  }
  template <int k>
  static U64 Shr(U64 a) {
    return a >> k;
  }

  static F64 LoadF(const double* p) { return *p; }
  static void StoreF(double* p, F64 x) { *p = x; }
  static F64 BroadcastF(double v) { return v; }
  static F64 AddF(F64 a, F64 b) { return a + b; }
  static F64 SubF(F64 a, F64 b) { return a - b; }
  static F64 MulF(F64 a, F64 b) { return a * b; }
  static F64 DivF(F64 a, F64 b) { return a / b; }
  static F64 MaxF(F64 a, F64 b) { return a > b ? a : b; }

  static F64 CastToF(U64 x) {
    F64 f;
    std::memcpy(&f, &x, sizeof(f));
    return f;
  }
  static U64 CastToU(F64 f) {
    U64 x;
    std::memcpy(&x, &f, sizeof(x));
    return x;
  }
  static Mask CmpGtF(F64 a, F64 b) { return a > b ? ~uint64_t{0} : 0; }
  static F64 SelectF(Mask m, F64 a, F64 b) {
    return CastToF((CastToU(a) & m) | (CastToU(b) & ~m));
  }
};

#if defined(__AVX2__)
struct PackAvx2 {
  static constexpr size_t kWidth = 4;
  using U64 = __m256i;
  using F64 = __m256d;
  using Mask = __m256d;

  static U64 LoadU(const uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void StoreU(uint64_t* p, U64 x) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), x);
  }
  static U64 BroadcastU(uint64_t v) {
    return _mm256_set1_epi64x(static_cast<long long>(v));
  }
  static U64 Add(U64 a, U64 b) { return _mm256_add_epi64(a, b); }
  static U64 Xor(U64 a, U64 b) { return _mm256_xor_si256(a, b); }
  static U64 Or(U64 a, U64 b) { return _mm256_or_si256(a, b); }
  static U64 And(U64 a, U64 b) { return _mm256_and_si256(a, b); }
  template <int k>
  static U64 Shl(U64 a) {
    return _mm256_slli_epi64(a, k);
  }
  template <int k>
  static U64 Shr(U64 a) {
    return _mm256_srli_epi64(a, k);
  }

  static F64 LoadF(const double* p) { return _mm256_loadu_pd(p); }
  static void StoreF(double* p, F64 x) { _mm256_storeu_pd(p, x); }
  static F64 BroadcastF(double v) { return _mm256_set1_pd(v); }
  static F64 AddF(F64 a, F64 b) { return _mm256_add_pd(a, b); }
  static F64 SubF(F64 a, F64 b) { return _mm256_sub_pd(a, b); }
  static F64 MulF(F64 a, F64 b) { return _mm256_mul_pd(a, b); }
  static F64 DivF(F64 a, F64 b) { return _mm256_div_pd(a, b); }
  // Note: unlike std::max, _mm256_max_pd(a, b) picks a only when a > b;
  // the kernels never compare NaNs, and both orders agree on distinct
  // finite values, so scalar MaxF matches lane for lane.
  static F64 MaxF(F64 a, F64 b) { return _mm256_max_pd(b, a); }

  static F64 CastToF(U64 x) { return _mm256_castsi256_pd(x); }
  static U64 CastToU(F64 f) { return _mm256_castpd_si256(f); }
  static Mask CmpGtF(F64 a, F64 b) { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
  static F64 SelectF(Mask m, F64 a, F64 b) {
    return _mm256_or_pd(_mm256_and_pd(m, a), _mm256_andnot_pd(m, b));
  }
};
#endif  // __AVX2__

// ---------------------------------------------------------------------------
// xoshiro256++ lane engine
// ---------------------------------------------------------------------------

template <class P>
struct XoshiroPack {
  typename P::U64 s0, s1, s2, s3;

  // Loads P::kWidth consecutive substreams starting at `first_lane` from
  // word-of-state SoA gathers.
  template <class LaneStates>
  void Load(const LaneStates& states, size_t first_lane) {
    uint64_t tmp[P::kWidth];
    for (int w = 0; w < 4; ++w) {
      for (size_t l = 0; l < P::kWidth; ++l) {
        tmp[l] = states[first_lane + l][static_cast<size_t>(w)];
      }
      typename P::U64 v = P::LoadU(tmp);
      (w == 0 ? s0 : w == 1 ? s1 : w == 2 ? s2 : s3) = v;
    }
  }

  template <int k>
  static typename P::U64 Rotl(typename P::U64 x) {
    return P::Or(P::template Shl<k>(x), P::template Shr<64 - k>(x));
  }

  typename P::U64 Next() {
    const typename P::U64 result = P::Add(Rotl<23>(P::Add(s0, s3)), s0);
    const typename P::U64 t = P::template Shl<17>(s1);
    s2 = P::Xor(s2, s0);
    s3 = P::Xor(s3, s1);
    s1 = P::Xor(s1, s2);
    s0 = P::Xor(s0, s3);
    s2 = P::Xor(s2, t);
    s3 = Rotl<45>(s3);
    return result;
  }
};

// ---------------------------------------------------------------------------
// Transforms
// ---------------------------------------------------------------------------

// log(x) for x in [2^-53, 1]: Cephes log.c evaluated with plain +,-,*,/
// (no FMA, no libm) so every tier matches bit for bit. Relative error is
// ~2e-17 over the reduced argument range — noise-sampling quality is
// unaffected. Constants are the published Cephes double-precision set.
template <class P>
typename P::F64 LogCore(typename P::F64 x) {
  using F64 = typename P::F64;
  using U64 = typename P::U64;

  const U64 bits = P::CastToU(x);
  // Exponent as a double via the 2^52 magic-number trick (values < 2^52
  // convert exactly); x is normal and positive here.
  const U64 ebits =
      P::Or(P::template Shr<52>(bits), P::BroadcastU(0x4330000000000000ULL));
  F64 e = P::SubF(P::SubF(P::CastToF(ebits), P::BroadcastF(0x1.0p52)),
                  P::BroadcastF(1023.0));
  // Mantissa remapped to [1, 2).
  F64 m = P::CastToF(P::Or(P::And(bits, P::BroadcastU(0x000FFFFFFFFFFFFFULL)),
                           P::BroadcastU(0x3FF0000000000000ULL)));
  // Fold m > sqrt(2) down so z = m - 1 stays in [-0.2929, 0.4142].
  const typename P::Mask fold =
      P::CmpGtF(m, P::BroadcastF(1.41421356237309504880));
  m = P::SelectF(fold, P::MulF(m, P::BroadcastF(0.5)), m);
  e = P::SelectF(fold, P::AddF(e, P::BroadcastF(1.0)), e);

  const F64 z = P::SubF(m, P::BroadcastF(1.0));
  const F64 z2 = P::MulF(z, z);

  F64 p = P::BroadcastF(1.01875663804580931796e-4);
  p = P::AddF(P::MulF(p, z), P::BroadcastF(4.97494994976747001425e-1));
  p = P::AddF(P::MulF(p, z), P::BroadcastF(4.70579119878881725854e0));
  p = P::AddF(P::MulF(p, z), P::BroadcastF(1.44989225341610930846e1));
  p = P::AddF(P::MulF(p, z), P::BroadcastF(1.79368678507819816313e1));
  p = P::AddF(P::MulF(p, z), P::BroadcastF(7.70838733755885391666e0));

  F64 q = P::AddF(z, P::BroadcastF(1.12873587189167450590e1));
  q = P::AddF(P::MulF(q, z), P::BroadcastF(4.52279145837532221105e1));
  q = P::AddF(P::MulF(q, z), P::BroadcastF(8.29875266912776603211e1));
  q = P::AddF(P::MulF(q, z), P::BroadcastF(7.11544750618563894466e1));
  q = P::AddF(P::MulF(q, z), P::BroadcastF(2.31251620126765340583e1));

  F64 y = P::MulF(z, P::DivF(P::MulF(z2, p), q));
  y = P::SubF(y, P::MulF(e, P::BroadcastF(2.121944400546905827679e-4)));
  y = P::SubF(y, P::MulF(P::BroadcastF(0.5), z2));
  F64 r = P::AddF(z, y);
  r = P::AddF(r, P::MulF(e, P::BroadcastF(0.693359375)));
  return r;
}

// Laplace(scale) noise from one raw xoshiro word per lane, mirroring the
// scalar inverse-CDF (BitGen::Laplace) shape on a 52-bit uniform:
//   u   = [0, 1) from the top mantissa bits
//   t   = 2u - 1 in [-1, 1), sign of t = side of the distribution
//   om  = 1 - |t|, exact (both operands are k*2^-51), clamped away from 0
//   out = -scale * sgn(t) * log(om)
template <class P>
typename P::F64 LaplaceFromBits(typename P::U64 x, typename P::F64 scale) {
  using F64 = typename P::F64;
  const F64 one = P::BroadcastF(1.0);
  const F64 u = P::SubF(
      P::CastToF(P::Or(P::template Shr<12>(x),
                       P::BroadcastU(0x3FF0000000000000ULL))),
      one);
  const F64 t = P::SubF(P::AddF(u, u), one);
  const F64 mag =
      P::CastToF(P::And(P::CastToU(t), P::BroadcastU(0x7FFFFFFFFFFFFFFFULL)));
  F64 om = P::SubF(one, mag);
  om = P::MaxF(om, P::BroadcastF(0x1.0p-53));
  const F64 lg = LogCore<P>(om);
  // -sgn(t): log(om) <= 0, so t >= 0 must flip the sign back to positive.
  const F64 sgn = P::SelectF(P::CmpGtF(P::BroadcastF(0.0), t), one,
                             P::BroadcastF(-1.0));
  return P::MulF(P::MulF(sgn, scale), lg);
}

// Exponential(mean) from one raw word per lane: -mean * log(1 - u) with
// 1 - u in (0, 1] exact.
template <class P>
typename P::F64 ExpFromBits(typename P::U64 x, typename P::F64 neg_mean) {
  using F64 = typename P::F64;
  const F64 one = P::BroadcastF(1.0);
  const F64 u = P::SubF(
      P::CastToF(P::Or(P::template Shr<12>(x),
                       P::BroadcastU(0x3FF0000000000000ULL))),
      one);
  const F64 up = P::SubF(one, u);
  return P::MulF(neg_mean, LogCore<P>(up));
}

// ---------------------------------------------------------------------------
// Batch drivers
// ---------------------------------------------------------------------------

// Run r covers elements [run_ends[r-1], run_ends[r]) (run_ends[-1] = 0)
// and draws at run_scales[r]. The run layout only decides which scale
// each lane multiplies by: element i still takes the block-(i/4) draw of
// lane i % 4 through the same LaplaceFromBits arithmetic, so any layout
// with the same per-element scales gives the same bits.
template <class P, class LaneStates>
void BatchLaplaceT(const LaneStates& states, const size_t* run_ends,
                   const double* run_scales, size_t num_runs, double* out) {
  constexpr size_t W = P::kWidth;
  constexpr size_t kGroups = kBatchLanes / W;
  XoshiroPack<P> rng[kGroups];
  for (size_t g = 0; g < kGroups; ++g) rng[g].Load(states, g * W);

  const size_t n = num_runs == 0 ? 0 : run_ends[num_runs - 1];
  size_t base = 0;
  size_t r = 0;
  while (base < n) {
    while (run_ends[r] <= base) ++r;
    // Whole blocks inside run r share one broadcast scale.
    const auto s = P::BroadcastF(run_scales[r]);
    for (; base + kBatchLanes <= run_ends[r]; base += kBatchLanes) {
      for (size_t g = 0; g < kGroups; ++g) {
        const auto x = rng[g].Next();
        P::StoreF(out + base + g * W, LaplaceFromBits<P>(x, s));
      }
    }
    if (base == run_ends[r]) continue;
    // A block that straddles a run end, or the final partial block: one
    // scale per lane. All four lanes still advance once (the fixed draw
    // contract); lanes past n compute on a padding scale of 1 and are
    // discarded.
    double block_scales[kBatchLanes];
    double block_out[kBatchLanes];
    for (size_t j = 0, q = r; j < kBatchLanes; ++j) {
      if (base + j >= n) {
        block_scales[j] = 1.0;
        continue;
      }
      while (run_ends[q] <= base + j) ++q;
      block_scales[j] = run_scales[q];
    }
    for (size_t g = 0; g < kGroups; ++g) {
      const auto x = rng[g].Next();
      const auto sb = P::LoadF(block_scales + g * W);
      P::StoreF(block_out + g * W, LaplaceFromBits<P>(x, sb));
    }
    for (size_t j = 0; j < kBatchLanes && base + j < n; ++j) {
      out[base + j] = block_out[j];
    }
    base += kBatchLanes;
  }
}

template <class P, class LaneStates>
void BatchExponentialT(const LaneStates& states, double mean, double* out,
                       size_t n) {
  constexpr size_t W = P::kWidth;
  constexpr size_t kGroups = kBatchLanes / W;
  XoshiroPack<P> rng[kGroups];
  for (size_t g = 0; g < kGroups; ++g) rng[g].Load(states, g * W);
  const auto neg_mean = P::BroadcastF(-mean);

  size_t base = 0;
  for (; base + kBatchLanes <= n; base += kBatchLanes) {
    for (size_t g = 0; g < kGroups; ++g) {
      const auto x = rng[g].Next();
      P::StoreF(out + base + g * W, ExpFromBits<P>(x, neg_mean));
    }
  }
  if (base < n) {
    double pad_out[kBatchLanes];
    for (size_t g = 0; g < kGroups; ++g) {
      const auto x = rng[g].Next();
      P::StoreF(pad_out + g * W, ExpFromBits<P>(x, neg_mean));
    }
    for (size_t j = 0; base + j < n; ++j) out[base + j] = pad_out[j];
  }
}

}  // namespace lanes
}  // namespace simd
}  // namespace ireduct

#endif  // IREDUCT_COMMON_SIMD_LANES_H_
