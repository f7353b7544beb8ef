// Deterministic random-number substrate. All stochastic code in the library
// draws from a BitGen so that experiments are reproducible from a seed.
//
// The engine is xoshiro256++ (Blackman & Vigna), seeded via splitmix64. On
// top of the raw engine we provide the samplers the paper's mechanisms need:
// uniform, exponential, Laplace, and exponentials truncated to an interval.
#ifndef IREDUCT_COMMON_RANDOM_H_
#define IREDUCT_COMMON_RANDOM_H_

#include <array>
#include <cstdint>
#include <span>

namespace ireduct {

/// xoshiro256++ pseudo-random engine with distribution helpers.
///
/// Satisfies the UniformRandomBitGenerator concept, so it can also be used
/// with <random> distributions, though the built-in samplers below are
/// preferred (they are deterministic across standard libraries).
class BitGen {
 public:
  using result_type = uint64_t;

  /// Seeds the four-word state from `seed` via splitmix64.
  explicit BitGen(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  /// Next raw 64-bit output.
  uint64_t operator()();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double Uniform();

  /// Uniform double in (0, 1] — safe as an argument to log().
  double UniformPositive();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Exponential variate with the given mean (= 1/rate). Requires mean > 0.
  double Exponential(double mean);

  /// Laplace variate with location 0 and the given scale. Requires scale > 0.
  double Laplace(double scale);

  /// Laplace variate with location `mu` and scale `scale`.
  double Laplace(double mu, double scale);

  /// Sample from the density ∝ exp(-x / mean) restricted to [lo, hi],
  /// i.e. an exponential (decaying toward +inf) truncated to an interval.
  /// Requires mean > 0 and lo < hi; hi may be +infinity.
  double TruncatedExponential(double mean, double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Exact engine state, for checkpoint/resume. Restoring via FromState
  /// continues the stream bit-identically: SaveState followed by any draw
  /// sequence equals FromState(saved) followed by the same sequence.
  std::array<uint64_t, 4> SaveState() const;

  /// Reconstructs a generator at a previously saved state.
  static BitGen FromState(const std::array<uint64_t, 4>& state);

  /// Derives a child generator (substream) by drawing one 64-bit value from
  /// this stream and expanding it through the splitmix64 seeding path.
  /// Forking seeds in a fixed order and handing each fork to one unit of
  /// parallel work (e.g. one query group in a batched iReduct round) makes
  /// the per-unit draws independent of thread count and scheduling, so
  /// single- and multi-threaded runs are bit-identical. Advances this
  /// stream by exactly one draw.
  BitGen Fork();

  /// Fills `out` with Laplace noise over runs of equal scale: run r covers
  /// [run_ends[r-1], run_ends[r]) (run_ends[-1] = 0) and uses
  /// run_scales[r] (see simd::BatchLaplace). The batch is drawn through the
  /// vectorized kernels (common/simd_kernels.h) from four Fork()
  /// substreams (lane i % 4), so this stream advances by exactly
  /// kBatchLanes = 4 draws regardless of the batch size — a *different*
  /// stream than calling Laplace() per element, but deterministic: the
  /// output depends only on this generator's state and the per-element
  /// scales, never on the run split, the SIMD tier, thread count, or
  /// machine. Requires one positive scale per run, strictly increasing run
  /// ends, and run_ends.back() == out.size().
  void LaplaceBatch(std::span<const size_t> run_ends,
                    std::span<const double> run_scales,
                    std::span<double> out);

  /// Batch analogue of Exponential(mean) under the same four-substream
  /// contract as LaplaceBatch. Requires mean > 0.
  void ExponentialBatch(double mean, std::span<double> out);

 private:
  uint64_t s_[4];
};

}  // namespace ireduct

#endif  // IREDUCT_COMMON_RANDOM_H_
