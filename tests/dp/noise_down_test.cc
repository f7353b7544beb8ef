#include "dp/noise_down.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/numeric.h"
#include "eval/stats.h"

namespace ireduct {
namespace {

// Integrates `pdf` over [lo, hi], splitting at the density's interior kink
// points (μ, y, y±1) for Simpson accuracy.
double IntegratePdf(const NoiseDownDistribution& dist, double lo, double hi,
                    int points_per_segment = 4000) {
  std::vector<double> cuts{lo, hi, dist.mu(), dist.y(), dist.y() - 1,
                           dist.y() + 1};
  std::sort(cuts.begin(), cuts.end());
  double total = 0;
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    const double a = std::max(cuts[i], lo);
    const double b = std::min(cuts[i + 1], hi);
    if (b <= a) continue;
    total += SimpsonIntegrate([&](double x) { return dist.Pdf(x); }, a, b,
                              points_per_segment);
  }
  return total;
}

NoiseDownDistribution MakeDist(double mu, double y, double lambda,
                               double lambda_prime) {
  auto result = NoiseDownDistribution::Create(mu, y, lambda, lambda_prime);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

TEST(NoiseDownTest, CreateValidatesParameters) {
  EXPECT_FALSE(NoiseDownDistribution::Create(0, 1, 1.0, 1.0).ok());  // λ'=λ
  EXPECT_FALSE(NoiseDownDistribution::Create(0, 1, 1.0, 2.0).ok());  // λ'>λ
  EXPECT_FALSE(NoiseDownDistribution::Create(0, 1, 1.0, 0.0).ok());
  EXPECT_FALSE(NoiseDownDistribution::Create(0, 1, 1.0, -1.0).ok());
  EXPECT_FALSE(
      NoiseDownDistribution::Create(std::nan(""), 1, 2.0, 1.0).ok());
  EXPECT_TRUE(NoiseDownDistribution::Create(0, 1, 2.0, 1.0).ok());
}

TEST(NoiseDownTest, PdfIsNonNegativeEverywhere) {
  const auto dist = MakeDist(0.0, 1.5, 2.0, 1.0);
  for (double x = -20; x <= 20; x += 0.01) {
    ASSERT_GE(dist.Pdf(x), 0.0) << "at " << x;
  }
}

TEST(NoiseDownTest, PdfIntegratesToOne) {
  const auto dist = MakeDist(0.0, 1.5, 2.0, 1.0);
  // Tails beyond ±60 are below 1e-25 here.
  EXPECT_NEAR(IntegratePdf(dist, -60, 60), 1.0, 1e-6);
}

TEST(NoiseDownTest, ThetaMassesMatchNumericIntegrals) {
  // μ < y - 1 so all three closed-form segments are non-degenerate.
  const double mu = 0.0, y = 3.0, lambda = 2.0, lp = 1.2;
  const auto dist = MakeDist(mu, y, lambda, lp);
  EXPECT_NEAR(dist.theta1(), IntegratePdf(dist, -80, dist.xi()), 1e-7);
  EXPECT_NEAR(dist.theta2(), IntegratePdf(dist, dist.xi(), y - 1), 1e-7);
  EXPECT_NEAR(dist.theta3(), IntegratePdf(dist, y + 1, y + 80), 1e-7);
  EXPECT_NEAR(dist.middle_mass(), IntegratePdf(dist, y - 1, y + 1), 1e-7);
  EXPECT_NEAR(dist.theta1() + dist.theta2() + dist.theta3() +
                  dist.middle_mass(),
              1.0, 1e-12);
}

TEST(NoiseDownTest, NormalizationNearOneAndShrinksWithScale) {
  // The raw Equation 6 density is only O(1/λ'²)-normalized (see the
  // header's reproduction notes); the deficit must vanish as the scales
  // grow toward the paper's regime.
  const double z_unit = MakeDist(0.0, 1.5, 2.0, 1.0).normalization();
  EXPECT_NEAR(z_unit, 1.0, 0.05);
  EXPECT_GT(std::fabs(z_unit - 1.0), 1e-4);  // genuinely not exact
  const double z_mid = MakeDist(0.0, 15, 20.0, 10.0).normalization();
  EXPECT_NEAR(z_mid, 1.0, 5e-4);
  const double z_paper = MakeDist(0.0, 1500, 2000.0, 1000.0).normalization();
  EXPECT_NEAR(z_paper, 1.0, 5e-8);
}

TEST(NoiseDownTest, Theta2VanishesWhenMuIsNearY) {
  // ξ = y-1 when μ >= y-1, so the (ξ, y-1] segment is empty.
  const auto dist = MakeDist(5.0, 5.2, 2.0, 1.0);
  EXPECT_DOUBLE_EQ(dist.xi(), 4.2);
  EXPECT_NEAR(dist.theta2(), 0.0, 1e-15);
}

TEST(NoiseDownTest, PhiBoundsRawPdfOnCentralInterval) {
  // Proposition 4: raw f(y') < φ on (y-1, y+1) (the envelope bounds the
  // unnormalized Equation 6 density, which is what rejection samples).
  for (double mu : {-2.0, 0.0, 1.2, 2.9}) {
    const double y = 2.0;
    const auto dist = MakeDist(mu, y, 3.0, 1.5);
    const double phi = dist.phi();
    for (double t = -0.999; t <= 0.999; t += 0.001) {
      ASSERT_LE(dist.Pdf(y + t) * dist.normalization(), phi * (1 + 1e-9))
          << "mu=" << mu << " y'=" << y + t;
    }
  }
}

TEST(NoiseDownTest, MirrorSymmetry) {
  // f_{μ,λ,λ'}(y' | y) = f_{-μ,λ,λ'}(-y' | -y), the identity behind the
  // μ > y reduction (Figure 3, lines 1-3).
  const auto pos = MakeDist(1.0, 3.0, 2.0, 1.0);
  const auto neg = MakeDist(-1.0, -3.0, 2.0, 1.0);
  for (double x = -12; x <= 12; x += 0.37) {
    EXPECT_NEAR(pos.Pdf(x), neg.Pdf(-x), 1e-12) << "at " << x;
  }
}

TEST(NoiseDownTest, InvertedCaseIntegratesToOne) {
  const auto dist = MakeDist(5.0, 2.0, 2.0, 1.0);  // μ > y
  EXPECT_NEAR(IntegratePdf(dist, -60, 70), 1.0, 1e-6);
}

TEST(NoiseDownTest, LogPdfConsistentWithPdf) {
  const auto dist = MakeDist(0.0, 2.0, 2.5, 1.5);
  for (double x : {-5.0, -1.0, 0.0, 1.5, 2.0, 2.5, 8.0}) {
    EXPECT_NEAR(std::exp(dist.LogPdf(x)), dist.Pdf(x), 1e-12);
  }
}

TEST(NoiseDownTest, PdfContinuousAtSegmentBoundaries) {
  const auto dist = MakeDist(0.0, 3.0, 2.0, 1.0);
  for (double b : {dist.xi(), dist.y() - 1, dist.y() + 1, dist.mu()}) {
    const double eps = 1e-9;
    EXPECT_NEAR(dist.Pdf(b - eps), dist.Pdf(b + eps),
                1e-6 * std::max(1.0, dist.Pdf(b)))
        << "boundary " << b;
  }
}

TEST(NoiseDownTest, SampleRegionFrequenciesMatchThetas) {
  const double mu = 0.0, y = 3.0, lambda = 2.0, lp = 1.2;
  const auto dist = MakeDist(mu, y, lambda, lp);
  BitGen gen(99);
  const int n = 200'000;
  int left = 0, mid_left = 0, center = 0, right = 0;
  for (int i = 0; i < n; ++i) {
    const double s = dist.Sample(gen);
    if (s <= dist.xi()) {
      ++left;
    } else if (s <= y - 1) {
      ++mid_left;
    } else if (s < y + 1) {
      ++center;
    } else {
      ++right;
    }
  }
  const double tol = 4.0 / std::sqrt(n);  // ~4 sigma on a proportion
  EXPECT_NEAR(left / static_cast<double>(n), dist.theta1(), tol);
  EXPECT_NEAR(mid_left / static_cast<double>(n), dist.theta2(), tol);
  EXPECT_NEAR(right / static_cast<double>(n), dist.theta3(), tol);
  EXPECT_NEAR(center / static_cast<double>(n),
              1 - dist.theta1() - dist.theta2() - dist.theta3(), tol);
}

TEST(NoiseDownTest, SamplesMatchConditionalPdfByKs) {
  const auto dist = MakeDist(0.5, 2.0, 2.0, 1.0);
  BitGen gen(7);
  const int n = 60'000;
  std::vector<double> sample(n);
  for (double& s : sample) s = dist.Sample(gen);

  // Numeric CDF on a fine grid; the far tails carry < 1e-10 mass at ±40.
  const double lo = -40, hi = 40;
  const int grid = 8000;
  std::vector<double> xs(grid + 1), cdf(grid + 1);
  double acc = 0;
  xs[0] = lo;
  cdf[0] = 0;
  for (int i = 1; i <= grid; ++i) {
    xs[i] = lo + (hi - lo) * i / grid;
    acc += SimpsonIntegrate([&](double x) { return dist.Pdf(x); }, xs[i - 1],
                            xs[i], 8);
    cdf[i] = acc;
  }
  auto numeric_cdf = [&](double x) {
    if (x <= lo) return 0.0;
    if (x >= hi) return 1.0;
    const int i = static_cast<int>((x - lo) / (hi - lo) * grid);
    const int j = std::min(i + 1, grid);
    const double frac = (x - xs[i]) / (xs[j] - xs[i] + 1e-300);
    return cdf[i] + frac * (cdf[j] - cdf[i]);
  };
  EXPECT_LT(KsStatistic(sample, numeric_cdf), 1.63 / std::sqrt(n));
}

TEST(NoiseDownTest, MarginalOfChainIsLaplaceAtReducedScale) {
  // Theorem 1(i): Y ~ Lap(μ, λ), Y'|Y ~ NoiseDown  =>  Y' ~ Lap(μ, λ').
  // Exact up to the O(1/λ'²) normalization slack, so test at a scale
  // where that slack (~1e-4) sits far below the KS resolution.
  const double mu = 10.0, lambda = 60.0, lp = 25.0;
  BitGen gen(31);
  const int n = 60'000;
  std::vector<double> sample(n);
  for (double& s : sample) {
    const double y = gen.Laplace(mu, lambda);
    auto yp = NoiseDown(mu, y, lambda, lp, gen);
    ASSERT_TRUE(yp.ok());
    s = *yp;
  }
  const double ks = KsStatistic(
      sample, [&](double x) { return LaplaceCdf(x, mu, lp); });
  EXPECT_LT(ks, 1.63 / std::sqrt(n));
}

TEST(NoiseDownTest, MarginalDeviationBoundedAtUnitScale) {
  // At toy scales the chain marginal deviates from Laplace(λ') by the
  // documented O(1/λ'²) amount — detectable, but small.
  const double mu = 0.0, lambda = 4.0, lp = 1.5;
  BitGen gen(33);
  const int n = 60'000;
  std::vector<double> sample(n);
  for (double& s : sample) {
    auto yp = NoiseDown(mu, gen.Laplace(mu, lambda), lambda, lp, gen);
    ASSERT_TRUE(yp.ok());
    s = *yp;
  }
  const double ks = KsStatistic(
      sample, [&](double x) { return LaplaceCdf(x, mu, lp); });
  EXPECT_LT(ks, 0.03);
}

TEST(NoiseDownTest, RepeatedChainStillLaplace) {
  // Three successive reductions 400 -> 300 -> 200 -> 150 keep the Laplace
  // marginal (per-step slack ~1e-6 at these scales).
  const double mu = -30.0;
  BitGen gen(53);
  const int n = 40'000;
  std::vector<double> sample(n);
  for (double& s : sample) {
    double prev_scale = 400.0;
    double y = gen.Laplace(mu, prev_scale);
    for (double target : {300.0, 200.0, 150.0}) {
      auto yp = NoiseDown(mu, y, prev_scale, target, gen);
      ASSERT_TRUE(yp.ok());
      y = *yp;
      prev_scale = target;
    }
    s = y;
  }
  const double ks = KsStatistic(
      sample, [&](double x) { return LaplaceCdf(x, mu, 150.0); });
  EXPECT_LT(ks, 1.63 / std::sqrt(n));
}

TEST(NoiseDownTest, LargePaperScaleParametersAreStable) {
  // The experiments run λ ≈ |T|/10 = 10^5 with steps of |T|/10^6; make sure
  // nothing degenerates numerically there.
  const double lambda = 1e5, lp = 9.9e4;
  const auto dist = MakeDist(1234.0, 5678.0, lambda, lp);
  // A small scale reduction keeps y' close to y: the central interval
  // carries the smooth analogue of the exact coupling's atom at y' = y,
  // whose mass λ'²/λ² ≈ 0.98 dominates for λ' ≈ λ.
  EXPECT_GT(dist.middle_mass(), 0.9);
  EXPECT_NEAR(dist.theta1() + dist.theta2() + dist.theta3() +
                  dist.middle_mass(),
              1.0, 1e-12);
  EXPECT_NEAR(dist.normalization(), 1.0, 1e-6);
  BitGen gen(3);
  for (int i = 0; i < 200; ++i) {
    const double s = dist.Sample(gen);
    ASSERT_TRUE(std::isfinite(s));
  }
  // Mean of many samples should be near μ (scale dominates, loose check).
  std::vector<double> sample(20'000);
  for (double& s : sample) s = dist.Sample(gen);
  const SampleSummary sum = Summarize(sample);
  EXPECT_NEAR(sum.mean, 1234.0, 5 * lp / std::sqrt(20'000.0) * 1.5);
}

TEST(NoiseDownTest, FreeFunctionRejectsBadParameters) {
  BitGen gen(1);
  EXPECT_FALSE(NoiseDown(0, 1, 1.0, 2.0, gen).ok());
  EXPECT_TRUE(NoiseDown(0, 1, 2.0, 1.0, gen).ok());
}

TEST(NoiseDownTest, WithStepMatchesRescaledUnitProblem) {
  // NoiseDownWithStep(.., step) must equal step * NoiseDown(../step ..):
  // with identical generator state the draws coincide exactly.
  const double mu = 20, y = 26, lambda = 8, lp = 4, step = 2;
  BitGen g1(5), g2(5);
  auto scaled = NoiseDownWithStep(mu, y, lambda, lp, step, g1);
  auto unit = NoiseDown(mu / step, y / step, lambda / step, lp / step, g2);
  ASSERT_TRUE(scaled.ok());
  ASSERT_TRUE(unit.ok());
  EXPECT_DOUBLE_EQ(*scaled, *unit * step);
}

TEST(NoiseDownTest, WithStepValidatesStep) {
  BitGen gen(1);
  EXPECT_FALSE(NoiseDownWithStep(0, 1, 2.0, 1.0, 0.0, gen).ok());
  EXPECT_FALSE(NoiseDownWithStep(0, 1, 2.0, 1.0, -1.0, gen).ok());
}

TEST(NoiseDownTest, WithStepPreservesLaplaceMarginal) {
  const double mu = 50, lambda = 360, lp = 150, step = 3;
  BitGen gen(71);
  const int n = 40'000;
  std::vector<double> sample(n);
  for (double& s : sample) {
    const double y = gen.Laplace(mu, lambda);
    auto yp = NoiseDownWithStep(mu, y, lambda, lp, step, gen);
    ASSERT_TRUE(yp.ok());
    s = *yp;
  }
  const double ks = KsStatistic(
      sample, [&](double x) { return LaplaceCdf(x, mu, lp); });
  EXPECT_LT(ks, 1.63 / std::sqrt(n));
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

TEST(NoiseDownStepTest, SharedStepMatchesPerDrawCreateBitForBit) {
  // One step shared across many (μ, y) must reproduce, bit for bit, a
  // fresh Create per draw: every query-dependent quantity, the density,
  // and the sample stream with its RNG consumption. The offsets cover
  // both orientations, ξ = μ (|y-μ| ≥ 1) and ξ = y-1 (|y-μ| < 1), and
  // w = |y-μ| on either side of 1.
  const double kScales[][2] = {
      {3.0, 2.5}, {30.0, 29.8}, {2e4, 2e4 - 2e4 / 150}};
  const double mu = 5.0;
  uint64_t seed = 100;
  for (const auto& scale : kScales) {
    const double lambda = scale[0], lp = scale[1];
    auto step = NoiseDownStep::Create(lambda, lp);
    ASSERT_TRUE(step.ok());
    EXPECT_EQ(step->lambda(), lambda);
    EXPECT_EQ(step->lambda_prime(), lp);
    for (double w : {-2 * lambda, -7.0, -1.001, -1.0, -0.4, 0.0, 0.4, 0.999,
                     1.0, 1.001, 7.0, 2 * lambda}) {
      const double y = mu + w;
      SCOPED_TRACE(testing::Message() << "lambda=" << lambda << " w=" << w);
      auto bound = step->Bind(mu, y);
      auto fresh = NoiseDownDistribution::Create(mu, y, lambda, lp);
      ASSERT_TRUE(bound.ok());
      ASSERT_TRUE(fresh.ok());
      EXPECT_TRUE(SameBits(bound->xi(), fresh->xi()));
      EXPECT_TRUE(SameBits(bound->theta1(), fresh->theta1()));
      EXPECT_TRUE(SameBits(bound->theta2(), fresh->theta2()));
      EXPECT_TRUE(SameBits(bound->theta3(), fresh->theta3()));
      EXPECT_TRUE(SameBits(bound->middle_mass(), fresh->middle_mass()));
      EXPECT_TRUE(SameBits(bound->normalization(), fresh->normalization()));
      EXPECT_TRUE(SameBits(bound->phi(), fresh->phi()));
      for (double d : {-3.0, -1.0, -0.5, 0.0, 0.7, 1.0, 4.0}) {
        EXPECT_TRUE(SameBits(bound->LogPdf(y + d), fresh->LogPdf(y + d)));
        EXPECT_TRUE(SameBits(bound->LogPdf(mu + d), fresh->LogPdf(mu + d)));
      }

      BitGen shared_gen(seed), fresh_gen(seed);
      ++seed;
      for (int k = 0; k < 200; ++k) {
        auto a = step->Sample(mu, y, shared_gen);
        auto b = NoiseDownDistribution::Create(mu, y, lambda, lp);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        ASSERT_TRUE(SameBits(*a, b->Sample(fresh_gen))) << "draw " << k;
      }
      EXPECT_EQ(shared_gen(), fresh_gen());
    }
  }
}

TEST(NoiseDownStepTest, RejectsWhatCreateRejects) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  const double kBadScales[][2] = {{1.0, 1.0}, {1.0, 2.0}, {1.0, 0.0},
                                  {1.0, -1.0}, {inf, 1.0}, {2.0, nan},
                                  {nan, 1.0}};
  for (const auto& s : kBadScales) {
    EXPECT_EQ(NoiseDownStep::Create(s[0], s[1]).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(NoiseDownDistribution::Create(0, 1, s[0], s[1]).status().code(),
              StatusCode::kInvalidArgument);
  }

  auto step = NoiseDownStep::Create(2.0, 1.0);
  ASSERT_TRUE(step.ok());
  const double kBadPoints[][2] = {{nan, 1.0}, {0.0, nan}, {inf, 1.0},
                                  {0.0, -inf}};
  for (const auto& p : kBadPoints) {
    BitGen gen(9), untouched(9);
    EXPECT_EQ(step->Bind(p[0], p[1]).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(step->Sample(p[0], p[1], gen).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(NoiseDown(p[0], p[1], 2.0, 1.0, gen).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(gen(), untouched());  // a refused draw consumes no randomness
  }
}

}  // namespace
}  // namespace ireduct
