// Bit-exact golden for the NoiseDown sampler and for iReduct on top of it.
// The expected digests below were captured from the per-draw
// implementation (every λ-only constant recomputed inside each Create) and
// must keep holding for any re-expression of the same math: hoisting
// λ-only terms is allowed only as the same IEEE operations on the same
// inputs in the same order, with the same RNG consumption.
//
// Each digest is FNV-1a over the IEEE bit patterns of the values, in
// order; a single flipped bit anywhere changes it.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "algorithms/ireduct.h"
#include "common/random.h"
#include "data/census_generator.h"
#include "dp/noise_down.h"
#include "marginals/marginal_set.h"
#include "marginals/marginal_workload.h"

namespace ireduct {
namespace {

class Fnv1a {
 public:
  void Add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  void Add(uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (bits >> (8 * i)) & 0xffu;
      state_ *= 0x100000001b3ull;
    }
  }
  uint64_t digest() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ull;
};

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// A chain starts at y0 with scale λ and takes `steps` iReduct-style
// decrements of λ/(steps+1); `chains` independent chains share one
// generator. (μ, y0) pick the regime: |y0-μ| < 1 (w < 1), y0-μ ≥ 1 with
// room for (ξ, y-1], and μ > y0 (the negated orientation).
struct ChainCase {
  double lambda;
  double mu;
  double y0;
  uint64_t seed;
  uint64_t digest;
  uint64_t last_bits;
};

constexpr int kChains = 48;
constexpr int kSteps = 12;

const ChainCase kChainCases[] = {
    {3.0, 0.0, 0.4, 11,
     0xe3a77c9a5f37869cull, 0x3f8fdab52e303e00ull},
    {3.0, 0.0, 4.5, 12,
     0xc8dd680191ebd962ull, 0x3fb3519e5801a950ull},
    {3.0, 7.0, 1.25, 13,
     0xce199a142cfba8f4ull, 0x401bf0becfec76f3ull},
    {30.0, 0.0, 0.75, 21,
     0xa8efb76c4ba0d20eull, 0x400200db3f5f120dull},
    {30.0, 100.0, 60.0, 22,
     0x0928a4a4c6d26458ull, 0x40591bf83899a88dull},
    {30.0, -5.0, 18.0, 23,
     0x29f6f64063afa6c6ull, 0xc018a5525401e0a8ull},
    {2e4, 0.0, 0.5, 31,
     0x6b0d662a6b7e9441ull, 0x40967eb60a3812b2ull},
    {2e4, 1000.0, 41000.0, 32,
     0x6e8be6066ba3e9efull, 0x4081ebb425b72d25ull},
    {2e4, 5e4, 1e4, 33,
     0x0ba16812269cc2a9ull, 0x40e7835f4c61cf66ull},
};

// Which piece of Figure 3's split a draw landed in, in canonical (μ ≤ y)
// orientation: left tail, (ξ, y-1], the rejection interval, right tail.
enum Region { kLeftTail, kMiddleLeft, kCentral, kRightTail, kNumRegions };

Region Classify(const NoiseDownDistribution& dist, double yp) {
  const bool inverted = dist.mu() > dist.y();
  const double c = inverted ? -yp : yp;
  const double y = inverted ? -dist.y() : dist.y();
  if (c <= dist.xi()) return kLeftTail;
  if (c <= y - 1) return kMiddleLeft;
  if (c < y + 1) return kCentral;
  return kRightTail;
}

TEST(NoiseDownGoldenTest, SeededChainsAreBitExact) {
  // Regions hit per orientation over the λ ∈ {3, 30} cases, where every
  // branch of Sample has real mass.
  std::array<std::array<int, kNumRegions>, 2> hits{};
  for (const ChainCase& c : kChainCases) {
    BitGen gen(c.seed);
    Fnv1a fnv;
    double last = 0;
    for (int chain = 0; chain < kChains; ++chain) {
      double y = c.y0;
      for (int s = 0; s < kSteps; ++s) {
        const double lambda = c.lambda * (1.0 - s / (kSteps + 1.0));
        const double lambda_prime = lambda - c.lambda / (kSteps + 1.0);
        if (c.lambda <= 30.0) {
          auto dist =
              NoiseDownDistribution::Create(c.mu, y, lambda, lambda_prime);
          ASSERT_TRUE(dist.ok());
          BitGen probe = gen;
          const double yp = dist->Sample(probe);
          ++hits[c.mu > y ? 1 : 0][Classify(*dist, yp)];
        }
        auto next = NoiseDown(c.mu, y, lambda, lambda_prime, gen);
        ASSERT_TRUE(next.ok()) << next.status();
        y = *next;
        fnv.Add(y);
      }
      last = y;
    }
    // The RNG end state: same consumption, not just the same outputs.
    fnv.Add(gen());
    EXPECT_EQ(fnv.digest(), c.digest)
        << "lambda=" << c.lambda << " mu=" << c.mu << " y0=" << c.y0
        << std::hex << " digest=0x" << fnv.digest() << " last=0x"
        << Bits(last);
    EXPECT_EQ(Bits(last), c.last_bits) << "lambda=" << c.lambda;
  }
  for (int o = 0; o < 2; ++o) {
    for (int r = 0; r < kNumRegions; ++r) {
      EXPECT_GT(hits[o][r], 0) << "orientation " << o << " region " << r;
    }
  }
}

TEST(NoiseDownGoldenTest, ScaledStepChainIsBitExact) {
  // NoiseDownWithStep (the NoiseDownChain path) rescales to unit step.
  BitGen gen(41);
  Fnv1a fnv;
  double y = 12.0;
  for (int s = 0; s < 40; ++s) {
    const double lambda = 50.0 - s;
    auto next = NoiseDownWithStep(3.0, y, lambda, lambda - 1.0, 2.5, gen);
    ASSERT_TRUE(next.ok()) << next.status();
    y = *next;
    fnv.Add(y);
  }
  fnv.Add(gen());
  EXPECT_EQ(fnv.digest(), 0x7371cb73f0636b52ull) << std::hex << "0x" << fnv.digest();
}

TEST(NoiseDownGoldenTest, DistributionQuantitiesAreBitExact) {
  // Segment masses, envelope and density over a grid of both
  // orientations, ξ = μ and ξ = y-1, w on either side of 1, at small and
  // paper-scale λ.
  const double kLambdas[][2] = {
      {3.0, 2.5}, {30.0, 28.0}, {2e4, 2e4 - 2e4 / 150}};
  const double kOffsets[] = {-40.0, -2.5, -1.0, -0.3, 0.0,
                             0.6,   1.0,  3.5,  250.0};
  Fnv1a fnv;
  for (const auto& l : kLambdas) {
    for (double off : kOffsets) {
      const double mu = 10.0;
      const double y = mu + off;
      auto dist = NoiseDownDistribution::Create(mu, y, l[0], l[1]);
      ASSERT_TRUE(dist.ok());
      fnv.Add(dist->xi());
      fnv.Add(dist->theta1());
      fnv.Add(dist->theta2());
      fnv.Add(dist->theta3());
      fnv.Add(dist->middle_mass());
      fnv.Add(dist->normalization());
      fnv.Add(dist->phi());
      for (double d : {-7.0, -1.0, -0.5, 0.0, 0.25, 0.999, 1.0, 3.0}) {
        fnv.Add(dist->LogPdf(y + d));
        fnv.Add(dist->LogPdf(mu + d));
      }
    }
  }
  EXPECT_EQ(fnv.digest(), 0xf1ed9f3fa7e13a4aull) << std::hex << "0x" << fnv.digest();
}

// iReduct on a small census 2-way-marginal workload: every NoiseDown
// draw of the release feeds the answers, so the digest pins the sampler
// end to end, on the sequential and the batched per-substream paths.
struct ReleaseGolden {
  size_t batch_size;
  int num_threads;
  uint64_t answers_digest;
  size_t iterations;
  size_t resample_calls;
  uint64_t epsilon_bits;
};

TEST(NoiseDownGoldenTest, IReductReleaseIsBitExact) {
  CensusConfig config;
  config.rows = 20'000;
  config.seed = 2011;
  auto data = GenerateCensus(config);
  ASSERT_TRUE(data.ok());
  std::vector<MarginalSpec> specs;
  const uint32_t kAttrs[] = {kGender, kMaritalStatus, kState, kRace,
                             kEducation};
  for (size_t i = 0; i < std::size(kAttrs); ++i) {
    for (size_t j = i + 1; j < std::size(kAttrs); ++j) {
      specs.push_back(MarginalSpec{{kAttrs[i], kAttrs[j]}});
    }
  }
  auto marginals = ComputeMarginals(*data, specs);
  ASSERT_TRUE(marginals.ok());
  auto mw = MarginalWorkload::Create(std::move(*marginals));
  ASSERT_TRUE(mw.ok());

  const ReleaseGolden kGolden[] = {
      {1, 1, 0x18c400de1470c5d7ull, 1168, 63233, 0x3fa996a8c93a7791ull},
      {4, 2, 0x5a4d06810c91d86aull, 1144, 63744, 0x3fa99682cf345b3full},
  };
  for (const ReleaseGolden& g : kGolden) {
    IReductParams p;
    p.epsilon = 0.05;
    p.delta = 1e-4 * config.rows;
    p.lambda_max = config.rows / 10.0;
    p.lambda_delta = p.lambda_max / 150;
    p.batch_size = g.batch_size;
    p.num_threads = g.num_threads;
    BitGen gen(20260);
    auto out = RunIReduct(mw->workload(), p, gen);
    ASSERT_TRUE(out.ok()) << out.status();
    Fnv1a fnv;
    for (double a : out->answers) fnv.Add(a);
    EXPECT_EQ(fnv.digest(), g.answers_digest)
        << std::hex << "batch " << g.batch_size << " digest=0x"
        << fnv.digest() << " eps=0x" << Bits(out->epsilon_spent) << std::dec
        << " iterations=" << out->iterations
        << " resample_calls=" << out->resample_calls;
    EXPECT_EQ(out->iterations, g.iterations);
    EXPECT_EQ(out->resample_calls, g.resample_calls);
    EXPECT_EQ(Bits(out->epsilon_spent), g.epsilon_bits);
  }
}

}  // namespace
}  // namespace ireduct
