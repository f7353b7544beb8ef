#include "algorithms/ireduct.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "algorithms/dwork.h"
#include "algorithms/selection.h"
#include "eval/metrics.h"
#include "support/ireduct_reference.h"

namespace ireduct {
namespace {

Workload SkewedWorkload() {
  auto r = Workload::Create(
      {2, 3, 4, 5000, 6000, 7000},
      {QueryGroup{"tiny", 0, 3, 2.0}, QueryGroup{"large", 3, 6, 2.0}});
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

IReductParams DefaultParams() {
  // λmax = |T|/10 with |T| ≈ 10000; λΔ a 1/100 step for test speed.
  IReductParams p;
  p.epsilon = 0.2;
  p.delta = 1.0;
  p.lambda_max = 1000;
  p.lambda_delta = 10;
  return p;
}

TEST(IReductTest, ValidatesParameters) {
  BitGen gen(1);
  const Workload w = SkewedWorkload();
  IReductParams p = DefaultParams();
  p.epsilon = 0;
  EXPECT_FALSE(RunIReduct(w, p, gen).ok());
  p = DefaultParams();
  p.delta = 0;
  EXPECT_FALSE(RunIReduct(w, p, gen).ok());
  p = DefaultParams();
  p.lambda_delta = p.lambda_max;
  EXPECT_FALSE(RunIReduct(w, p, gen).ok());
  p = DefaultParams();
  p.lambda_delta = 0;
  EXPECT_FALSE(RunIReduct(w, p, gen).ok());
}

TEST(IReductTest, RefusesWhenLambdaMaxAlreadyTooNoisy) {
  // Figure 4 line 3: GS at λmax exceeding ε means no acceptable release.
  BitGen gen(2);
  const Workload w = SkewedWorkload();
  IReductParams p = DefaultParams();
  p.epsilon = 0.001;  // GS(λmax) = 4/1000 = 0.004 > 0.001
  auto out = RunIReduct(w, p, gen);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kPrivacyBudgetExceeded);
}

TEST(IReductTest, FinalAllocationRespectsBudget) {
  BitGen gen(3);
  const Workload w = SkewedWorkload();
  auto out = RunIReduct(w, DefaultParams(), gen);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_LE(w.GeneralizedSensitivity(out->group_scales),
            DefaultParams().epsilon * (1 + 1e-12));
  EXPECT_LE(out->epsilon_spent, DefaultParams().epsilon * (1 + 1e-12));
  for (double s : out->group_scales) {
    EXPECT_GT(s, 0);
    EXPECT_LE(s, DefaultParams().lambda_max);
  }
}

TEST(IReductTest, ExhaustsBudgetNearly) {
  // The loop should keep reducing until no group can absorb another λΔ, so
  // the final GS must be within one step of ε.
  BitGen gen(4);
  const Workload w = SkewedWorkload();
  const IReductParams p = DefaultParams();
  auto out = RunIReduct(w, p, gen);
  ASSERT_TRUE(out.ok());
  // Undoing one λΔ step on any group would overshoot ε.
  for (size_t g = 0; g < w.num_groups(); ++g) {
    std::vector<double> scales = out->group_scales;
    if (scales[g] <= p.lambda_delta) continue;
    scales[g] -= p.lambda_delta;
    EXPECT_GT(w.GeneralizedSensitivity(scales), p.epsilon)
        << "group " << g << " could still be reduced";
  }
}

TEST(IReductTest, SmallGroupGetsSmallerScale) {
  BitGen gen(5);
  const Workload w = SkewedWorkload();
  // Fine λΔ steps: with coarse steps the last admissible reduction can
  // quantize both groups onto the same scale (see the λΔ ablation bench).
  IReductParams p = DefaultParams();
  p.lambda_delta = 1;
  auto out = RunIReduct(w, p, gen);
  ASSERT_TRUE(out.ok());
  EXPECT_LT(out->group_scales[0], out->group_scales[1]);
  EXPECT_GT(out->iterations, 0u);
  EXPECT_GT(out->resample_calls, 0u);
}

TEST(IReductTest, BeatsDworkOnSkewedCounts) {
  const Workload w = SkewedWorkload();
  const double delta = 1.0;
  double ireduct_err = 0, dwork_err = 0;
  BitGen gen(6);
  const int trials = 150;
  for (int t = 0; t < trials; ++t) {
    auto ir = RunIReduct(w, DefaultParams(), gen);
    auto d = RunDwork(w, DworkParams{DefaultParams().epsilon}, gen);
    ASSERT_TRUE(ir.ok());
    ASSERT_TRUE(d.ok());
    ireduct_err += OverallError(w, ir->answers, delta);
    dwork_err += OverallError(w, d->answers, delta);
  }
  EXPECT_LT(ireduct_err, dwork_err);
}

TEST(IReductTest, DeterministicGivenSeed) {
  const Workload w = SkewedWorkload();
  BitGen g1(7), g2(7);
  auto a = RunIReduct(w, DefaultParams(), g1);
  auto b = RunIReduct(w, DefaultParams(), g2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->answers, b->answers);
  EXPECT_EQ(a->group_scales, b->group_scales);
}

// The two hook tests drive the reference loop, which is what runs the
// ablation bench's alternative pick rules.
TEST(IReductTest, CustomPickQueriesHookIsUsed) {
  // A hook that refuses immediately leaves every group at λmax.
  const Workload w = SkewedWorkload();
  BitGen gen(8);
  auto out = RunIReductNaive(
      w, DefaultParams(), gen,
      [](const Workload&, std::span<const double>, std::span<const double>,
         std::span<const uint8_t>, double, double) { return kNoGroup; });
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->iterations, 0u);
  for (double s : out->group_scales) {
    EXPECT_DOUBLE_EQ(s, DefaultParams().lambda_max);
  }
}

TEST(IReductTest, RoundRobinHookStillRespectsBudget) {
  // Any private PickQueries choice must keep the invariants.
  const Workload w = SkewedWorkload();
  BitGen gen(9);
  size_t next = 0;
  auto round_robin = [&next](const Workload& wl, std::span<const double>,
                             std::span<const double> scales,
                             std::span<const uint8_t> active, double,
                             double lambda_delta) -> size_t {
    for (size_t tries = 0; tries < wl.num_groups(); ++tries) {
      const size_t g = (next++) % wl.num_groups();
      if (active[g] && scales[g] > lambda_delta) return g;
    }
    return kNoGroup;
  };
  auto out = RunIReductNaive(w, DefaultParams(), gen, round_robin);
  ASSERT_TRUE(out.ok());
  EXPECT_LE(w.GeneralizedSensitivity(out->group_scales),
            DefaultParams().epsilon * (1 + 1e-12));
}

TEST(IReductTest, ExactCouplingReducerMatchesInvariants) {
  // The kExactCoupling resampler (extension) must satisfy the same budget
  // and ordering invariants as the paper's NoiseDown.
  const Workload w = SkewedWorkload();
  IReductParams p = DefaultParams();
  p.lambda_delta = 1;
  p.reducer = NoiseReducer::kExactCoupling;
  BitGen gen(12);
  auto out = RunIReduct(w, p, gen);
  ASSERT_TRUE(out.ok());
  EXPECT_LE(w.GeneralizedSensitivity(out->group_scales),
            p.epsilon * (1 + 1e-12));
  EXPECT_LT(out->group_scales[0], out->group_scales[1]);
}

TEST(IReductTest, SingleGroupConvergesToBudgetScale) {
  // One group with coefficient 2: final λ should approach 2/ε from above.
  auto w = Workload::Create({10, 20}, {QueryGroup{"M", 0, 2, 2.0}});
  ASSERT_TRUE(w.ok());
  IReductParams p;
  p.epsilon = 0.1;
  p.delta = 1.0;
  p.lambda_max = 1000;
  p.lambda_delta = 1;
  BitGen gen(10);
  auto out = RunIReduct(*w, p, gen);
  ASSERT_TRUE(out.ok());
  const double floor = 2.0 / p.epsilon;  // 20
  EXPECT_GE(out->group_scales[0], floor - 1e-9);
  EXPECT_LT(out->group_scales[0], floor + p.lambda_delta + 1e-9);
}

}  // namespace
}  // namespace ireduct
