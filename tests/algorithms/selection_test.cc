#include "algorithms/selection.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/ireduct_reference.h"

namespace ireduct {
namespace {

Workload MakeWorkload(std::vector<double> answers,
                      std::vector<QueryGroup> groups) {
  auto r = Workload::Create(std::move(answers), std::move(groups));
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

TEST(SelectionTest, ErrorOptimalScalesSatisfyBudgetExactly) {
  const Workload w = MakeWorkload(
      {5, 10, 1000, 2000, 3000},
      {QueryGroup{"small", 0, 2, 2.0}, QueryGroup{"big", 2, 5, 2.0}});
  const double epsilon = 0.5;
  auto scales = ErrorOptimalScales(w, w.true_answers(), 1.0, epsilon);
  ASSERT_TRUE(scales.ok()) << scales.status();
  EXPECT_NEAR(w.GeneralizedSensitivity(*scales), epsilon, 1e-12);
}

TEST(SelectionTest, ErrorOptimalShapeMatchesLagrangeFormula) {
  // λ_g ∝ sqrt(|G_g| / Σ 1/max{δ, v_j}).
  const Workload w = MakeWorkload(
      {4, 4, 100, 100},
      {QueryGroup{"A", 0, 2, 2.0}, QueryGroup{"B", 2, 4, 2.0}});
  auto scales = ErrorOptimalScales(w, w.true_answers(), 1.0, 1.0);
  ASSERT_TRUE(scales.ok());
  const double shape_a = std::sqrt(2.0 / (2.0 / 4));    // sqrt(|A| / W_A)
  const double shape_b = std::sqrt(2.0 / (2.0 / 100));  // sqrt(|B| / W_B)
  EXPECT_NEAR((*scales)[0] / (*scales)[1], shape_a / shape_b, 1e-12);
  // Larger counts tolerate more noise.
  EXPECT_GT((*scales)[1], (*scales)[0]);
}

TEST(SelectionTest, ErrorOptimalClampsSmallValuesWithDelta) {
  const Workload w = MakeWorkload(
      {-50, 0.001}, {QueryGroup{"A", 0, 1, 1.0}, QueryGroup{"B", 1, 2, 1.0}});
  auto scales = ErrorOptimalScales(w, w.true_answers(), 10.0, 1.0);
  ASSERT_TRUE(scales.ok());
  // Both values clamp to δ=10, so both groups get identical scales.
  EXPECT_NEAR((*scales)[0], (*scales)[1], 1e-12);
}

TEST(SelectionTest, ErrorOptimalValidatesInputs) {
  const Workload w = MakeWorkload({1}, {QueryGroup{"A", 0, 1, 1.0}});
  const std::vector<double> wrong_size{1, 2};
  EXPECT_FALSE(ErrorOptimalScales(w, wrong_size, 1.0, 1.0).ok());
  EXPECT_FALSE(ErrorOptimalScales(w, w.true_answers(), 0.0, 1.0).ok());
  EXPECT_FALSE(ErrorOptimalScales(w, w.true_answers(), 1.0, 0.0).ok());
}

TEST(SelectionTest, ProportionalScalesTrackSmallestGroupValue) {
  const Workload w = MakeWorkload(
      {2, 50, 5, 40},
      {QueryGroup{"A", 0, 2, 1.0}, QueryGroup{"B", 2, 4, 1.0}});
  auto scales = ProportionalScales(w, w.true_answers(), 1.0, 1.0);
  ASSERT_TRUE(scales.ok());
  // Shapes are max{min answer, δ} = 2 and 5.
  EXPECT_NEAR((*scales)[1] / (*scales)[0], 5.0 / 2.0, 1e-12);
  EXPECT_NEAR(w.GeneralizedSensitivity(*scales), 1.0, 1e-12);
}

TEST(SelectionTest, ProportionalMatchesPaperExampleOne) {
  // Example 1: q1(T1)=2, q2(T1)=5, δ=1, ε=1 gives λ1=1.4, λ2=3.5.
  const Workload w = MakeWorkload(
      {2, 5}, {QueryGroup{"q1", 0, 1, 1.0}, QueryGroup{"q2", 1, 2, 1.0}});
  auto scales = ProportionalScales(w, w.true_answers(), 1.0, 1.0);
  ASSERT_TRUE(scales.ok());
  EXPECT_NEAR((*scales)[0], 1.4, 1e-12);
  EXPECT_NEAR((*scales)[1], 3.5, 1e-12);
}

TEST(SelectionTest, EstimatedGroupErrorFormula) {
  const Workload w = MakeWorkload(
      {10, 20}, {QueryGroup{"A", 0, 2, 2.0}});
  const std::vector<double> noisy{10, 20};
  // scale/|G| * (1/10 + 1/20) = 4/2 * 0.15.
  EXPECT_NEAR(EstimatedGroupError(w, 0, noisy, 4.0, 1.0), 0.3, 1e-12);
}

TEST(SelectionTest, PickGroupIReductPrefersHighBenefitPerCost) {
  // Two same-size groups at the same scale: the one with smaller noisy
  // answers (higher estimated relative error) must win.
  const Workload w = MakeWorkload(
      {3, 3, 500, 500},
      {QueryGroup{"small", 0, 2, 2.0}, QueryGroup{"big", 2, 4, 2.0}});
  const std::vector<double> noisy{3, 3, 500, 500};
  const std::vector<double> scales{50, 50};
  const std::vector<uint8_t> active{1, 1};
  EXPECT_EQ(PickGroupIReduct(w, noisy, scales, active, 1.0, 1.0), 0u);
}

TEST(SelectionTest, PickGroupIReductSkipsInactiveAndIrreducible) {
  const Workload w = MakeWorkload(
      {3, 500},
      {QueryGroup{"small", 0, 1, 2.0}, QueryGroup{"big", 1, 2, 2.0}});
  const std::vector<double> noisy{3, 500};
  const std::vector<double> scales{50, 50};
  const std::vector<double> tiny_scale{50, 0.5};
  const std::vector<uint8_t> only_big{0, 1};
  const std::vector<uint8_t> none{0, 0};
  // Group 0 inactive; group 1 still reducible.
  EXPECT_EQ(PickGroupIReduct(w, noisy, scales, only_big, 1.0, 1.0), 1u);
  // Group 1 at scale <= λΔ cannot be reduced.
  EXPECT_EQ(PickGroupIReduct(w, noisy, tiny_scale, only_big, 1.0, 1.0),
            kNoGroup);
  // Nothing active.
  EXPECT_EQ(PickGroupIReduct(w, noisy, scales, none, 1.0, 1.0), kNoGroup);
}

TEST(SelectionTest, PickGroupIReductPrefersCheaperReduction) {
  // Same answers, but one group sits at a larger scale, where shaving λΔ
  // costs less sensitivity (Equation 14 is convex in λ).
  const Workload w = MakeWorkload(
      {10, 10},
      {QueryGroup{"lo", 0, 1, 2.0}, QueryGroup{"hi", 1, 2, 2.0}});
  const std::vector<double> noisy{10, 10};
  const std::vector<double> scales{5, 100};
  const std::vector<uint8_t> active{1, 1};
  EXPECT_EQ(PickGroupIReduct(w, noisy, scales, active, 1.0, 1.0), 1u);
}

TEST(SelectionTest, PickGroupMaxRelativeErrorTargetsWorstCell) {
  // Group 1 holds the cell with the largest λ/max{y, δ} ratio even though
  // its average is better.
  const Workload w = MakeWorkload(
      {50, 50, 2, 900},
      {QueryGroup{"balanced", 0, 2, 2.0}, QueryGroup{"spiky", 2, 4, 2.0}});
  const std::vector<double> noisy{50, 50, 2, 900};
  const std::vector<double> scales{30, 30};
  const std::vector<uint8_t> active{1, 1};
  EXPECT_EQ(PickGroupMaxRelativeError(w, noisy, scales, active, 1.0, 1.0),
            1u);
  // Once the spiky group retires, the other is chosen.
  const std::vector<uint8_t> only_first{1, 0};
  EXPECT_EQ(
      PickGroupMaxRelativeError(w, noisy, scales, only_first, 1.0, 1.0),
      0u);
  // Non-reducible scales disqualify.
  const std::vector<double> tiny{0.5, 0.5};
  EXPECT_EQ(PickGroupMaxRelativeError(w, noisy, tiny, active, 1.0, 1.0),
            kNoGroup);
}

TEST(SelectionTest, PickGroupIResampBasics) {
  const Workload w = MakeWorkload(
      {3, 3, 500, 500},
      {QueryGroup{"small", 0, 2, 2.0}, QueryGroup{"big", 2, 4, 2.0}});
  const std::vector<double> noisy{3, 3, 500, 500};
  const std::vector<double> scales{50, 50};
  const std::vector<uint8_t> both{1, 1};
  const std::vector<uint8_t> none{0, 0};
  const std::vector<uint8_t> only_big{0, 1};
  EXPECT_EQ(PickGroupIResamp(w, noisy, scales, both, 1.0), 0u);
  EXPECT_EQ(PickGroupIResamp(w, noisy, scales, none, 1.0), kNoGroup);
  EXPECT_EQ(PickGroupIResamp(w, noisy, scales, only_big, 1.0), 1u);
}

}  // namespace
}  // namespace ireduct
