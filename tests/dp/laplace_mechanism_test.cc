#include "dp/laplace_mechanism.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "eval/stats.h"

namespace ireduct {
namespace {

TEST(LaplaceMechanismTest, RejectsSizeMismatch) {
  BitGen gen(1);
  const std::vector<double> values{1, 2};
  const std::vector<double> scales{1};
  EXPECT_FALSE(AddLaplaceNoise(values, scales, gen).ok());
}

TEST(LaplaceMechanismTest, RejectsNonPositiveScales) {
  BitGen gen(1);
  const std::vector<double> values{1};
  EXPECT_FALSE(AddLaplaceNoise(values, std::vector<double>{0.0}, gen).ok());
  EXPECT_FALSE(AddLaplaceNoise(values, std::vector<double>{-1.0}, gen).ok());
}

TEST(LaplaceMechanismTest, NoiseIsCenteredWithRequestedScale) {
  BitGen gen(42);
  const int n = 100'000;
  const std::vector<double> values(n, 50.0);
  const std::vector<double> scales(n, 3.0);
  auto noisy = AddLaplaceNoise(values, scales, gen);
  ASSERT_TRUE(noisy.ok());
  std::vector<double> noise(n);
  for (int i = 0; i < n; ++i) noise[i] = (*noisy)[i] - 50.0;
  const SampleSummary s = Summarize(noise);
  EXPECT_NEAR(s.mean, 0.0, 0.05);
  EXPECT_NEAR(s.mean_abs_deviation, 3.0, 0.05);  // E|Lap(b)| = b
}

TEST(LaplaceMechanismTest, PerQueryScalesAreHonored) {
  BitGen gen(7);
  const int n = 60'000;
  std::vector<double> values(2 * n, 0.0);
  std::vector<double> scales(2 * n);
  for (int i = 0; i < n; ++i) {
    scales[i] = 1.0;
    scales[n + i] = 10.0;
  }
  auto noisy = AddLaplaceNoise(values, scales, gen);
  ASSERT_TRUE(noisy.ok());
  const SampleSummary small =
      Summarize(std::span<const double>(*noisy).subspan(0, n));
  const SampleSummary big =
      Summarize(std::span<const double>(*noisy).subspan(n, n));
  EXPECT_NEAR(small.mean_abs_deviation, 1.0, 0.05);
  EXPECT_NEAR(big.mean_abs_deviation, 10.0, 0.5);
}

TEST(LaplaceMechanismTest, WorkloadVersionExpandsGroupScales) {
  BitGen gen(9);
  auto w = Workload::Create(
      {100, 200, 300},
      {QueryGroup{"A", 0, 1, 1.0}, QueryGroup{"B", 1, 3, 1.0}});
  ASSERT_TRUE(w.ok());
  auto noisy = LaplaceNoise(*w, std::vector<double>{1.0, 5.0}, gen);
  ASSERT_TRUE(noisy.ok());
  EXPECT_EQ(noisy->size(), 3u);
  // One scale per group, not per query.
  EXPECT_FALSE(LaplaceNoise(*w, std::vector<double>{1.0, 2.0, 3.0}, gen).ok());
}

TEST(LaplaceMechanismTest, DeterministicGivenSeed) {
  const std::vector<double> values{1, 2, 3};
  const std::vector<double> scales{1, 1, 1};
  BitGen g1(5), g2(5);
  auto a = AddLaplaceNoise(values, scales, g1);
  auto b = AddLaplaceNoise(values, scales, g2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

// Noise drawn from per-group scales equals noise drawn from the expanded
// per-query scales, bit for bit, on both sides of the 16-query batch
// threshold and for groups that end mid-block.
TEST(LaplaceMechanismTest, GroupScalesMatchExpandedPerQueryScales) {
  for (const size_t n : {15u, 16u, 17u, 64u}) {
    for (const uint32_t group_size : {1u, 3u, 5u, 17u}) {
      std::vector<double> truth(n);
      for (size_t i = 0; i < n; ++i) truth[i] = 10.0 * i;
      std::vector<QueryGroup> groups;
      std::vector<double> group_scales;
      for (uint32_t begin = 0; begin < n; begin += group_size) {
        const uint32_t end =
            std::min<uint32_t>(static_cast<uint32_t>(n), begin + group_size);
        groups.push_back(QueryGroup{"g", begin, end, 1.0});
        group_scales.push_back(1.0 + 0.5 * static_cast<double>(groups.size()));
      }
      auto w = Workload::Create(truth, groups);
      ASSERT_TRUE(w.ok());
      BitGen g1(31), g2(31);
      auto grouped = LaplaceNoise(*w, group_scales, g1);
      auto expanded =
          AddLaplaceNoise(truth, w->PerQueryScales(group_scales), g2);
      ASSERT_TRUE(grouped.ok() && expanded.ok());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<uint64_t>((*grouped)[i]),
                  std::bit_cast<uint64_t>((*expanded)[i]))
            << "n=" << n << " group_size=" << group_size << " i=" << i;
      }
      EXPECT_EQ(g1(), g2());
    }
  }
}

TEST(LaplaceMechanismTest, RejectsNonPositiveGroupScales) {
  auto w = Workload::Create({1, 2, 3}, {QueryGroup{"a", 0, 2, 1.0},
                                        QueryGroup{"b", 2, 3, 1.0}});
  ASSERT_TRUE(w.ok());
  BitGen gen(1);
  EXPECT_FALSE(LaplaceNoise(*w, std::vector<double>{1.0, 0.0}, gen).ok());
  EXPECT_FALSE(LaplaceNoise(*w, std::vector<double>{-1.0, 1.0}, gen).ok());
  EXPECT_FALSE(LaplaceNoise(*w, std::vector<double>{1.0}, gen).ok());
}

}  // namespace
}  // namespace ireduct
