// GroupScoreHeap must reproduce the linear-scan Pick* functions' group
// sequence exactly — same scores, same deterministic tie-break — across
// randomized refinement descents with scale moves, answer resamples,
// retirements and irreducible groups.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algorithms/selection.h"
#include "common/random.h"
#include "dp/workload.h"
#include "support/ireduct_reference.h"

namespace ireduct {
namespace {

Workload RandomWorkload(BitGen& gen, size_t num_groups, bool force_ties) {
  std::vector<double> answers;
  std::vector<QueryGroup> groups;
  uint32_t begin = 0;
  for (size_t g = 0; g < num_groups; ++g) {
    const uint32_t size = 1 + static_cast<uint32_t>(gen.UniformInt(4));
    for (uint32_t i = 0; i < size; ++i) {
      // A tiny value alphabet makes identical group scores (ties) common.
      answers.push_back(force_ties
                            ? static_cast<double>(1 + gen.UniformInt(3))
                            : gen.Uniform(0.5, 300.0));
    }
    groups.push_back(QueryGroup{"g", begin, begin + size,
                                force_ties ? 2.0 : gen.Uniform(0.5, 3.0)});
    begin += size;
  }
  auto w = Workload::Create(std::move(answers), std::move(groups));
  EXPECT_TRUE(w.ok()) << w.status();
  return std::move(w).value();
}

// Reference linear scan for `rule` with the signatures unified.
size_t LinearPick(const Workload& w, SelectionRule rule,
                  std::span<const double> noisy,
                  std::span<const double> scales,
                  std::span<const uint8_t> active, double delta,
                  double lambda_delta) {
  switch (rule) {
    case SelectionRule::kIReductRatio:
      return PickGroupIReduct(w, noisy, scales, active, delta, lambda_delta);
    case SelectionRule::kMaxRelativeError:
      return PickGroupMaxRelativeError(w, noisy, scales, active, delta,
                                       lambda_delta);
    case SelectionRule::kIResampRatio:
      return PickGroupIResamp(w, noisy, scales, active, delta);
  }
  return kNoGroup;
}

// Drives heap and scan side by side through a random descent and asserts
// the pick sequences are identical (including the final kNoGroup).
void RunDescentParity(SelectionRule rule, uint64_t seed, bool force_ties) {
  BitGen gen(seed);
  const Workload w = RandomWorkload(gen, 60, force_ties);
  const double delta = 1.0;
  const double lambda_delta =
      rule == SelectionRule::kIResampRatio ? 0.0 : 2.0;
  std::vector<double> noisy(w.num_queries());
  for (double& y : noisy) y = gen.Uniform(-5.0, 400.0);
  std::vector<double> scales(w.num_groups(), 40.0);
  std::vector<uint8_t> active(w.num_groups(), 1);

  GroupScoreHeap heap(w, rule, delta, lambda_delta);
  heap.Build(noisy, scales, active);

  int picks = 0;
  for (int step = 0; step < 5000; ++step) {
    const size_t expected =
        LinearPick(w, rule, noisy, scales, active, delta, lambda_delta);
    const size_t got = heap.PopBest();
    ASSERT_EQ(got, expected) << "rule " << static_cast<int>(rule)
                             << " seed " << seed << " step " << step;
    if (got == kNoGroup) break;
    ++picks;
    // Random transition, mirrored into both representations. Retirement
    // probability keeps the kIResampRatio descent (which never becomes
    // irreducible) finite.
    if (gen.Bernoulli(rule == SelectionRule::kIResampRatio ? 0.25 : 0.1)) {
      active[got] = 0;
      heap.Retire(got);
      continue;
    }
    scales[got] = rule == SelectionRule::kIResampRatio
                      ? scales[got] / 2.0
                      : scales[got] - lambda_delta;
    const QueryGroup& group = w.group(got);
    for (uint32_t i = group.begin; i < group.end; ++i) {
      noisy[i] = force_ties ? static_cast<double>(1 + gen.UniformInt(3))
                            : gen.Uniform(-5.0, 400.0);
    }
    heap.Update(got, noisy, scales);
  }
  EXPECT_GT(picks, 10) << "descent ended before exercising the heap";
  // Both views agree that nothing admissible remains.
  EXPECT_EQ(LinearPick(w, rule, noisy, scales, active, delta, lambda_delta),
            heap.PopBest());
}

TEST(GroupScoreHeapTest, IReductRuleMatchesLinearScan) {
  for (uint64_t seed : {101, 102, 103}) {
    RunDescentParity(SelectionRule::kIReductRatio, seed, false);
  }
}

TEST(GroupScoreHeapTest, IReductRuleMatchesLinearScanUnderTies) {
  for (uint64_t seed : {201, 202, 203}) {
    RunDescentParity(SelectionRule::kIReductRatio, seed, true);
  }
}

TEST(GroupScoreHeapTest, MaxRelativeErrorRuleMatchesLinearScan) {
  for (uint64_t seed : {301, 302}) {
    RunDescentParity(SelectionRule::kMaxRelativeError, seed, false);
    RunDescentParity(SelectionRule::kMaxRelativeError, seed + 10, true);
  }
}

TEST(GroupScoreHeapTest, IResampRuleMatchesLinearScan) {
  for (uint64_t seed : {401, 402}) {
    RunDescentParity(SelectionRule::kIResampRatio, seed, false);
    RunDescentParity(SelectionRule::kIResampRatio, seed + 10, true);
  }
}

TEST(GroupScoreHeapTest, ExactTiesBreakToLowestIndex) {
  // Four byte-identical groups: every score ties; both selectors must pick
  // group 0.
  auto w = Workload::Create(
      {7, 7, 7, 7},
      {QueryGroup{"a", 0, 1, 2.0}, QueryGroup{"b", 1, 2, 2.0},
       QueryGroup{"c", 2, 3, 2.0}, QueryGroup{"d", 3, 4, 2.0}});
  ASSERT_TRUE(w.ok());
  const std::vector<double> noisy{7, 7, 7, 7};
  const std::vector<double> scales{50, 50, 50, 50};
  const std::vector<uint8_t> active{1, 1, 1, 1};
  EXPECT_EQ(PickGroupIReduct(*w, noisy, scales, active, 1.0, 1.0), 0u);
  GroupScoreHeap heap(*w, SelectionRule::kIReductRatio, 1.0, 1.0);
  heap.Build(noisy, scales, active);
  EXPECT_EQ(heap.PopBest(), 0u);
  // Consuming 0 moves the tie to the next-lowest index.
  EXPECT_EQ(heap.PopBest(), 1u);
  EXPECT_EQ(heap.PopBest(), 2u);
  EXPECT_EQ(heap.PopBest(), 3u);
  EXPECT_EQ(heap.PopBest(), kNoGroup);
}

TEST(GroupScoreHeapTest, IrreducibleGroupsAreNeverReturned) {
  auto w = Workload::Create(
      {5, 5}, {QueryGroup{"a", 0, 1, 2.0}, QueryGroup{"b", 1, 2, 2.0}});
  ASSERT_TRUE(w.ok());
  const std::vector<double> noisy{5, 5};
  // Group 0 sits at λ ≤ λΔ: not reducible, excluded at Build.
  const std::vector<double> scales{1.0, 50.0};
  const std::vector<uint8_t> active{1, 1};
  GroupScoreHeap heap(*w, SelectionRule::kIReductRatio, 1.0, 1.0);
  heap.Build(noisy, scales, active);
  EXPECT_EQ(heap.PopBest(), 1u);
  EXPECT_EQ(heap.PopBest(), kNoGroup);
}

TEST(GroupScoreHeapTest, SelectionScoreMatchesDocumentedFormulas) {
  auto w = Workload::Create({10, 20}, {QueryGroup{"A", 0, 2, 2.0}});
  ASSERT_TRUE(w.ok());
  const std::vector<double> noisy{10, 20};
  // iReduct: λΔ·W/(m·|G|) over c/(λ-λΔ) - c/λ with W = 1/10 + 1/20.
  const double benefit = 1.0 * (0.1 + 0.05) / (1.0 * 2.0);
  const double cost = 2.0 / 49.0 - 2.0 / 50.0;
  EXPECT_DOUBLE_EQ(
      SelectionScore(*w, SelectionRule::kIReductRatio, 0, noisy, 50.0, 1.0,
                     1.0),
      benefit / cost);
  // Max-relative-error: worst cell is λ/max{10, δ}.
  EXPECT_DOUBLE_EQ(
      SelectionScore(*w, SelectionRule::kMaxRelativeError, 0, noisy, 50.0,
                     1.0, 1.0),
      5.0);
}

}  // namespace
}  // namespace ireduct
