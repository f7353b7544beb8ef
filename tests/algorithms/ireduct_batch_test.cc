// Parity and batched-mode tests for RunIReduct: it must reproduce Figure
// 4's literal loop (tests/support/ireduct_reference.h) bit for bit, and
// its output must not depend on the thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "algorithms/ireduct.h"
#include "algorithms/selection.h"
#include "common/numeric.h"
#include "dp/workload.h"
#include "obs/metrics.h"
#include "support/ireduct_reference.h"

namespace ireduct {
namespace {

Workload ManyGroupWorkload(size_t num_groups) {
  std::vector<double> answers;
  std::vector<QueryGroup> groups;
  uint32_t begin = 0;
  for (uint32_t g = 0; g < num_groups; ++g) {
    const uint32_t size = 1 + g % 3;
    for (uint32_t i = 0; i < size; ++i) {
      answers.push_back(2.0 + 37.0 * ((g * 7 + i) % 29));
    }
    groups.push_back(QueryGroup{"g", begin, begin + size, 2.0});
    begin += size;
  }
  auto w = Workload::Create(std::move(answers), std::move(groups));
  EXPECT_TRUE(w.ok());
  return std::move(w).value();
}

IReductParams BaseParams() {
  IReductParams p;
  p.epsilon = 2.0;
  p.delta = 1.0;
  p.lambda_max = 200;
  p.lambda_delta = 5;
  return p;
}

void ExpectIdenticalOutputs(const MechanismOutput& a,
                            const MechanismOutput& b) {
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(a.group_scales, b.group_scales);
  EXPECT_EQ(a.epsilon_spent, b.epsilon_spent);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.resample_calls, b.resample_calls);
}

TEST(IReductEngineParityTest, IncrementalMatchesNaiveBitForBit) {
  const Workload w = ManyGroupWorkload(40);
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    BitGen g1(seed), g2(seed);
    auto a = RunIReductNaive(w, BaseParams(), g1);
    auto b = RunIReduct(w, BaseParams(), g2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectIdenticalOutputs(*a, *b);
  }
}

TEST(IReductEngineParityTest, MaxRelativeErrorObjectiveMatchesNaive) {
  const Workload w = ManyGroupWorkload(25);
  IReductParams p = BaseParams();
  p.objective = IReductObjective::kMaxRelativeError;
  BitGen g1(7), g2(7);
  auto a = RunIReductNaive(w, p, g1);
  auto b = RunIReduct(w, p, g2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectIdenticalOutputs(*a, *b);
}

TEST(IReductEngineParityTest, CustomSensitivityWorkloadFallsBackAndMatches) {
  // A custom (non-additive-typed) GS routes the tracker through full
  // recomputes; decisions still match the reference loop exactly.
  std::vector<double> answers{4, 9, 250, 800};
  std::vector<QueryGroup> groups{QueryGroup{"a", 0, 2, 2.0},
                                 QueryGroup{"b", 2, 4, 2.0}};
  auto custom = [](std::span<const double> scales) {
    KahanSum acc;
    for (double s : scales) acc.Add(2.0 / s);
    return acc.value();
  };
  auto w = Workload::CreateWithSensitivityFn(answers, groups, custom);
  ASSERT_TRUE(w.ok());
  BitGen g1(11), g2(11);
  auto a = RunIReductNaive(*w, BaseParams(), g1);
  auto b = RunIReduct(*w, BaseParams(), g2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectIdenticalOutputs(*a, *b);
}

TEST(IReductBatchTest, ThreadCountDoesNotChangeResults) {
  const Workload w = ManyGroupWorkload(40);
  for (size_t batch_size : {1, 4}) {
    IReductParams p = BaseParams();
    p.batch_size = batch_size;
    p.num_threads = 1;
    IReductParams parallel = p;
    parallel.num_threads = 4;
    for (uint64_t seed : {21, 22, 23}) {
      SCOPED_TRACE(testing::Message()
                   << "batch_size " << batch_size << " seed " << seed);
      BitGen g1(seed), g2(seed);
      auto serial = RunIReduct(w, p, g1);
      auto threaded = RunIReduct(w, parallel, g2);
      ASSERT_TRUE(serial.ok());
      ASSERT_TRUE(threaded.ok());
      ExpectIdenticalOutputs(*serial, *threaded);
      EXPECT_GT(serial->iterations, 0u);
    }
  }
}

TEST(IReductBatchTest, BatchedRunRespectsBudgetAndScaleBounds) {
  const Workload w = ManyGroupWorkload(40);
  IReductParams p = BaseParams();
  p.batch_size = 8;
  p.num_threads = 3;
  BitGen gen(31);
  auto out = RunIReduct(w, p, gen);
  ASSERT_TRUE(out.ok());
  EXPECT_LE(w.GeneralizedSensitivity(out->group_scales),
            p.epsilon * (1 + 1e-12));
  EXPECT_EQ(out->epsilon_spent,
            w.GeneralizedSensitivity(out->group_scales));
  for (double s : out->group_scales) {
    EXPECT_GT(s, 0);
    EXPECT_LE(s, p.lambda_max);
  }
  // Budget is nearly exhausted: no group can absorb another λΔ.
  for (size_t g = 0; g < w.num_groups(); ++g) {
    std::vector<double> scales = out->group_scales;
    if (scales[g] <= p.lambda_delta) continue;
    scales[g] -= p.lambda_delta;
    EXPECT_GT(w.GeneralizedSensitivity(scales), p.epsilon);
  }
}

TEST(IReductBatchTest, BatchedModeUsesSubstreamsDeterministically) {
  // Two identical batched runs at the same seed are identical even though
  // each round forks per-group substreams.
  const Workload w = ManyGroupWorkload(30);
  IReductParams p = BaseParams();
  p.batch_size = 3;
  p.num_threads = 2;
  BitGen g1(41), g2(41);
  auto a = RunIReduct(w, p, g1);
  auto b = RunIReduct(w, p, g2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectIdenticalOutputs(*a, *b);
}

TEST(IReductBatchTest, ValidatesBatchParams) {
  const Workload w = ManyGroupWorkload(4);
  BitGen gen(1);
  IReductParams p = BaseParams();
  p.batch_size = 0;
  EXPECT_FALSE(RunIReduct(w, p, gen).ok());
  p = BaseParams();
  p.num_threads = 0;
  EXPECT_FALSE(RunIReduct(w, p, gen).ok());
}

#if IREDUCT_ENABLE_TRACING
TEST(IReductBatchTest, ExercisesIncrementalInstrumentation) {
  const Workload w = ManyGroupWorkload(20);
  auto& registry = obs::MetricsRegistry::Global();
  const uint64_t hits_before =
      registry.counter("ireduct.gs_incremental_hits").value();
  BitGen gen(51);
  auto out = RunIReduct(w, BaseParams(), gen);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(registry.counter("ireduct.gs_incremental_hits").value(),
            hits_before);
}
#endif  // IREDUCT_ENABLE_TRACING

}  // namespace
}  // namespace ireduct
