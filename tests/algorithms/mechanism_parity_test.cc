// Golden bit-parity: dispatching a mechanism through the registry must
// produce a MechanismOutput byte-identical to calling the underlying free
// function directly with the same parameters and seed. This is what makes
// the two entry styles interchangeable — a bench or service switched to
// spec dispatch reproduces its pre-registry numbers exactly.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "algorithms/dwork.h"
#include "algorithms/geometric.h"
#include "algorithms/ireduct.h"
#include "algorithms/iresamp.h"
#include "algorithms/mechanism_registry.h"
#include "algorithms/oracle.h"
#include "algorithms/proportional.h"
#include "algorithms/strategy_mechanism.h"
#include "algorithms/two_phase.h"
#include "common/random.h"
#include "dp/workload.h"
#include "support/ireduct_reference.h"

namespace ireduct {
namespace {

constexpr uint64_t kSeeds[] = {11, 12, 13};

Workload TestWorkload() {
  // Three groups with skewed counts (small cells exercise the relative-
  // error machinery) and non-unit sensitivity coefficients.
  auto w = Workload::Create(
      {4.0, 120.0, 76.0, 1.0, 900.0, 33.0, 210.0, 8.0, 55.0},
      {QueryGroup{"g0", 0, 3, 1.0}, QueryGroup{"g1", 3, 6, 2.0},
       QueryGroup{"g2", 6, 9, 1.0}});
  EXPECT_TRUE(w.ok());
  return std::move(*w);
}

void ExpectBitIdentical(const std::vector<double>& direct,
                        const std::vector<double>& registry,
                        const std::string& what) {
  ASSERT_EQ(direct.size(), registry.size()) << what;
  if (!direct.empty()) {
    EXPECT_EQ(std::memcmp(direct.data(), registry.data(),
                          direct.size() * sizeof(double)),
              0)
        << what << ": payload bits differ";
  }
}

void ExpectParity(const MechanismOutput& direct,
                  const MechanismOutput& registry, const std::string& what) {
  ExpectBitIdentical(direct.answers, registry.answers, what + " answers");
  ExpectBitIdentical(direct.group_scales, registry.group_scales,
                     what + " group_scales");
  EXPECT_EQ(std::memcmp(&direct.epsilon_spent, &registry.epsilon_spent,
                        sizeof(double)),
            0)
      << what << " epsilon_spent";
  EXPECT_EQ(direct.iterations, registry.iterations) << what;
  EXPECT_EQ(direct.resample_calls, registry.resample_calls) << what;
}

// Runs `spec_text` through the registry and the given direct call at the
// same seed, for every golden seed.
template <typename DirectFn>
void CheckSpecAgainst(const std::string& spec_text, DirectFn direct_fn) {
  const Workload w = TestWorkload();
  for (const uint64_t seed : kSeeds) {
    BitGen direct_gen(seed);
    auto direct = direct_fn(w, direct_gen);
    ASSERT_TRUE(direct.ok()) << spec_text << ": " << direct.status();
    BitGen registry_gen(seed);
    auto registry =
        MechanismRegistry::Global().Run(w, spec_text, registry_gen);
    ASSERT_TRUE(registry.ok()) << spec_text << ": " << registry.status();
    ExpectParity(*direct, *registry,
                 spec_text + " @seed " + std::to_string(seed));
  }
}

TEST(MechanismParityTest, Dwork) {
  CheckSpecAgainst("dwork:epsilon=0.25", [](const Workload& w, BitGen& gen) {
    return RunDwork(w, DworkParams{0.25}, gen);
  });
}

TEST(MechanismParityTest, Geometric) {
  CheckSpecAgainst("geometric:epsilon=0.5",
                   [](const Workload& w, BitGen& gen) {
                     return RunGeometric(w, GeometricParams{0.5}, gen);
                   });
}

TEST(MechanismParityTest, Proportional) {
  CheckSpecAgainst("proportional:epsilon=0.25,delta=2",
                   [](const Workload& w, BitGen& gen) {
                     return RunProportional(w, ProportionalParams{0.25, 2.0},
                                            gen);
                   });
}

TEST(MechanismParityTest, Oracle) {
  CheckSpecAgainst("oracle:epsilon=0.25,delta=2",
                   [](const Workload& w, BitGen& gen) {
                     return RunOracle(w, OracleParams{0.25, 2.0}, gen);
                   });
}

TEST(MechanismParityTest, TwoPhaseExplicitSplit) {
  CheckSpecAgainst("two_phase:epsilon1=0.02,epsilon2=0.23,delta=2",
                   [](const Workload& w, BitGen& gen) {
                     return RunTwoPhase(w, TwoPhaseParams{0.02, 0.23, 2.0},
                                        gen);
                   });
}

TEST(MechanismParityTest, TwoPhaseFractionSplit) {
  // The adapter computes ε1 = f·ε, ε2 = (1−f)·ε from the decimal strings;
  // FormatDouble round-trips both factors exactly, so the products match
  // the direct computation bit for bit.
  const double epsilon = 0.25, fraction = 0.07;
  CheckSpecAgainst(
      "two_phase:epsilon=0.25,epsilon1_fraction=0.07,delta=2",
      [=](const Workload& w, BitGen& gen) {
        return RunTwoPhase(
            w,
            TwoPhaseParams{fraction * epsilon, (1 - fraction) * epsilon, 2.0},
            gen);
      });
}

TEST(MechanismParityTest, IResamp) {
  CheckSpecAgainst("iresamp:epsilon=0.5,delta=2,lambda_max=40",
                   [](const Workload& w, BitGen& gen) {
                     IResampParams p;
                     p.epsilon = 0.5;
                     p.delta = 2.0;
                     p.lambda_max = 40.0;
                     return RunIResamp(w, p, gen);
                   });
}

IReductParams BaseIReductParams() {
  IReductParams p;
  p.epsilon = 0.5;
  p.delta = 2.0;
  p.lambda_max = 40.0;
  p.lambda_delta = 2.0;
  return p;
}

TEST(MechanismParityTest, IReductDefaultEngine) {
  CheckSpecAgainst(
      "ireduct:epsilon=0.5,delta=2,lambda_max=40,lambda_delta=2",
      [](const Workload& w, BitGen& gen) {
        return RunIReduct(w, BaseIReductParams(), gen);
      });
}

TEST(MechanismParityTest, IReductNaiveEngine) {
  // The registry's default spec against Figure 4's literal loop.
  CheckSpecAgainst(
      "ireduct:epsilon=0.5,delta=2,lambda_max=40,lambda_delta=2",
      [](const Workload& w, BitGen& gen) {
        return RunIReductNaive(w, BaseIReductParams(), gen);
      });
}

TEST(MechanismParityTest, IReductLambdaStepsForm) {
  // lambda_steps=20 must reproduce lambda_delta = 40/20 exactly.
  CheckSpecAgainst(
      "ireduct:epsilon=0.5,delta=2,lambda_max=40,lambda_steps=20",
      [](const Workload& w, BitGen& gen) {
        IReductParams p = BaseIReductParams();
        p.lambda_delta = p.lambda_max / 20.0;
        return RunIReduct(w, p, gen);
      });
}

TEST(MechanismParityTest, IReductExactCouplingObjectiveMaxRel) {
  CheckSpecAgainst(
      "ireduct:epsilon=0.5,delta=2,lambda_max=40,lambda_delta=2,"
      "reducer=exact_coupling,objective=max_rel",
      [](const Workload& w, BitGen& gen) {
        IReductParams p = BaseIReductParams();
        p.reducer = NoiseReducer::kExactCoupling;
        p.objective = IReductObjective::kMaxRelativeError;
        return RunIReduct(w, p, gen);
      });
}

TEST(MechanismParityTest, Hierarchical) {
  CheckSpecAgainst("hierarchical:epsilon=0.5",
                   [](const Workload& w, BitGen& gen) {
                     StrategyMechanismConfig config;
                     config.strategy = "tree";
                     config.epsilon = 0.5;
                     return RunStrategyMechanism(w, config, gen);
                   });
}

TEST(MechanismParityTest, Wavelet) {
  CheckSpecAgainst("wavelet:epsilon=0.5", [](const Workload& w, BitGen& gen) {
    StrategyMechanismConfig config;
    config.strategy = "wavelet";
    config.epsilon = 0.5;
    return RunStrategyMechanism(w, config, gen);
  });
}

TEST(MechanismParityTest, MatrixIdentityStrategy) {
  CheckSpecAgainst("matrix:epsilon=0.5,strategy=identity",
                   [](const Workload& w, BitGen& gen) {
                     StrategyMechanismConfig config;
                     config.strategy = "identity";
                     config.epsilon = 0.5;
                     return RunStrategyMechanism(w, config, gen);
                   });
}

TEST(MechanismParityTest, MatrixTreeGreedyTune) {
  CheckSpecAgainst(
      "matrix:epsilon=0.5,strategy=tree,tune=greedy,"
      "epsilon1_fraction=0.25,delta=2,tune_passes=4",
      [](const Workload& w, BitGen& gen) {
        StrategyMechanismConfig config;
        config.strategy = "tree";
        config.epsilon = 0.5;
        config.greedy = true;
        config.epsilon1_fraction = 0.25;
        config.relative_floor = 2.0;
        config.tune_passes = 4;
        return RunStrategyMechanism(w, config, gen);
      });
}

TEST(MechanismParityTest, MatrixGreedyDefaultsToGreedyTune) {
  CheckSpecAgainst("matrix_greedy:epsilon=0.5,strategy=wavelet",
                   [](const Workload& w, BitGen& gen) {
                     StrategyMechanismConfig config;
                     config.strategy = "wavelet";
                     config.epsilon = 0.5;
                     config.greedy = true;
                     return RunStrategyMechanism(w, config, gen);
                   });
}

}  // namespace
}  // namespace ireduct
