// Bit-exact golden for the O(cells) stages of a marginal release: the
// fused true tables, the flattened workload, Laplace noise drawn from
// per-group scales, and the rebuilt noisy tables. The expected digests
// were captured before the evaluator counted by marginal, before the
// workload stopped keeping a second copy of the counts, and before the
// batch-Laplace kernel took runs of equal scale. Any re-expression of
// these stages must reproduce them: counts are integers, and the noise
// must keep the same lanes, draw order and per-draw arithmetic.
//
// Each digest is FNV-1a over the IEEE bit patterns of the values, in
// order; a single flipped bit anywhere changes it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "algorithms/dwork.h"
#include "algorithms/iresamp.h"
#include "algorithms/two_phase.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "data/census_generator.h"
#include "dp/confidence.h"
#include "marginals/marginal_evaluator.h"
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
  void Add(std::span<const double> values) {
    for (const double v : values) Add(v);
  }
  uint64_t digest() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ull;
};

// Spec, shape and every count of every table, in order.
uint64_t TablesDigest(const std::vector<Marginal>& tables) {
  Fnv1a fnv;
  for (const Marginal& m : tables) {
    for (const uint32_t a : m.spec().attributes) fnv.Add(uint64_t{a});
    for (const uint32_t d : m.domain_sizes()) fnv.Add(uint64_t{d});
    fnv.Add(m.counts());
  }
  return fnv.digest();
}

uint64_t Digest(std::span<const double> values) {
  Fnv1a fnv;
  fnv.Add(values);
  return fnv.digest();
}

class ReleaseGoldenTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    CensusConfig config;
    config.rows = 30'000;
    config.seed = 2011;
    auto data = GenerateCensus(config);
    ASSERT_TRUE(data.ok());
    dataset_ = new Dataset(std::move(*data));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static std::vector<Marginal> Tables(int k) {
    auto specs = AllKWaySpecs(dataset_->schema(), k);
    EXPECT_TRUE(specs.ok());
    auto evaluator = MarginalSetEvaluator::Create(dataset_->schema(), *specs);
    EXPECT_TRUE(evaluator.ok());
    auto tables = evaluator->Compute(*dataset_);
    EXPECT_TRUE(tables.ok());
    return std::move(*tables);
  }

  static Dataset* dataset_;
};

Dataset* ReleaseGoldenTest::dataset_ = nullptr;

// All 84 3-way census marginals (the release-scan shape), at every pool
// width and on a row subset.
TEST_F(ReleaseGoldenTest, ThreeWayTablesAreBitExactAtEveryPoolWidth) {
  auto specs = AllKWaySpecs(dataset_->schema(), 3);
  ASSERT_TRUE(specs.ok());
  ASSERT_EQ(specs->size(), 84u);
  auto evaluator = MarginalSetEvaluator::Create(dataset_->schema(), *specs);
  ASSERT_TRUE(evaluator.ok());
  std::vector<uint32_t> rows;
  for (uint32_t r = 3; r < dataset_->num_rows(); r += 7) rows.push_back(r);

  constexpr uint64_t kAllRows = 0xa81cc2c69c8ba3caull;
  constexpr uint64_t kSubset = 0x15acbd06167dc285ull;
  for (const int width : {1, 2, 3, 8}) {
    ThreadPool pool(width);
    auto all = evaluator->Compute(*dataset_, {}, &pool);
    ASSERT_TRUE(all.ok()) << "width " << width;
    EXPECT_EQ(TablesDigest(*all), kAllRows)
        << "width " << width << std::hex << " digest=0x"
        << TablesDigest(*all);
    auto subset = evaluator->Compute(*dataset_, rows, &pool);
    ASSERT_TRUE(subset.ok()) << "width " << width;
    EXPECT_EQ(TablesDigest(*subset), kSubset)
        << "width " << width << std::hex << " digest=0x"
        << TablesDigest(*subset);
  }
}

struct DworkGolden {
  int k;
  uint64_t seed;
  uint64_t answers_digest;
  uint64_t published_digest;
};

// Dwork draws one batch over every cell; its runs of equal scale are the
// marginals. ToMarginals must rebuild the same tables from the answers.
TEST_F(ReleaseGoldenTest, DworkReleaseAndToMarginalsAreBitExact) {
  const DworkGolden kGolden[] = {
      {2, 7, 0x3c188d5ddc74d0c4ull, 0xc9bd53675b906370ull},
      {3, 8, 0x7b87497af15cf593ull, 0xe1f2e31d72282e13ull},
  };
  for (const DworkGolden& g : kGolden) {
    auto mw = MarginalWorkload::Create(Tables(g.k));
    ASSERT_TRUE(mw.ok());
    DworkParams p;
    p.epsilon = 0.1;
    BitGen gen(g.seed);
    auto out = RunDwork(mw->workload(), p, gen);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(Digest(out->answers), g.answers_digest)
        << "k=" << g.k << std::hex << " digest=0x" << Digest(out->answers);
    auto published = mw->ToMarginals(out->answers);
    ASSERT_TRUE(published.ok());
    EXPECT_EQ(TablesDigest(*published), g.published_digest)
        << "k=" << g.k << std::hex << " digest=0x"
        << TablesDigest(*published);
  }
}

// One group per query: a batch whose runs all have length 1.
TEST_F(ReleaseGoldenTest, PerQueryLaplaceIsBitExact) {
  std::vector<double> truth;
  for (int i = 0; i < 37; ++i) truth.push_back(100.0 * i);
  auto w = Workload::PerQuery(truth, 1.0);
  ASSERT_TRUE(w.ok());
  DworkParams p;
  p.epsilon = 2.0;
  BitGen gen(99);
  auto out = RunDwork(*w, p, gen);
  ASSERT_TRUE(out.ok());
  Fnv1a fnv;
  fnv.Add(out->answers);
  fnv.Add(gen());
  EXPECT_EQ(fnv.digest(), 0x24785ed43f0aa9e3ull)
      << std::hex << "0x" << fnv.digest();
}

// Two-phase draws two batches with different per-group scales and
// combines them per group; the confidence intervals read each query's
// group scale.
TEST_F(ReleaseGoldenTest, TwoPhaseAndConfidenceIntervalsAreBitExact) {
  auto mw = MarginalWorkload::Create(Tables(2));
  ASSERT_TRUE(mw.ok());
  TwoPhaseParams p;
  p.epsilon1 = 0.005;
  p.epsilon2 = 0.045;
  p.delta = 3.0;
  BitGen gen(17);
  auto out = RunTwoPhase(mw->workload(), p, gen);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(Digest(out->answers), 0x6bf44f3219514c1eull)
      << std::hex << "0x" << Digest(out->answers);
  auto intervals = ConfidenceIntervals(mw->workload(), *out, 0.9);
  ASSERT_TRUE(intervals.ok());
  Fnv1a fnv;
  for (const ConfidenceInterval& ci : *intervals) {
    fnv.Add(ci.lo);
    fnv.Add(ci.hi);
  }
  EXPECT_EQ(fnv.digest(), 0xa0acf04b7838e198ull)
      << std::hex << "0x" << fnv.digest();
}

// iResamp on ten 2-way marginals: the State tables take the >= 16-query
// batch path each round, the small tables the per-element sampler.
TEST_F(ReleaseGoldenTest, IResampReleaseIsBitExact) {
  std::vector<MarginalSpec> specs;
  const uint32_t kAttrs[] = {kGender, kMaritalStatus, kState, kRace,
                             kEducation};
  for (size_t i = 0; i < std::size(kAttrs); ++i) {
    for (size_t j = i + 1; j < std::size(kAttrs); ++j) {
      specs.push_back(MarginalSpec{{kAttrs[i], kAttrs[j]}});
    }
  }
  auto tables = ComputeMarginals(*dataset_, specs);
  ASSERT_TRUE(tables.ok());
  auto mw = MarginalWorkload::Create(std::move(*tables));
  ASSERT_TRUE(mw.ok());
  size_t batched_groups = 0;
  for (const QueryGroup& g : mw->workload().groups()) {
    batched_groups += g.size() >= 16 ? 1 : 0;
  }
  ASSERT_GT(batched_groups, 0u);
  ASSERT_LT(batched_groups, mw->workload().num_groups());

  IResampParams p;
  p.epsilon = 0.5;
  p.delta = 1e-4 * dataset_->num_rows();
  p.lambda_max = dataset_->num_rows() / 10.0;
  BitGen gen(4242);
  auto out = RunIResamp(mw->workload(), p, gen);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_GT(out->iterations, 0u);
  Fnv1a fnv;
  fnv.Add(out->answers);
  fnv.Add(out->group_scales);
  fnv.Add(uint64_t{out->iterations});
  fnv.Add(uint64_t{out->resample_calls});
  fnv.Add(gen());
  EXPECT_EQ(fnv.digest(), 0x2b64104152451a29ull)
      << std::hex << "0x" << fnv.digest() << std::dec
      << " iterations=" << out->iterations;
}

}  // namespace
}  // namespace ireduct
