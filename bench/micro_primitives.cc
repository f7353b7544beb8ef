// Google-benchmark micro suite for the library's hot primitives: the
// samplers that dominate iReduct's inner loop, marginal computation, and
// one end-to-end mechanism run per task size.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "algorithms/ireduct.h"
#include "algorithms/selection.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/simd_kernels.h"
#include "common/thread_pool.h"
#include "data/census_generator.h"
#include "dp/incremental_sensitivity.h"
#include "dp/laplace_coupling.h"
#include "dp/noise_down.h"
#include "dp/workload.h"
#include "marginals/marginal.h"
#include "marginals/consistency.h"
#include "marginals/marginal_evaluator.h"
#include "marginals/marginal_set.h"
#include "marginals/marginal_workload.h"
#include "queries/linear_workload.h"
#include "queries/range_workload.h"
#include "queries/strategy.h"
#include "support/ireduct_reference.h"

namespace {

using namespace ireduct;

void BM_LaplaceSample(benchmark::State& state) {
  BitGen gen(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Laplace(2.0));
  }
}
BENCHMARK(BM_LaplaceSample);

// Batch Laplace sampling: the dispatched kernel tier vs the pinned scalar
// reference on identical lane states. The outputs are bit-identical
// (simd_kernels_test enforces it); these benches measure only the cost
// gap, which tools/check.sh perf gates at >= 2x on AVX2 hardware.
simd::LaneStates BenchLaneStates() {
  BitGen gen(12);
  simd::LaneStates states;
  for (auto& lane : states) lane = gen.Fork().SaveState();
  return states;
}

void BM_BatchLaplaceKernel(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const simd::LaneStates states = BenchLaneStates();
  const double scale = 2.0;  // one run of equal scale
  std::vector<double> out(n);
  for (auto _ : state) {
    simd::BatchLaplace(states, &n, &scale, 1, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(simd::TierName(simd::ActiveTier()));
}
BENCHMARK(BM_BatchLaplaceKernel)->Arg(1024)->Arg(65536);

void BM_BatchLaplaceScalarRef(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const simd::LaneStates states = BenchLaneStates();
  const double scale = 2.0;  // one run of equal scale
  std::vector<double> out(n);
  for (auto _ : state) {
    simd::BatchLaplaceScalarRef(states, &n, &scale, 1, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BatchLaplaceScalarRef)->Arg(1024)->Arg(65536);

// Per-shard counting on Zipf-skewed 100k-row census columns — the exact
// shape of the fused evaluator's inner loop. The gated 2-way rungs:
//
//   BM_CountPlanKernel        dispatched CountPlanN (lane-striped
//                             increments, vector index computation on AVX2)
//   BM_CountPlanScalarRef     CountPlanN's pinned scalar reference (the
//                             bit-parity reference)
//   BM_CountPlanReferenceLoop Marginal::Compute on the same spec — the
//                             per-marginal reference counting path that
//                             eval_scaling's naive section times
//
// tools/check.sh perf gates kernel vs reference loop at >= 2x on AVX2
// hardware. Kernel vs its own scalar tier is a smaller, CPU-dependent gap
// (~1.2-1.3x on cores with memory renaming, where the reference's
// store-to-load increment chains never stall to begin with); the bulk of
// the win over the reference comes from u32 tables, pre-resolved strides,
// and raw column pointers, which every tier of the kernel shares.
//
// BM_CountPlanNKernel / BM_CountPlanNScalarRef are the same pair on a
// 3-way marginal (release-scan's shape); informational, not gated.
const Dataset& CountingCensus() {
  static const Dataset* dataset = [] {
    CensusConfig c;
    c.rows = 100'000;
    return new Dataset(std::move(*GenerateCensus(c)));
  }();
  return *dataset;
}

// Times `kernel` counting all census rows into the row-major table over
// `attrs`, with lane scratch when `striped`.
void RunCountPlan(benchmark::State& state,
                  void (*kernel)(const simd::CountPlanNArgs&),
                  const std::vector<size_t>& attrs, bool striped) {
  const Dataset& dataset = CountingCensus();
  const size_t n = dataset.num_rows();
  std::vector<const uint16_t*> cols;
  std::vector<size_t> strides(attrs.size());
  size_t cells = 1;
  for (size_t k = attrs.size(); k-- > 0;) {
    strides[k] = cells;
    cells *= dataset.schema().attribute(attrs[k]).domain_size;
  }
  for (const size_t attr : attrs) cols.push_back(dataset.column(attr).data());
  std::vector<uint32_t> counts(cells);
  std::vector<uint32_t> scratch(striped ? simd::kBatchLanes * cells : 0);
  simd::CountPlanNArgs args;
  args.cols = cols.data();
  args.strides = strides.data();
  args.arity = attrs.size();
  args.begin = 0;
  args.end = n;
  args.counts = counts.data();
  args.cells = cells;
  args.lane_scratch = striped ? scratch.data() : nullptr;
  for (auto _ : state) {
    std::fill(counts.begin(), counts.end(), 0);
    kernel(args);
    benchmark::DoNotOptimize(counts.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_CountPlanKernel(benchmark::State& state) {
  RunCountPlan(state, simd::CountPlanN, {kOccupation, kEducation}, true);
  state.SetLabel(simd::TierName(simd::ActiveTier()));
}
BENCHMARK(BM_CountPlanKernel);

void BM_CountPlanScalarRef(benchmark::State& state) {
  RunCountPlan(state, simd::CountPlanNScalarRef, {kOccupation, kEducation},
               false);
}
BENCHMARK(BM_CountPlanScalarRef);

void BM_CountPlanNKernel(benchmark::State& state) {
  RunCountPlan(state, simd::CountPlanN, {kOccupation, kEducation, kGender},
               true);
  state.SetLabel(simd::TierName(simd::ActiveTier()));
}
BENCHMARK(BM_CountPlanNKernel);

void BM_CountPlanNScalarRef(benchmark::State& state) {
  RunCountPlan(state, simd::CountPlanNScalarRef,
               {kOccupation, kEducation, kGender}, false);
}
BENCHMARK(BM_CountPlanNScalarRef);

void BM_CountPlanReferenceLoop(benchmark::State& state) {
  const Dataset& dataset = CountingCensus();
  const MarginalSpec spec{{kOccupation, kEducation}};
  for (auto _ : state) {
    auto marginal = Marginal::Compute(dataset, spec);
    benchmark::DoNotOptimize(marginal);
  }
  state.SetItemsProcessed(state.iterations() * dataset.num_rows());
}
BENCHMARK(BM_CountPlanReferenceLoop);

void BM_NoiseDownCreate(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0));
  for (auto _ : state) {
    auto dist =
        NoiseDownDistribution::Create(100.0, 140.0, lambda, lambda * 0.9);
    benchmark::DoNotOptimize(dist);
  }
}
BENCHMARK(BM_NoiseDownCreate)->Arg(10)->Arg(1000)->Arg(100000);

void BM_NoiseDownSample(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0));
  auto dist =
      NoiseDownDistribution::Create(100.0, 140.0, lambda, lambda * 0.9);
  BitGen gen(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist->Sample(gen));
  }
}
BENCHMARK(BM_NoiseDownSample)->Arg(10)->Arg(1000)->Arg(100000);

void BM_NoiseDownEndToEnd(benchmark::State& state) {
  BitGen gen(3);
  double y = 150.0;
  for (auto _ : state) {
    auto yp = NoiseDown(100.0, y, 50.0, 45.0, gen);
    benchmark::DoNotOptimize(yp);
  }
}
BENCHMARK(BM_NoiseDownEndToEnd);

// iReduct's real access pattern: one λ → λ' step (a 1/150 decrement at
// release scale) shared by every query of a 3,000-cell group.
void BM_NoiseDownStepSample(benchmark::State& state) {
  constexpr size_t kGroup = 3000;
  constexpr double kLambda = 2e4;
  BitGen gen(5);
  std::vector<double> mu(kGroup), y(kGroup), out(kGroup);
  for (size_t i = 0; i < kGroup; ++i) {
    mu[i] = 20'000.0 / static_cast<double>(1 + i % 97);
    y[i] = mu[i] + gen.Laplace(kLambda);
  }
  for (auto _ : state) {
    auto step = NoiseDownStep::Create(kLambda, kLambda - kLambda / 150);
    for (size_t i = 0; i < kGroup; ++i) {
      out[i] = *step->Sample(mu[i], y[i], gen);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kGroup);
}
BENCHMARK(BM_NoiseDownStepSample);

void BM_CoupledNoiseDown(benchmark::State& state) {
  BitGen gen(4);
  for (auto _ : state) {
    auto yp = CoupledNoiseDown(100.0, 150.0, 50.0, 45.0, gen);
    benchmark::DoNotOptimize(yp);
  }
}
BENCHMARK(BM_CoupledNoiseDown);

void BM_MarginalCompute(benchmark::State& state) {
  CensusConfig config;
  config.rows = 100'000;
  static const Dataset* dataset = [] {
    CensusConfig c;
    c.rows = 100'000;
    return new Dataset(std::move(*GenerateCensus(c)));
  }();
  const int dims = static_cast<int>(state.range(0));
  const MarginalSpec spec =
      dims == 1 ? MarginalSpec{{kOccupation}}
                : MarginalSpec{{kOccupation, kEducation}};
  for (auto _ : state) {
    auto marginal = Marginal::Compute(*dataset, spec);
    benchmark::DoNotOptimize(marginal);
  }
  state.SetItemsProcessed(state.iterations() * dataset->num_rows());
}
BENCHMARK(BM_MarginalCompute)->Arg(1)->Arg(2);

// Evaluation-layer baseline feeding BENCH_EVAL.json (bench/eval_scaling):
// all k-way marginals over 100k census rows, per-marginal scans vs the
// fused single-pass evaluator at 1 and N threads. Outputs are
// bit-identical across all four variants (enforced by
// marginal_evaluator_test.cc); these benches measure only the cost gap.

// One Marginal::Compute dataset scan per spec — the historical path.
void BM_MarginalSetPerMarginal(benchmark::State& state) {
  static const Dataset* dataset = [] {
    CensusConfig c;
    c.rows = 100'000;
    return new Dataset(std::move(*GenerateCensus(c)));
  }();
  const int arity = static_cast<int>(state.range(0));
  const auto specs = AllKWaySpecs(dataset->schema(), arity);
  for (auto _ : state) {
    for (const MarginalSpec& spec : *specs) {
      auto marginal = Marginal::Compute(*dataset, spec);
      benchmark::DoNotOptimize(marginal);
    }
  }
  state.SetItemsProcessed(state.iterations() * dataset->num_rows() *
                          specs->size());
}
BENCHMARK(BM_MarginalSetPerMarginal)->Arg(1)->Arg(2);

// Fused single pass; threads = state.range(1) (1 = no pool).
void BM_MarginalSetFused(benchmark::State& state) {
  static const Dataset* dataset = [] {
    CensusConfig c;
    c.rows = 100'000;
    return new Dataset(std::move(*GenerateCensus(c)));
  }();
  const int arity = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const auto specs = AllKWaySpecs(dataset->schema(), arity);
  auto evaluator = MarginalSetEvaluator::Create(dataset->schema(), *specs);
  ThreadPool pool(threads);
  for (auto _ : state) {
    auto marginals =
        evaluator->Compute(*dataset, {}, threads > 1 ? &pool : nullptr);
    benchmark::DoNotOptimize(marginals);
  }
  state.SetItemsProcessed(state.iterations() * dataset->num_rows() *
                          specs->size());
}
BENCHMARK(BM_MarginalSetFused)
    ->Args({1, 1})
    ->Args({1, 8})
    ->Args({2, 1})
    ->Args({2, 8});

void BM_GeneralizedSensitivity(benchmark::State& state) {
  const size_t groups = static_cast<size_t>(state.range(0));
  std::vector<double> answers(groups * 4, 10.0);
  std::vector<QueryGroup> gs;
  for (uint32_t g = 0; g < groups; ++g) {
    gs.push_back(QueryGroup{"g", g * 4, (g + 1) * 4, 2.0});
  }
  auto w = Workload::Create(std::move(answers), std::move(gs));
  const std::vector<double> scales(groups, 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w->GeneralizedSensitivity(scales));
  }
}
BENCHMARK(BM_GeneralizedSensitivity)->Arg(9)->Arg(36)->Arg(256);

// A per-query workload of `groups` single-query groups — the shape where
// the incremental engine's advantage is largest.
Workload PerQueryWorkload(size_t groups) {
  std::vector<double> answers(groups);
  std::vector<QueryGroup> gs;
  gs.reserve(groups);
  for (uint32_t g = 0; g < groups; ++g) {
    answers[g] = 1.0 + static_cast<double>(g % 997);
    gs.push_back(QueryGroup{"q", g, g + 1, 1.0});
  }
  return std::move(*Workload::Create(std::move(answers), std::move(gs)));
}

// The naive per-iteration GS cost: one full O(m) recompute.
void BM_GsFullRecompute(benchmark::State& state) {
  const size_t groups = static_cast<size_t>(state.range(0));
  const Workload w = PerQueryWorkload(groups);
  const std::vector<double> scales(groups, 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.GeneralizedSensitivity(scales));
  }
  state.SetItemsProcessed(state.iterations() * groups);
}
BENCHMARK(BM_GsFullRecompute)->Arg(256)->Arg(4096)->Arg(65536);

// The incremental per-iteration GS cost: one O(1) trial + commit pair
// (amortizing the periodic full resync at the default interval).
void BM_GsIncrementalTrialCommit(benchmark::State& state) {
  const size_t groups = static_cast<size_t>(state.range(0));
  const Workload w = PerQueryWorkload(groups);
  std::vector<double> scales(groups, 1e9);
  IncrementalSensitivity tracker(w, scales);
  BitGen gen(9);
  size_t g = 0;
  for (auto _ : state) {
    const double next = tracker.scales()[g] * 0.999999;
    benchmark::DoNotOptimize(tracker.Trial(g, next));
    tracker.Commit(g, next);
    g = (g + 1) % groups;
  }
}
BENCHMARK(BM_GsIncrementalTrialCommit)->Arg(256)->Arg(4096)->Arg(65536);

// The naive per-iteration selection cost: one O(m + n) linear scan.
void BM_PickGroupLinearScan(benchmark::State& state) {
  const size_t groups = static_cast<size_t>(state.range(0));
  const Workload w = PerQueryWorkload(groups);
  BitGen gen(10);
  std::vector<double> noisy(w.num_queries());
  for (double& y : noisy) y = gen.Uniform(1.0, 1000.0);
  const std::vector<double> scales(groups, 100.0);
  const std::vector<uint8_t> active(groups, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PickGroupIReduct(w, noisy, scales, active, 1.0, 2.0));
  }
  state.SetItemsProcessed(state.iterations() * groups);
}
BENCHMARK(BM_PickGroupLinearScan)->Arg(256)->Arg(4096)->Arg(65536);

// The incremental per-iteration selection cost: one heap pop + the
// re-push of the consumed group after its (simulated) scale move.
void BM_PickGroupHeapCycle(benchmark::State& state) {
  const size_t groups = static_cast<size_t>(state.range(0));
  const Workload w = PerQueryWorkload(groups);
  BitGen gen(11);
  std::vector<double> noisy(w.num_queries());
  for (double& y : noisy) y = gen.Uniform(1.0, 1000.0);
  std::vector<double> scales(groups, 1e9);
  const std::vector<uint8_t> active(groups, 1);
  GroupScoreHeap heap(w, SelectionRule::kIReductRatio, 1.0, 2.0);
  heap.Build(noisy, scales, active);
  for (auto _ : state) {
    const size_t g = heap.PopBest();
    scales[g] *= 0.999999;
    heap.Update(g, noisy, scales);
  }
}
BENCHMARK(BM_PickGroupHeapCycle)->Arg(256)->Arg(4096)->Arg(65536);

void BM_TreeStrategyPublish(benchmark::State& state) {
  const size_t bins = static_cast<size_t>(state.range(0));
  std::vector<double> counts(bins);
  for (size_t b = 0; b < bins; ++b) counts[b] = 1000.0 / (1 + b);
  const Strategy tree = Strategy::Tree(bins);
  BitGen gen(6);
  for (auto _ : state) {
    auto h = tree.Publish(counts, 0.5, 2.0, tree.row_multipliers(), gen);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_TreeStrategyPublish)->Arg(64)->Arg(1024);

void BM_HaarStrategyPublish(benchmark::State& state) {
  const size_t bins = static_cast<size_t>(state.range(0));
  std::vector<double> counts(bins);
  for (size_t b = 0; b < bins; ++b) counts[b] = 1000.0 / (1 + b);
  const Strategy haar = Strategy::Haar(bins);
  BitGen gen(7);
  for (auto _ : state) {
    auto h = haar.Publish(counts, 0.5, 2.0, haar.row_multipliers(), gen);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_HaarStrategyPublish)->Arg(64)->Arg(1024);

// Sparse workload-matrix mat-vec: the per-trial cost of answering a
// prefix workload through the linear view (W·x̂ after reconstruction).
void BM_SparseMatVecPrefix(benchmark::State& state) {
  const size_t bins = static_cast<size_t>(state.range(0));
  std::vector<double> histogram(bins);
  for (size_t b = 0; b < bins; ++b) histogram[b] = 1000.0 / (1 + b);
  auto lw = RangeLinearWorkload(histogram, PrefixRanges(bins));
  IREDUCT_CHECK(lw.ok());
  std::vector<double> out(lw->num_queries());
  for (auto _ : state) {
    lw->matrix().MatVec(lw->histogram(), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(lw->matrix().nnz()));
}
BENCHMARK(BM_SparseMatVecPrefix)->Arg(64)->Arg(256)->Arg(1024);

// Least-squares reconstruction alone (no noise draw): the tree BLUE and
// the inverse Haar at natural scales.
void BM_StrategyReconstruct(benchmark::State& state) {
  const size_t bins = static_cast<size_t>(state.range(1));
  std::vector<double> counts(bins);
  for (size_t b = 0; b < bins; ++b) counts[b] = 1000.0 / (1 + b);
  const Strategy s =
      state.range(0) == 0 ? Strategy::Tree(bins) : Strategy::Haar(bins);
  const std::vector<double> rows = s.RowAnswers(counts);
  const std::vector<double> scales(s.num_rows(), 3.0);
  for (auto _ : state) {
    auto x = s.Reconstruct(rows, scales);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_StrategyReconstruct)
    ->Args({0, 256})
    ->Args({0, 4096})
    ->Args({1, 256})
    ->Args({1, 4096});

void BM_MakeMutuallyConsistent(benchmark::State& state) {
  // A 1D+2D marginal set over a small synthetic table, perturbed.
  CensusConfig config;
  config.rows = 20'000;
  static const Dataset* dataset =
      new Dataset(std::move(*GenerateCensus(config)));
  std::vector<Marginal> noisy;
  {
    auto one = Marginal::Compute(*dataset, MarginalSpec{{kEducation}});
    auto two = Marginal::Compute(
        *dataset, MarginalSpec{{kEducation, kClassOfWorker}});
    BitGen gen(8);
    for (const Marginal* m : {&*one, &*two}) {
      std::vector<double> counts(m->counts().begin(), m->counts().end());
      for (double& c : counts) c += gen.Laplace(5.0);
      noisy.push_back(std::move(
          *Marginal::FromCounts(m->spec(), m->domain_sizes(), counts)));
    }
  }
  ConsistencyOptions options;
  options.target_total = 20'000;
  for (auto _ : state) {
    auto repaired = MakeMutuallyConsistent(noisy, options);
    benchmark::DoNotOptimize(repaired);
  }
}
BENCHMARK(BM_MakeMutuallyConsistent);

void BM_IReductSmallWorkload(benchmark::State& state) {
  std::vector<double> answers;
  std::vector<QueryGroup> groups;
  for (uint32_t g = 0; g < 9; ++g) {
    for (int c = 0; c < 16; ++c) answers.push_back(5.0 + 100.0 * g);
    groups.push_back(QueryGroup{"g", g * 16, (g + 1) * 16, 2.0});
  }
  auto w = Workload::Create(std::move(answers), std::move(groups));
  IReductParams p;
  p.epsilon = 0.1;
  p.delta = 1.0;
  p.lambda_max = 2000;
  p.lambda_delta = 20;
  BitGen gen(5);
  for (auto _ : state) {
    auto out = RunIReduct(*w, p, gen);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_IReductSmallWorkload);

}  // namespace

BENCHMARK_MAIN();
