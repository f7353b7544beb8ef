#include "common/simd_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "eval/stats.h"

namespace ireduct {
namespace simd {
namespace {

// Lane states exactly as BitGen::LaplaceBatch builds them: four Fork
// substreams in lane order.
LaneStates StatesFromSeed(uint64_t seed) {
  BitGen gen(seed);
  LaneStates states;
  for (auto& lane : states) lane = gen.Fork().SaveState();
  return states;
}

std::vector<double> VariedScales(size_t n) {
  std::vector<double> scales(n);
  for (size_t i = 0; i < n; ++i) {
    scales[i] = 0.25 + static_cast<double>(i % 7);
  }
  return scales;
}

// A batch-Laplace run layout: run r ends at ends[r] with scale scales[r].
struct Runs {
  std::vector<size_t> ends;
  std::vector<double> scales;
  size_t size() const { return ends.empty() ? 0 : ends.back(); }
};

// One run per element: the per-element form every run layout expands to.
Runs OneRunPerElement(const std::vector<double>& scales) {
  Runs runs;
  for (size_t i = 0; i < scales.size(); ++i) {
    runs.ends.push_back(i + 1);
    runs.scales.push_back(scales[i]);
  }
  return runs;
}

void BatchLaplace(const LaneStates& states, const Runs& runs, double* out) {
  simd::BatchLaplace(states, runs.ends.data(), runs.scales.data(),
                     runs.ends.size(), out);
}

void BatchLaplaceScalarRef(const LaneStates& states, const Runs& runs,
                           double* out) {
  simd::BatchLaplaceScalarRef(states, runs.ends.data(), runs.scales.data(),
                              runs.ends.size(), out);
}

// Bitwise comparison: double equality would let a +0.0 / -0.0 divergence
// (or a NaN) slip through the parity bar.
void ExpectBitEqual(const std::vector<double>& got,
                    const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(got[i]),
              std::bit_cast<uint64_t>(want[i]))
        << what << " diverges from the scalar reference at element " << i
        << " (got " << got[i] << ", want " << want[i] << ")";
  }
}

// Sets IREDUCT_SIMD for the enclosing scope and re-resolves dispatch;
// restores the previous environment (and dispatch) on destruction.
class ScopedSimdOverride {
 public:
  explicit ScopedSimdOverride(const char* value) {
    const char* prev = std::getenv("IREDUCT_SIMD");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    ::setenv("IREDUCT_SIMD", value, 1);
    ResetDispatchForTesting();
  }
  ~ScopedSimdOverride() {
    if (had_prev_) {
      ::setenv("IREDUCT_SIMD", prev_.c_str(), 1);
    } else {
      ::unsetenv("IREDUCT_SIMD");
    }
    ResetDispatchForTesting();
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

// Batch sizes chosen to hit the empty batch, sub-lane-count batches, exact
// multiples of the 4-lane block, and large odd tails.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 16, 63, 1000, 1001};

TEST(SimdKernelsTest, BatchLaplaceMatchesScalarRefBitForBit) {
  for (const uint64_t seed : {1ull, 42ull, 9001ull}) {
    for (const size_t n : kSizes) {
      const LaneStates states = StatesFromSeed(seed);
      const Runs scales = OneRunPerElement(VariedScales(n));
      std::vector<double> got(n), want(n);
      BatchLaplace(states, scales, got.data());
      BatchLaplaceScalarRef(states, scales, want.data());
      ExpectBitEqual(got, want, "BatchLaplace");
    }
  }
}

TEST(SimdKernelsTest, BatchExponentialMatchesScalarRefBitForBit) {
  for (const uint64_t seed : {1ull, 42ull, 9001ull}) {
    for (const size_t n : kSizes) {
      const LaneStates states = StatesFromSeed(seed);
      std::vector<double> got(n), want(n);
      BatchExponential(states, 2.5, got.data(), n);
      BatchExponentialScalarRef(states, 2.5, want.data(), n);
      ExpectBitEqual(got, want, "BatchExponential");
    }
  }
}

// Every lane advances once per 4-element block including the padded tail,
// so a batch's outputs are a prefix of any longer batch from the same
// states — the batch size never changes which variate lands at index i.
TEST(SimdKernelsTest, BatchOutputIsPrefixStableAcrossLengths) {
  const LaneStates states = StatesFromSeed(7);
  const std::vector<double> scales = VariedScales(1001);
  std::vector<double> full(1001);
  BatchLaplace(states, OneRunPerElement(scales), full.data());
  for (const size_t n : {1ul, 5ul, 64ul, 999ul}) {
    std::vector<double> part(n);
    BatchLaplace(states,
                 OneRunPerElement({scales.begin(), scales.begin() + n}),
                 part.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(part[i]),
                std::bit_cast<uint64_t>(full[i]))
          << "batch of " << n << " diverges at " << i;
    }
  }
}

TEST(SimdKernelsTest, ForcedScalarOverrideDispatchesScalarTier) {
  ScopedSimdOverride off("off");
  EXPECT_EQ(ActiveTier(), Tier::kScalar);

  const LaneStates states = StatesFromSeed(3);
  const Runs scales = OneRunPerElement(VariedScales(257));
  std::vector<double> got(257), want(257);
  BatchLaplace(states, scales, got.data());
  BatchLaplaceScalarRef(states, scales, want.data());
  ExpectBitEqual(got, want, "forced-scalar BatchLaplace");
}

// Runs of the given lengths, cycled until they cover n elements (the last
// run is cut at n); run r's scale varies with r.
Runs CycledRuns(const std::vector<size_t>& lengths, size_t n) {
  Runs runs;
  for (size_t end = 0, r = 0; end < n; ++r) {
    end = std::min(n, end + lengths[r % lengths.size()]);
    runs.ends.push_back(end);
    runs.scales.push_back(0.5 + static_cast<double>(r % 5) * 1.75);
  }
  return runs;
}

std::vector<double> Expand(const Runs& runs) {
  std::vector<double> scales;
  for (size_t r = 0, i = 0; r < runs.ends.size(); ++r) {
    for (; i < runs.ends[r]; ++i) scales.push_back(runs.scales[r]);
  }
  return scales;
}

// The run-length kernel on each forced tier must equal the per-element
// reference (every run expanded to one run per element) bit for bit:
// runs of length 1-5 and 17, one run over the whole batch, runs that end
// mid-block, batch sizes around the 16-element batch threshold, and a
// partial final block. Both sides share the kernel's per-lane scale
// lookup, so each element is also checked against scale * (the same draw
// at scale 1): LaplaceFromBits rounds once, in (±scale) * log, so the two
// are the same double.
TEST(SimdKernelsTest, RunLengthBatchLaplaceMatchesExpandedReference) {
  const std::vector<std::vector<size_t>> kPatterns = {
      {1}, {2}, {3}, {4}, {5}, {17}, {1, 2, 3, 4, 5, 17}, {6, 3, 9, 2}};
  const size_t kBatch[] = {1, 2, 3, 4, 5, 15, 16, 17, 63, 1001};
  for (const char* tier : {"scalar", "avx2"}) {
    ScopedSimdOverride cap(tier);
    for (const uint64_t seed : {5ull, 77ull}) {
      const LaneStates states = StatesFromSeed(seed);
      for (const size_t n : kBatch) {
        std::vector<double> unit(n);
        BatchLaplaceScalarRef(states, Runs{{n}, {1.0}}, unit.data());
        std::vector<Runs> layouts;
        for (const auto& lengths : kPatterns) {
          layouts.push_back(CycledRuns(lengths, n));
        }
        layouts.push_back(CycledRuns({n}, n));  // a single run
        for (const Runs& runs : layouts) {
          ASSERT_EQ(runs.size(), n);
          std::vector<double> got(n), want(n);
          BatchLaplace(states, runs, got.data());
          const std::vector<double> scales = Expand(runs);
          BatchLaplaceScalarRef(states, OneRunPerElement(scales),
                                want.data());
          ExpectBitEqual(got, want, tier);
          for (size_t i = 0; i < n; ++i) want[i] = scales[i] * unit[i];
          ExpectBitEqual(got, want, tier);
        }
      }
    }
  }
}

TEST(SimdKernelsTest, OverrideCapsButNeverExceedsDetection) {
  {
    ScopedSimdOverride cap("scalar");
    EXPECT_EQ(ActiveTier(), Tier::kScalar);
  }
  {
    // avx2 is a cap, not a demand: detection still rules.
    ScopedSimdOverride cap("avx2");
    EXPECT_LE(static_cast<int>(ActiveTier()),
              static_cast<int>(DetectedTier()));
  }
  EXPECT_LE(static_cast<int>(ActiveTier()),
            static_cast<int>(DetectedTier()));
}

// The batch consumes exactly kBatchLanes Fork draws from the parent
// regardless of the batch size — the resume/checkpoint contract.
TEST(SimdKernelsTest, LaplaceBatchAdvancesParentByExactlyFourDraws) {
  for (const size_t n : {1ul, 5ul, 1000ul}) {
    BitGen batched(123), manual(123);
    std::vector<double> scales(1, 2.0), out(n);
    batched.LaplaceBatch(std::vector<size_t>{n}, scales, out);
    for (size_t i = 0; i < kBatchLanes; ++i) manual.Fork();
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(batched(), manual()) << "after batch of " << n;
    }
  }
}

// The batch stream is distinct from the per-element Laplace stream, but it
// must still be a Laplace(scale) sample: check the first two moments.
TEST(SimdKernelsTest, BatchLaplaceMatchesDistributionMoments) {
  constexpr size_t kSamples = 200'000;
  const double scale = 3.0;
  BitGen gen(2011);
  std::vector<double> sample(kSamples);
  gen.LaplaceBatch(std::vector<size_t>{kSamples}, std::vector<double>{scale},
                   sample);
  const SampleSummary s = Summarize(sample);
  EXPECT_NEAR(s.mean, 0.0, 0.05);
  EXPECT_NEAR(s.variance, 2 * scale * scale, 0.5);
}

TEST(SimdKernelsTest, BatchExponentialMatchesDistributionMoments) {
  constexpr size_t kSamples = 200'000;
  const double mean = 2.5;
  BitGen gen(2012);
  std::vector<double> sample(kSamples);
  gen.ExponentialBatch(mean, sample);
  const SampleSummary s = Summarize(sample);
  EXPECT_NEAR(s.mean, mean, 0.05);
  EXPECT_NEAR(s.variance, mean * mean, 0.25);
  EXPECT_GE(s.min, 0.0);
}

// ---------------------------------------------------------------------------
// Counting kernel (CountPlanN).

struct CountNFixture {
  std::vector<std::vector<uint16_t>> cols;
  std::vector<const uint16_t*> ptrs;
  std::vector<size_t> strides;
  std::vector<uint32_t> odd_rows;
  std::vector<size_t> domains;
  size_t cells = 1;

  CountNFixture(size_t rows, std::vector<size_t> d) : domains(std::move(d)) {
    BitGen gen(77);
    cols.resize(domains.size());
    strides.resize(domains.size());
    for (size_t k = 0; k < domains.size(); ++k) {
      cols[k].resize(rows);
      for (auto& v : cols[k]) {
        v = static_cast<uint16_t>(gen.UniformInt(domains[k]));
      }
      cells *= domains[k];
    }
    // Row-major strides, last attribute fastest.
    size_t stride = 1;
    for (size_t k = domains.size(); k-- > 0;) {
      strides[k] = stride;
      stride *= domains[k];
    }
    for (const auto& col : cols) ptrs.push_back(col.data());
    for (size_t r = 1; r < rows; r += 2) {
      odd_rows.push_back(static_cast<uint32_t>(r));
    }
  }

  CountPlanNArgs Args(std::vector<uint32_t>& counts,
                      std::vector<uint32_t>* scratch) const {
    CountPlanNArgs args;
    args.cols = ptrs.data();
    args.strides = strides.data();
    args.arity = domains.size();
    args.begin = 0;
    args.end = cols[0].size();
    args.cells = cells;
    counts.assign(cells, 0);
    args.counts = counts.data();
    if (scratch != nullptr) {
      scratch->resize(kBatchLanes * cells);
      args.lane_scratch = scratch->data();
    }
    return args;
  }
};

// One shape per kernel instantiation: the compile-time arities 1, 2 and 3,
// and the run-time-arity fallback at 4 and 6.
const std::vector<std::vector<size_t>> kCountShapes = {
    {13}, {13, 9}, {5, 3, 7}, {4, 2, 3, 5}, {2, 2, 2, 3, 3, 2}};

// Row counts around the AVX2 kernel's 16-row block: none at all, one block
// plus a 15-row tail, an exact multiple, and a large range with a 7-row
// tail.
const size_t kCountRows[] = {15, 31, 4'096, 10'007};

TEST(SimdKernelsTest, CountPlanNMatchesScalarRefAcrossArities) {
  for (const auto& domains : kCountShapes) {
    for (const size_t rows : kCountRows) {
      const CountNFixture f(rows, domains);
      std::vector<uint32_t> want, direct, striped, scratch;
      CountPlanNScalarRef(f.Args(want, nullptr));
      CountPlanN(f.Args(direct, nullptr));
      CountPlanN(f.Args(striped, &scratch));
      EXPECT_EQ(direct, want) << "arity " << domains.size() << ", " << rows
                              << " rows";
      EXPECT_EQ(striped, want) << "arity " << domains.size() << ", " << rows
                               << " rows";
      uint64_t total = 0;
      for (uint32_t c : want) total += c;
      EXPECT_EQ(total, rows);
    }
  }
}

TEST(SimdKernelsTest, CountPlanNMatchesOnRowSubsets) {
  for (const auto& domains : kCountShapes) {
    // 5,003 odd rows: not a multiple of 16.
    const CountNFixture f(10'007, domains);
    std::vector<uint32_t> want, direct, striped, scratch;
    CountPlanNArgs ref = f.Args(want, nullptr);
    ref.row_idx = f.odd_rows.data();
    ref.end = f.odd_rows.size();
    CountPlanNScalarRef(ref);
    for (std::vector<uint32_t>* got : {&direct, &striped}) {
      CountPlanNArgs args =
          f.Args(*got, got == &striped ? &scratch : nullptr);
      args.row_idx = f.odd_rows.data();
      args.end = f.odd_rows.size();
      CountPlanN(args);
      EXPECT_EQ(*got, want) << "arity " << domains.size()
                            << (got == &striped ? " striped" : " direct");
    }
  }
}

TEST(SimdKernelsTest, CountPlanNAccumulatesAndHonorsRanges) {
  for (const auto& domains : kCountShapes) {
    const CountNFixture f(4'096, domains);
    // A non-zero offset and a range length (4,074) that is not a multiple
    // of 16, added to pre-existing counts that must not be overwritten.
    const size_t begin = 17;
    const size_t end = 4'096 - 5;
    std::vector<uint32_t> want, direct, striped, scratch;
    CountPlanNArgs ref = f.Args(want, nullptr);
    ref.begin = begin;
    ref.end = end;
    want.assign(f.cells, 7);
    CountPlanNScalarRef(ref);
    for (std::vector<uint32_t>* got : {&direct, &striped}) {
      CountPlanNArgs args =
          f.Args(*got, got == &striped ? &scratch : nullptr);
      args.begin = begin;
      args.end = end;
      got->assign(f.cells, 7);
      CountPlanN(args);
      EXPECT_EQ(*got, want) << "arity " << domains.size()
                            << (got == &striped ? " striped" : " direct");
    }
    uint64_t total = 0;
    for (uint32_t c : want) total += c;
    EXPECT_EQ(total, (end - begin) + 7 * f.cells);
  }
}

TEST(SimdKernelsTest, CountPlanNForcedTiersAllAgree) {
  for (const auto& domains : kCountShapes) {
    const CountNFixture f(20'003, domains);
    std::vector<uint32_t> want, scratch;
    CountPlanNScalarRef(f.Args(want, nullptr));
    for (const char* tier : {"off", "avx2"}) {
      ScopedSimdOverride cap(tier);
      std::vector<uint32_t> direct, striped;
      CountPlanN(f.Args(direct, nullptr));
      CountPlanN(f.Args(striped, &scratch));
      EXPECT_EQ(direct, want) << "tier " << tier << ", arity "
                              << domains.size();
      EXPECT_EQ(striped, want) << "tier " << tier << ", arity "
                               << domains.size();
    }
  }
}

// The arity-1 and arity-2 cases on their own, at the shapes the marginal
// evaluator hits most often.

TEST(SimdKernelsTest, CountPlanStripedMatchesDirectArity2) {
  const CountNFixture f(10'000, {13, 9});
  std::vector<uint32_t> direct, striped, scratch;
  CountPlanNScalarRef(f.Args(direct, nullptr));
  CountPlanN(f.Args(striped, &scratch));
  EXPECT_EQ(striped, direct);
  uint64_t total = 0;
  for (uint32_t c : direct) total += c;
  EXPECT_EQ(total, f.cols[0].size());
}

TEST(SimdKernelsTest, CountPlanMatchesOnRowSubsets) {
  const CountNFixture f(10'000, {13, 9});
  std::vector<uint32_t> direct, dispatched, scratch;
  CountPlanNArgs ref = f.Args(direct, nullptr);
  ref.row_idx = f.odd_rows.data();
  ref.end = f.odd_rows.size();
  CountPlanNScalarRef(ref);
  CountPlanNArgs got = f.Args(dispatched, &scratch);
  got.row_idx = f.odd_rows.data();
  got.end = f.odd_rows.size();
  CountPlanN(got);
  EXPECT_EQ(dispatched, direct);
}

TEST(SimdKernelsTest, CountPlanArity1AndAccumulateSemantics) {
  const CountNFixture f(4'096, {13});
  std::vector<uint32_t> direct, dispatched, scratch;
  CountPlanNArgs ref = f.Args(direct, nullptr);
  CountPlanNArgs got = f.Args(dispatched, &scratch);
  for (CountPlanNArgs* args : {&ref, &got}) {
    args->begin = 17;  // non-zero offset exercises the range handling
    args->end = f.cols[0].size() - 5;
  }
  direct.assign(f.cells, 7);
  dispatched.assign(f.cells, 7);
  CountPlanNScalarRef(ref);
  CountPlanN(got);

  // Both paths must have *added to* the pre-existing 7s, not overwritten.
  EXPECT_EQ(dispatched, direct);
  uint64_t total = 0;
  for (uint32_t c : direct) total += c;
  EXPECT_EQ(total, (ref.end - ref.begin) + 7 * f.cells);
}

TEST(SimdKernelsTest, CountPlanForcedScalarMatchesDispatch) {
  const CountNFixture f(20'000, {13, 9});
  std::vector<uint32_t> fast, slow, scratch_a, scratch_b;
  CountPlanN(f.Args(fast, &scratch_a));
  {
    ScopedSimdOverride off("off");
    CountPlanN(f.Args(slow, &scratch_b));
  }
  EXPECT_EQ(fast, slow);
}

}  // namespace
}  // namespace simd
}  // namespace ireduct
