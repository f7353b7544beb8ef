// Out-of-core evaluation parity: MarginalSetEvaluator::ComputeStreaming
// over a columnar file must be bit-identical to per-spec Marginal::Compute
// (and to the in-memory fused pass) at every thread count, block size,
// layout, and seed. Counts are integers, so "bit-identical" is the right
// bar — any divergence is a real bug, not rounding.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "data/census_generator.h"
#include "data/columnar.h"
#include "marginals/marginal.h"
#include "marginals/marginal_evaluator.h"
#include "marginals/marginal_set.h"
#include "../test_dir.h"

namespace ireduct {
namespace {

class StreamingEvaluatorTest : public testing::Test {
 protected:
  CaseTempDir dir_;
  const std::string path_ = dir_.File("ireduct_streaming_test.col");
};

Dataset MakeCensus(uint64_t seed, uint64_t rows = 9'000) {
  CensusConfig config;
  config.rows = rows;
  config.seed = seed;
  auto d = GenerateCensus(config);
  EXPECT_TRUE(d.ok());
  return std::move(d).value();
}

std::vector<Marginal> Reference(const Dataset& dataset,
                                const std::vector<MarginalSpec>& specs) {
  std::vector<Marginal> out;
  out.reserve(specs.size());
  for (const MarginalSpec& spec : specs) {
    auto m = Marginal::Compute(dataset, spec);
    EXPECT_TRUE(m.ok());
    out.push_back(std::move(*m));
  }
  return out;
}

void ExpectBitIdentical(const std::vector<Marginal>& got,
                        const std::vector<Marginal>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].num_cells(), want[i].num_cells()) << what;
    ASSERT_EQ(std::memcmp(got[i].counts().data(), want[i].counts().data(),
                          got[i].num_cells() * sizeof(double)),
              0)
        << what << ": marginal " << i << " diverges";
  }
}

TEST_F(StreamingEvaluatorTest, MatchesPerSpecComputeAcrossEverything) {
  // Thread counts, block sizes (including a non-power-of-two and one
  // leaving a short last block), both layouts, three seeds.
  for (const uint64_t seed : {1ull, 2ull, 3ull}) {
    const Dataset dataset = MakeCensus(seed);
    auto specs = AllKWaySpecs(dataset.schema(), 2);
    ASSERT_TRUE(specs.ok());
    const std::vector<Marginal> reference = Reference(dataset, *specs);
    auto evaluator = MarginalSetEvaluator::Create(dataset.schema(), *specs);
    ASSERT_TRUE(evaluator.ok());

    for (const uint32_t block_rows : {512u, 2'000u, 16'384u}) {
      for (const bool zero_copy : {false, true}) {
        ColumnarWriteOptions options;
        options.block_rows = block_rows;
        options.zero_copy_layout = zero_copy;
        ASSERT_TRUE(WriteColumnar(dataset, path_, options).ok());
        auto file = ColumnarFile::Open(path_);
        ASSERT_TRUE(file.ok()) << file.status();

        for (const int threads : {1, 2, 8}) {
          ThreadPool pool(threads);
          auto streamed = evaluator->ComputeStreaming(
              *file, threads > 1 ? &pool : nullptr);
          ASSERT_TRUE(streamed.ok()) << streamed.status();
          ExpectBitIdentical(
              *streamed, reference,
              "seed " + std::to_string(seed) + " block_rows " +
                  std::to_string(block_rows) + " zero_copy " +
                  std::to_string(zero_copy) + " threads " +
                  std::to_string(threads));
        }
      }
    }
  }
}

TEST_F(StreamingEvaluatorTest, HighArityPlansStreamIdentically) {
  // 3-way and 4-way specs exercise the general-arity counting kernel
  // inside the streaming pass.
  const Dataset dataset = MakeCensus(4, 6'000);
  std::vector<MarginalSpec> specs = {
      MarginalSpec{{kAge, kGender, kMaritalStatus}},
      MarginalSpec{{kGender, kMaritalStatus, kEducation, kClassOfWorker}},
      MarginalSpec{{kState}},
  };
  const std::vector<Marginal> reference = Reference(dataset, specs);
  auto evaluator = MarginalSetEvaluator::Create(dataset.schema(), specs);
  ASSERT_TRUE(evaluator.ok());

  ColumnarWriteOptions options;
  options.block_rows = 1'024;
  ASSERT_TRUE(WriteColumnar(dataset, path_, options).ok());
  auto file = ColumnarFile::Open(path_);
  ASSERT_TRUE(file.ok());
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    auto streamed =
        evaluator->ComputeStreaming(*file, threads > 1 ? &pool : nullptr);
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    ExpectBitIdentical(*streamed, reference,
                       "high-arity threads " + std::to_string(threads));
  }
}

TEST_F(StreamingEvaluatorTest, MatchesInMemoryComputeOverBackedDataset) {
  // The same file consumed three ways — streaming, materialized zero-copy
  // dataset, owned decode — must agree bit for bit.
  const Dataset dataset = MakeCensus(5, 4'000);
  auto specs = AllKWaySpecs(dataset.schema(), 1);
  ASSERT_TRUE(specs.ok());
  auto evaluator = MarginalSetEvaluator::Create(dataset.schema(), *specs);
  ASSERT_TRUE(evaluator.ok());

  ColumnarWriteOptions options;
  options.zero_copy_layout = true;
  options.block_rows = 1'000;
  ASSERT_TRUE(WriteColumnar(dataset, path_, options).ok());
  auto file = ColumnarFile::Open(path_);
  ASSERT_TRUE(file.ok());
  auto backed = file->ToDataset();
  ASSERT_TRUE(backed.ok());

  auto inmem = evaluator->Compute(dataset);
  auto from_backed = evaluator->Compute(*backed);
  auto streamed = evaluator->ComputeStreaming(*file);
  ASSERT_TRUE(inmem.ok() && from_backed.ok() && streamed.ok());
  ExpectBitIdentical(*from_backed, *inmem, "backed vs owned");
  ExpectBitIdentical(*streamed, *inmem, "streamed vs owned");
}

TEST_F(StreamingEvaluatorTest, RejectsMismatchedSchema) {
  const Dataset dataset = MakeCensus(6, 2'000);
  ASSERT_TRUE(WriteColumnar(dataset, path_).ok());
  auto file = ColumnarFile::Open(path_);
  ASSERT_TRUE(file.ok());

  // An evaluator planned over a wider schema must refuse the file.
  auto wide = Schema::Create({{"A", 4},
                              {"B", 4},
                              {"C", 4},
                              {"D", 4},
                              {"E", 4},
                              {"F", 4},
                              {"G", 4},
                              {"H", 4},
                              {"I", 4},
                              {"J", 4}});
  ASSERT_TRUE(wide.ok());
  auto evaluator = MarginalSetEvaluator::Create(
      *wide, {MarginalSpec{{9}}});
  ASSERT_TRUE(evaluator.ok());
  EXPECT_FALSE(evaluator->ComputeStreaming(*file).ok());

  // And one planned over larger domains than the file provides.
  auto big = Schema::Create({{"Age", 50'000}});
  ASSERT_TRUE(big.ok());
  auto evaluator2 =
      MarginalSetEvaluator::Create(*big, {MarginalSpec{{0}}});
  ASSERT_TRUE(evaluator2.ok());
  EXPECT_FALSE(evaluator2->ComputeStreaming(*file).ok());
}

TEST_F(StreamingEvaluatorTest, EmptyFileYieldsZeroTables) {
  auto schema = CensusSchema(CensusKind::kBrazil);
  ASSERT_TRUE(schema.ok());
  const Dataset empty(*schema);
  ASSERT_TRUE(WriteColumnar(empty, path_).ok());
  auto file = ColumnarFile::Open(path_);
  ASSERT_TRUE(file.ok());
  auto specs = AllKWaySpecs(*schema, 1);
  ASSERT_TRUE(specs.ok());
  auto evaluator = MarginalSetEvaluator::Create(*schema, *specs);
  ASSERT_TRUE(evaluator.ok());
  auto streamed = evaluator->ComputeStreaming(*file);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  ASSERT_EQ(streamed->size(), specs->size());
  for (const Marginal& m : *streamed) {
    for (size_t i = 0; i < m.num_cells(); ++i) {
      ASSERT_EQ(m.count(i), 0.0);
    }
  }
}

}  // namespace
}  // namespace ireduct
