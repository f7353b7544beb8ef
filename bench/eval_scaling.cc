// Evaluation-layer scaling study: the fused marginal evaluator and the
// true-answer cache vs the naive per-marginal scan loop.
//
// Section 1 — fused vs per-marginal: wall-clock of computing all k-way
// marginals over synthetic census data, swept over rows × marginal arity
// × thread count. Every fused result is compared bit-for-bit against
// per-spec Marginal::Compute; the bench exits nonzero on any mismatch,
// so the reported speedups always compare identical outputs.
//
// Section 2 — fig08/09 end-to-end: the exact true-table evaluation work
// the 2D figure bench performs (five CensusSetup constructions: Brazil
// and US for Figure 8, both again for Figure 9, Brazil once more for the
// runtime remark), timed on the historical path (a fresh per-marginal
// scan loop per setup) and on the engine path (fused passes + the
// process-wide MarginalCache, cleared first so the engine starts cold).
// The acceptance bar is a >= EVAL_MIN_SPEEDUP speedup (default 3).
//
// Results land in BENCH_EVAL.json in the working directory.
//
// Environment knobs:
//   EVAL_ROWS         comma-separated Section 1 row counts
//                     (default "50000,200000").
//   EVAL_THREADS      comma-separated Section 1 thread counts
//                     (default "1,2,8").
//   EVAL_E2E_THREADS  engine-path thread count for Section 2 (default 8).
//   EVAL_MIN_SPEEDUP  Section 2 failure threshold; 0 disables
//                     (default 3).
//   CENSUS_ROWS       Section 2 dataset size, as in every figure bench.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "data/census_generator.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"
#include "marginals/marginal_cache.h"
#include "marginals/marginal_evaluator.h"
#include "marginals/marginal_set.h"
#include "obs/json.h"

namespace {

using namespace ireduct;

double Seconds(const std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Per-marginal reference path: one Marginal::Compute scan per spec.
std::vector<Marginal> NaiveCompute(const Dataset& dataset,
                                   const std::vector<MarginalSpec>& specs) {
  std::vector<Marginal> out;
  out.reserve(specs.size());
  for (const MarginalSpec& spec : specs) {
    auto m = Marginal::Compute(dataset, spec);
    IREDUCT_CHECK(m.ok());
    out.push_back(std::move(*m));
  }
  return out;
}

bool BitIdentical(const std::vector<Marginal>& a,
                  const std::vector<Marginal>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].num_cells() != b[i].num_cells()) return false;
    if (std::memcmp(a[i].counts().data(), b[i].counts().data(),
                    a[i].num_cells() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool RunFusedSection(obs::JsonWriter& writer) {
  bool ok = true;
  TablePrinter table(
      {"rows", "arity", "threads", "naive_s", "fused_s", "speedup"});
  writer.Key("fused_vs_naive");
  writer.BeginArray();
  for (const int rows : EnvIntList("EVAL_ROWS", {50'000, 200'000})) {
    CensusConfig config;
    config.rows = static_cast<uint64_t>(rows);
    config.seed = 2011;
    auto dataset = GenerateCensus(config);
    IREDUCT_CHECK(dataset.ok());
    for (const int arity : {1, 2}) {
      auto specs = AllKWaySpecs(dataset->schema(), arity);
      IREDUCT_CHECK(specs.ok());
      const auto naive_start = std::chrono::steady_clock::now();
      const std::vector<Marginal> reference = NaiveCompute(*dataset, *specs);
      const double naive_s = Seconds(naive_start);
      auto evaluator =
          MarginalSetEvaluator::Create(dataset->schema(), *specs);
      IREDUCT_CHECK(evaluator.ok());
      for (const int threads : EnvIntList("EVAL_THREADS", {1, 2, 8})) {
        ThreadPool pool(threads);
        const auto fused_start = std::chrono::steady_clock::now();
        auto fused =
            evaluator->Compute(*dataset, {}, threads > 1 ? &pool : nullptr);
        const double fused_s = Seconds(fused_start);
        IREDUCT_CHECK(fused.ok());
        if (!BitIdentical(reference, *fused)) {
          std::cerr << "PARITY FAILURE: fused != per-marginal at rows="
                    << rows << " arity=" << arity << " threads=" << threads
                    << "\n";
          ok = false;
        }
        const double speedup = fused_s > 0 ? naive_s / fused_s : 0.0;
        table.AddRow({std::to_string(rows), std::to_string(arity),
                      std::to_string(threads),
                      TablePrinter::Cell(naive_s, 4),
                      TablePrinter::Cell(fused_s, 4),
                      TablePrinter::Cell(speedup, 2)});
        writer.BeginObject();
        writer.Key("rows");
        writer.UInt(static_cast<uint64_t>(rows));
        writer.Key("arity");
        writer.UInt(static_cast<uint64_t>(arity));
        writer.Key("threads");
        writer.UInt(static_cast<uint64_t>(threads));
        writer.Key("naive_seconds");
        writer.Double(naive_s);
        writer.Key("fused_seconds");
        writer.Double(fused_s);
        writer.Key("speedup");
        writer.Double(speedup);
        writer.EndObject();
      }
    }
  }
  writer.EndArray();
  std::cout << "Fused marginal evaluation vs per-marginal scans "
               "(bit-identical outputs enforced)\n\n";
  table.Print(std::cout);
  std::cout << '\n';
  return ok;
}

bool RunEndToEndSection(obs::JsonWriter& writer) {
  // The fig08/09 true-table evaluation sequence: Figure 8 builds Brazil
  // and US setups, Figure 9 builds both again, the runtime remark builds
  // Brazil a fifth time.
  const std::vector<CensusKind> sequence = {
      CensusKind::kBrazil, CensusKind::kUs, CensusKind::kBrazil,
      CensusKind::kUs, CensusKind::kBrazil};
  // Default the engine pool to the real core count (capped at 8): a pool
  // wider than the machine buys no parallelism, and the evaluator clamps
  // its shard count to hardware_concurrency anyway, so asking for more
  // only measures pool overhead.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int threads = static_cast<int>(
      EnvInt64("EVAL_E2E_THREADS",
               static_cast<int64_t>(std::min(8u, hw))));

  // Force dataset generation out of both timed paths.
  for (CensusKind kind : {CensusKind::kBrazil, CensusKind::kUs}) {
    bench::GetCensus(kind);
  }

  const auto naive_start = std::chrono::steady_clock::now();
  size_t naive_tables = 0;
  for (CensusKind kind : sequence) {
    const Dataset& dataset = bench::GetCensus(kind);
    auto specs = AllKWaySpecs(dataset.schema(), 2);
    IREDUCT_CHECK(specs.ok());
    naive_tables += NaiveCompute(dataset, *specs).size();
  }
  const double naive_s = Seconds(naive_start);

  MarginalCache::Global().Clear();
  ThreadPool pool(threads);
  const auto engine_start = std::chrono::steady_clock::now();
  size_t engine_tables = 0;
  for (CensusKind kind : sequence) {
    const Dataset& dataset = bench::GetCensus(kind);
    auto specs = AllKWaySpecs(dataset.schema(), 2);
    IREDUCT_CHECK(specs.ok());
    auto marginals = MarginalCache::Global().GetOrCompute(
        bench::GetCensusFingerprint(kind), dataset, *specs,
        threads > 1 ? &pool : nullptr);
    IREDUCT_CHECK(marginals.ok());
    engine_tables += marginals->size();
  }
  const double engine_s = Seconds(engine_start);
  IREDUCT_CHECK(engine_tables == naive_tables);

  const double speedup = engine_s > 0 ? naive_s / engine_s : 0.0;
  const double min_speedup = EnvNonNegativeDouble("EVAL_MIN_SPEEDUP", 3);
  const bool ok = min_speedup <= 0 || speedup >= min_speedup;

  writer.Key("fig08_09_end_to_end");
  writer.BeginObject();
  writer.Key("setups");
  writer.UInt(sequence.size());
  writer.Key("true_tables");
  writer.UInt(naive_tables);
  writer.Key("threads");
  writer.UInt(static_cast<uint64_t>(threads));
  writer.Key("naive_seconds");
  writer.Double(naive_s);
  writer.Key("engine_seconds");
  writer.Double(engine_s);
  writer.Key("speedup");
  writer.Double(speedup);
  writer.Key("min_speedup");
  writer.Double(min_speedup);
  writer.EndObject();

  std::cout << "fig08/09 end-to-end true-table evaluation (" << sequence.size()
            << " setups, " << naive_tables << " tables):\n  naive "
            << naive_s << " s, engine (fused + cache, " << threads
            << " threads) " << engine_s << " s -> " << speedup << "x\n";
  if (!ok) {
    std::cerr << "SPEEDUP FAILURE: " << speedup << "x < required "
              << min_speedup << "x\n";
  }
  return ok;
}

// Phase breakdown of one fig08/09-style release on the Brazil k=2 task:
// true-table evaluation, the noise mechanism itself, and post-processing
// back to marginal tables + error scoring. A runtime regression in the
// end-to-end number becomes attributable to a phase from BENCH_EVAL.json
// alone, without rerunning anything under a profiler.
void RunPhaseSection(obs::JsonWriter& writer) {
  MarginalCache::Global().Clear();  // time a cold true-table pass
  const auto true_table_start = std::chrono::steady_clock::now();
  bench::CensusSetup setup = bench::BuildCensusSetup(CensusKind::kBrazil, 2);
  const double true_table_s = Seconds(true_table_start);

  const double epsilon = 0.05;
  auto spec = MechanismSpec::Parse("ireduct");
  IREDUCT_CHECK(spec.ok());
  auto mechanism = MechanismRegistry::Global().Get("ireduct");
  IREDUCT_CHECK(mechanism.ok());
  (*mechanism)->SetSpecDefault(&spec.value(), "epsilon", epsilon);
  (*mechanism)->SetSpecDefault(&spec.value(), "delta", setup.delta);
  (*mechanism)->SetSpecDefault(&spec.value(), "lambda_max",
                               setup.lambda_max);
  (*mechanism)->SetSpecDefault(&spec.value(), "lambda_delta",
                               setup.lambda_delta);
  BitGen gen(2011);
  const auto noise_start = std::chrono::steady_clock::now();
  auto answers =
      bench::SpecMechanism(*spec)(setup.workload.workload(), gen);
  const double noise_s = Seconds(noise_start);
  IREDUCT_CHECK(answers.ok());

  const auto post_start = std::chrono::steady_clock::now();
  auto noisy = setup.workload.ToMarginals(*answers);
  IREDUCT_CHECK(noisy.ok());
  const double overall =
      OverallError(setup.workload.workload(), *answers, setup.delta);
  const double post_s = Seconds(post_start);

  writer.Key("phases");
  writer.BeginObject();
  writer.Key("rows");
  writer.UInt(static_cast<uint64_t>(setup.n));
  writer.Key("epsilon");
  writer.Double(epsilon);
  writer.Key("true_table_seconds");
  writer.Double(true_table_s);
  writer.Key("noise_seconds");
  writer.Double(noise_s);
  writer.Key("postprocess_seconds");
  writer.Double(post_s);
  writer.Key("overall_error");
  writer.Double(overall);
  writer.EndObject();

  std::cout << "phase breakdown (Brazil k=2, epsilon " << epsilon
            << "): true tables " << true_table_s << " s, noise " << noise_s
            << " s, post-process " << post_s << " s\n";
}

}  // namespace

int main() {
  std::string json;
  obs::JsonWriter writer(&json);
  writer.BeginObject();
  writer.KV("bench", "eval_engine_scaling");
  bench::WriteHostInfo(writer);
  const bool fused_ok = RunFusedSection(writer);
  const bool e2e_ok = RunEndToEndSection(writer);
  RunPhaseSection(writer);
  writer.Key("parity_ok");
  writer.Bool(fused_ok);
  writer.Key("end_to_end_ok");
  writer.Bool(e2e_ok);
  writer.EndObject();
  std::ofstream out("BENCH_EVAL.json");
  out << json << "\n";
  std::cout << "\nWrote BENCH_EVAL.json\n";
  bench::EmitMetricsSnapshot("eval_scaling");
  return fused_ok && e2e_ok ? 0 : 1;
}
