// Scaling studies (beyond the paper's plots).
//
// Section 1 — iReduct engine scaling: wall-clock of the full iReduct
// refinement loop, Figure 4's literal O(m) per-iteration loop (the naive
// reference in tests/support/ireduct_reference.h) vs RunIReduct (O(1) GS
// accounting + lazy-heap selection), on single-query per-group workloads
// with m in {10^2, 10^3, 10^4, 10^5}. Both run at the same seed; the bench
// fails (nonzero exit) if their epsilon_spent, overall error or iteration
// count disagree, so the speedup numbers are guaranteed to compare
// identical outputs. Results are written to BENCH_IREDUCT_SCALING.json in
// the working directory.
//
// Section 2 — error vs dataset cardinality: how the overall error of the
// 1D-marginal task depends on |T| at fixed ε. The noise scale is set by ε
// alone, while the counts grow linearly with |T| and the sanity bound
// δ = 1e-4·|T| grows with them — so the overall error shrinks roughly
// like 1/|T|. This is the calibration behind EXPERIMENTS.md's note that
// our 4%-scale replicas produce ~25× larger absolute errors than the
// paper's 10M-row datasets with identical curve shapes.
//
// Environment knobs:
//   SCALING_IREDUCT_ONLY  nonzero → run only Section 1 (used by the
//                         tools/check.sh perf smoke).
//   SCALING_M             comma-separated list of group counts for
//                         Section 1 (default "100,1000,10000,100000").
//   NAIVE_MAX_M           largest m the naive reference is timed at
//                         (default 10000; naive is quadratic, so m=10^5
//                         would take minutes).
//   TRIALS                Section 2 runs averaged per point (default 3).
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/dwork.h"
#include "algorithms/ireduct.h"
#include "bench_util.h"
#include "common/logging.h"
#include "data/census_generator.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"
#include "marginals/marginal_set.h"
#include "marginals/marginal_workload.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "support/ireduct_reference.h"

namespace {

using namespace ireduct;

std::vector<size_t> ScalingSizes() {
  const char* env = std::getenv("SCALING_M");
  std::vector<size_t> sizes;
  if (env != nullptr && *env != '\0') {
    std::stringstream ss{std::string(env)};
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      const long long v = std::atoll(tok.c_str());
      if (v > 0) sizes.push_back(static_cast<size_t>(v));
    }
  }
  if (sizes.empty()) sizes = {100, 1000, 10000, 100000};
  return sizes;
}

/// m single-query groups with deterministic answers spread over [1, 997].
Workload PerQueryWorkload(size_t m) {
  std::vector<double> answers(m);
  std::vector<QueryGroup> groups;
  groups.reserve(m);
  for (uint32_t i = 0; i < m; ++i) {
    answers[i] = 1.0 + static_cast<double>(i % 997);
    groups.push_back(QueryGroup{"q", i, i + 1, 1.0});
  }
  auto w = Workload::Create(std::move(answers), std::move(groups));
  IREDUCT_CHECK(w.ok());
  return std::move(*w);
}

struct EngineRun {
  double seconds = 0;
  double overall_error = 0;
  double epsilon_spent = 0;
  uint64_t iterations = 0;
};

EngineRun TimeEngine(bool naive, const Workload& w,
                     const IReductParams& params, uint64_t seed,
                     double delta) {
  BitGen gen(seed);
  const auto start = std::chrono::steady_clock::now();
  auto out = naive ? RunIReductNaive(w, params, gen)
                   : RunIReduct(w, params, gen);
  const auto stop = std::chrono::steady_clock::now();
  IREDUCT_CHECK(out.ok());
  EngineRun run;
  run.seconds = std::chrono::duration<double>(stop - start).count();
  run.overall_error = OverallError(w, out->answers, delta);
  run.epsilon_spent = out->epsilon_spent;
  run.iterations = out->iterations;
  return run;
}

/// Section 1. Returns false if the two loops' outputs ever disagree or the
/// incremental GS fast path demonstrably never engaged.
bool RunEngineScalingSection() {
  const size_t naive_max_m =
      static_cast<size_t>(EnvInt64("NAIVE_MAX_M", 10'000));
  const double lambda_max = 1000.0;
  const double delta = 1.0;
  const uint64_t seed = 42;

  bool ok = true;
  TablePrinter table({"m", "naive_s", "incremental_s", "speedup",
                      "overall_error", "epsilon_spent"});
  std::string json;
  obs::JsonWriter writer(&json);
  writer.BeginObject();
  writer.KV("bench", "ireduct_engine_scaling");
  bench::WriteHostInfo(writer);
  writer.Key("points");
  writer.BeginArray();

#if IREDUCT_ENABLE_TRACING
  const uint64_t hits_before =
      obs::MetricsRegistry::Global().counter("ireduct.gs_incremental_hits")
          .value();
#endif

  for (const size_t m : ScalingSizes()) {
    const Workload w = PerQueryWorkload(m);
    IReductParams params;
    // 25% budget slack over GS(λmax) = m/λmax leaves room for ~O(m)
    // admitted reductions — enough iterations to expose the per-iteration
    // cost gap without the naive loop taking hours at m = 10^5.
    params.epsilon = 1.25 * static_cast<double>(m) / lambda_max;
    params.delta = delta;
    params.lambda_max = lambda_max;
    params.lambda_delta = lambda_max / 20;

    const EngineRun fast =
        TimeEngine(/*naive=*/false, w, params, seed, delta);

    EngineRun naive;
    const bool ran_naive = m <= naive_max_m;
    if (ran_naive) {
      naive = TimeEngine(/*naive=*/true, w, params, seed, delta);
      if (naive.epsilon_spent != fast.epsilon_spent ||
          naive.overall_error != fast.overall_error ||
          naive.iterations != fast.iterations) {
        std::cerr << "PARITY FAILURE at m=" << m
                  << ": naive (eps=" << naive.epsilon_spent
                  << ", err=" << naive.overall_error
                  << ", iters=" << naive.iterations << ") vs incremental"
                  << " (eps=" << fast.epsilon_spent
                  << ", err=" << fast.overall_error
                  << ", iters=" << fast.iterations << ")\n";
        ok = false;
      }
    }

    const double speedup = ran_naive && fast.seconds > 0
                               ? naive.seconds / fast.seconds
                               : 0.0;
    table.AddRow({std::to_string(m),
                  ran_naive ? TablePrinter::Cell(naive.seconds, 4) : "-",
                  TablePrinter::Cell(fast.seconds, 4),
                  ran_naive ? TablePrinter::Cell(speedup, 1) : "-",
                  TablePrinter::Cell(fast.overall_error, 5),
                  TablePrinter::Cell(fast.epsilon_spent, 5)});

    writer.BeginObject();
    writer.Key("m");
    writer.UInt(m);
    writer.Key("incremental_seconds");
    writer.Double(fast.seconds);
    writer.Key("iterations");
    writer.UInt(fast.iterations);
    writer.Key("overall_error");
    writer.Double(fast.overall_error);
    writer.Key("epsilon_spent");
    writer.Double(fast.epsilon_spent);
    writer.Key("naive_seconds");
    if (ran_naive) {
      writer.Double(naive.seconds);
    } else {
      writer.RawValue("null");
    }
    writer.Key("speedup");
    if (ran_naive) {
      writer.Double(speedup);
    } else {
      writer.RawValue("null");
    }
    writer.EndObject();
  }
  writer.EndArray();

#if IREDUCT_ENABLE_TRACING
  const uint64_t hits_after =
      obs::MetricsRegistry::Global().counter("ireduct.gs_incremental_hits")
          .value();
  if (hits_after <= hits_before) {
    std::cerr << "FAST-PATH FAILURE: ireduct.gs_incremental_hits did not "
                 "advance — RunIReduct never took the incremental GS path\n";
    ok = false;
  }
  writer.Key("gs_incremental_hits");
  writer.UInt(hits_after - hits_before);
#endif
  writer.Key("parity_ok");
  writer.Bool(ok);
  writer.EndObject();

  std::ofstream out("BENCH_IREDUCT_SCALING.json");
  out << json << "\n";

  std::cout << "iReduct engine scaling: naive vs incremental at one seed "
               "(identical outputs enforced)\n\n";
  table.Print(std::cout);
  std::cout << "\nWrote BENCH_IREDUCT_SCALING.json\n\n";
  return ok;
}

void RunCardinalitySection() {
  const double epsilon = 0.01;
  const int trials = static_cast<int>(EnvInt64("TRIALS", 3));
  TablePrinter table({"rows", "method", "overall_error", "err x rows/1e5"});
  for (uint64_t rows : {50'000ull, 100'000ull, 200'000ull, 400'000ull,
                        800'000ull}) {
    const bench::CensusSetup setup =
        bench::BuildCensusSetupForRows(CensusKind::kBrazil, rows, 1);
    const Workload& w = setup.workload.workload();
    const double n = setup.n;
    const double delta = setup.delta;

    double dwork_err = 0, ireduct_err = 0;
    for (int t = 0; t < trials; ++t) {
      BitGen gen(7000 + t);
      auto dw = RunDwork(w, DworkParams{epsilon}, gen);
      IREDUCT_CHECK(dw.ok());
      dwork_err += OverallError(w, dw->answers, delta) / trials;
      IReductParams p;
      p.epsilon = epsilon;
      p.delta = delta;
      p.lambda_max = setup.lambda_max;
      p.lambda_delta = setup.lambda_delta;
      auto ir = RunIReduct(w, p, gen);
      IREDUCT_CHECK(ir.ok());
      ireduct_err += OverallError(w, ir->answers, delta) / trials;
    }
    table.AddRow({std::to_string(rows), "Dwork",
                  TablePrinter::Cell(dwork_err, 5),
                  TablePrinter::Cell(dwork_err * n / 1e5, 4)});
    table.AddRow({std::to_string(rows), "iReduct",
                  TablePrinter::Cell(ireduct_err, 5),
                  TablePrinter::Cell(ireduct_err * n / 1e5, 4)});
  }
  std::cout << "Scaling study: overall error vs |T| (1D marginals, "
               "eps=0.01, delta=1e-4*|T|)\n"
               "The last column being roughly constant confirms the ~1/|T| "
               "scaling used to compare\nagainst the paper's 10M-row "
               "datasets.\n\n";
  table.Print(std::cout);
}

}  // namespace

int main() {
  const bool engines_ok = RunEngineScalingSection();
  if (EnvInt64("SCALING_IREDUCT_ONLY", 0) == 0) {
    RunCardinalitySection();
  }
  return engines_ok ? 0 : 1;
}
