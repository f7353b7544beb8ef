// Ablations of iReduct's design knobs (the choices DESIGN.md calls out):
//
// Part A — step size λΔ: the paper runs λmax/λΔ = 10^5 reduction steps;
// we show the overall error flattens far earlier, which is why the figure
// benches default to a few hundred steps (IREDUCT_STEPS).
//
// Part B — PickQueries policy: the Section 5.3 benefit/cost heuristic
// (normalized per Definition 6) against (i) the literal printed Equation
// 15 without the 1/|G_g| factor, (ii) the Section 4.3 max-relative-error
// objective, and (iii) "largest scale first". All are equally private
// (none touches true answers); the heuristic should win or tie. The two
// bench-only rules run on Figure 4's literal loop
// (tests/support/ireduct_reference.h); the others are RunIReduct.
#include <iostream>
#include <vector>

#include "algorithms/ireduct.h"
#include "algorithms/selection.h"
#include "bench_util.h"
#include "common/numeric.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"
#include "support/ireduct_reference.h"

namespace {

using namespace ireduct;

// Literal Equation 15: benefit λΔ·Σ 1/max{y,δ} (no per-group averaging).
size_t PickPrintedEq15(const Workload& w, std::span<const double> noisy,
                       std::span<const double> scales,
                       std::span<const uint8_t> active, double delta,
                       double lambda_delta) {
  size_t best = kNoGroup;
  double best_ratio = -1;
  for (size_t g = 0; g < w.num_groups(); ++g) {
    if (!active[g] || !(scales[g] > lambda_delta)) continue;
    KahanSum weight;
    for (uint32_t i = w.group(g).begin; i < w.group(g).end; ++i) {
      weight.Add(1.0 / std::fmax(noisy[i], delta));
    }
    const double coeff = w.group(g).sensitivity_coeff;
    const double benefit = lambda_delta * weight.value();
    const double cost =
        coeff / (scales[g] - lambda_delta) - coeff / scales[g];
    if (benefit / cost > best_ratio) {
      best_ratio = benefit / cost;
      best = g;
    }
  }
  return best;
}

size_t PickLargestScale(const Workload& w, std::span<const double>,
                        std::span<const double> scales,
                        std::span<const uint8_t> active, double,
                        double lambda_delta) {
  size_t best = kNoGroup;
  double best_scale = -1;
  for (size_t g = 0; g < w.num_groups(); ++g) {
    if (active[g] && scales[g] > lambda_delta && scales[g] > best_scale) {
      best_scale = scales[g];
      best = g;
    }
  }
  return best;
}

}  // namespace

int main() {
  using namespace ireduct::bench;

  const CensusSetup setup = BuildCensusSetup(CensusKind::kBrazil, 1);
  const Workload& w = setup.workload.workload();
  const double delta = setup.delta;
  const double epsilon = 0.01;
  const double lambda_max = setup.lambda_max;

  // A null `pick` runs the product RunIReduct with `objective`; otherwise
  // the reference loop drives the bench-only rule.
  auto run = [&](double steps, IReductObjective objective, PickGroupFn pick) {
    MechanismFn fn = [&, steps, objective, pick](
                         const Workload& workload,
                         BitGen& gen) -> Result<std::vector<double>> {
      IReductParams p;
      p.epsilon = epsilon;
      p.delta = delta;
      p.lambda_max = lambda_max;
      p.lambda_delta = lambda_max / steps;
      p.objective = objective;
      IREDUCT_ASSIGN_OR_RETURN(MechanismOutput out,
                               pick ? RunIReductNaive(workload, p, gen, pick)
                                    : RunIReduct(workload, p, gen));
      return std::move(out.answers);
    };
    return MeasureOverallError(w, fn, delta, 1300);
  };

  // Part A: λΔ resolution sweep.
  {
    TablePrinter table({"steps (lambda_max/lambda_delta)", "overall_error",
                        "stddev"});
    for (double steps : {10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0}) {
      const TrialAggregate agg =
          run(steps, IReductObjective::kOverallError, nullptr);
      table.AddRow({TablePrinter::Cell(steps, 5),
                    TablePrinter::Cell(agg.mean, 5),
                    TablePrinter::Cell(agg.stddev, 3)});
    }
    std::cout << "Part A: iReduct error vs reduction resolution (1D "
                 "Brazil, eps=0.01; paper runs 1e5 steps)\n\n";
    table.Print(std::cout);
    std::cout << '\n';
  }

  // Part B: PickQueries policy comparison at the default resolution.
  {
    const double steps = IReductSteps();
    TablePrinter table({"policy", "overall_error", "stddev"});
    struct Policy {
      const char* name;
      IReductObjective objective;
      PickGroupFn fn;
    };
    const std::vector<Policy> policies{
        {"Sec 5.3 heuristic (Def 6-normalized)",
         IReductObjective::kOverallError, nullptr},
        {"printed Eq 15 (no 1/|G| factor)", IReductObjective::kOverallError,
         PickPrintedEq15},
        {"max relative error (Sec 4.3 variant)",
         IReductObjective::kMaxRelativeError, nullptr},
        {"largest scale first", IReductObjective::kOverallError,
         PickLargestScale},
    };
    for (const Policy& policy : policies) {
      const TrialAggregate agg = run(steps, policy.objective, policy.fn);
      table.AddRow({policy.name, TablePrinter::Cell(agg.mean, 5),
                    TablePrinter::Cell(agg.stddev, 3)});
    }
    std::cout << "Part B: PickQueries policies (1D Brazil, eps=0.01)\n\n";
    table.Print(std::cout);
  }
  bench::EmitMetricsSnapshot("ablation_ireduct");
  return 0;
}
