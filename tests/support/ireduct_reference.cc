#include "support/ireduct_reference.h"

#include <vector>

#include "dp/laplace_coupling.h"
#include "dp/laplace_mechanism.h"
#include "dp/noise_down.h"

namespace ireduct {

namespace {

// Highest-scoring group under `rule` among active groups passing
// `eligible(scale)`; strict `>` breaks ties to the lowest index.
template <typename Eligible>
size_t LinearScan(const Workload& workload, SelectionRule rule,
                  std::span<const double> noisy_answers,
                  std::span<const double> group_scales,
                  std::span<const uint8_t> active, double delta,
                  double lambda_delta, Eligible eligible) {
  size_t best = kNoGroup;
  double best_score = -1;
  for (size_t g = 0; g < workload.num_groups(); ++g) {
    if (!active[g] || !eligible(group_scales[g])) continue;
    const double score = SelectionScore(workload, rule, g, noisy_answers,
                                        group_scales[g], delta, lambda_delta);
    if (score > best_score) {
      best_score = score;
      best = g;
    }
  }
  return best;
}

}  // namespace

size_t PickGroupIReduct(const Workload& workload,
                        std::span<const double> noisy_answers,
                        std::span<const double> group_scales,
                        std::span<const uint8_t> active, double delta,
                        double lambda_delta) {
  return LinearScan(workload, SelectionRule::kIReductRatio, noisy_answers,
                    group_scales, active, delta, lambda_delta,
                    [lambda_delta](double s) { return s > lambda_delta; });
}

size_t PickGroupMaxRelativeError(const Workload& workload,
                                 std::span<const double> noisy_answers,
                                 std::span<const double> group_scales,
                                 std::span<const uint8_t> active, double delta,
                                 double lambda_delta) {
  return LinearScan(workload, SelectionRule::kMaxRelativeError,
                    noisy_answers, group_scales, active, delta, lambda_delta,
                    [lambda_delta](double s) { return s > lambda_delta; });
}

size_t PickGroupIResamp(const Workload& workload,
                        std::span<const double> noisy_answers,
                        std::span<const double> group_scales,
                        std::span<const uint8_t> active, double delta) {
  return LinearScan(workload, SelectionRule::kIResampRatio, noisy_answers,
                    group_scales, active, delta, /*lambda_delta=*/0,
                    [](double) { return true; });
}

Result<MechanismOutput> RunIReductNaive(const Workload& workload,
                                        const IReductParams& params,
                                        BitGen& gen, PickGroupFn pick_group) {
  if (!pick_group) {
    pick_group = params.objective == IReductObjective::kMaxRelativeError
                     ? PickGroupFn(PickGroupMaxRelativeError)
                     : PickGroupFn(PickGroupIReduct);
  }

  // Figure 4, lines 1-3: start every group at λmax; if even that violates
  // the budget, the workload cannot be released at acceptable noise.
  MechanismOutput out;
  out.group_scales.assign(workload.num_groups(), params.lambda_max);
  if (workload.GeneralizedSensitivity(out.group_scales) > params.epsilon) {
    return Status::PrivacyBudgetExceeded(
        "GS at lambda_max already exceeds epsilon; no release possible");
  }

  // Line 4: initial noisy answers.
  IREDUCT_ASSIGN_OR_RETURN(out.answers,
                           LaplaceNoise(workload, out.group_scales, gen));

  // Lines 5-16: iterative noise reduction over the working set.
  std::vector<uint8_t> active(workload.num_groups(), 1);
  for (;;) {
    const size_t g = pick_group(workload, out.answers, out.group_scales,
                                active, params.delta, params.lambda_delta);
    if (g == kNoGroup) break;
    const double old_scale = out.group_scales[g];
    const double new_scale = old_scale - params.lambda_delta;

    // Lines 8-10: trial reduction, admitted only if GS stays within ε.
    out.group_scales[g] = new_scale;
    const double gs = workload.GeneralizedSensitivity(out.group_scales);
    if (!(new_scale > 0 && gs <= params.epsilon)) {
      // Lines 13-16: revert and retire the group.
      out.group_scales[g] = old_scale;
      active[g] = false;
      continue;
    }

    // Lines 11-12: correlated resample of each answer to the new scale.
    const QueryGroup& group = workload.group(g);
    for (uint32_t i = group.begin; i < group.end; ++i) {
      const double mu = workload.true_answer(i);
      IREDUCT_ASSIGN_OR_RETURN(
          out.answers[i],
          params.reducer == NoiseReducer::kPaperNoiseDown
              ? NoiseDown(mu, out.answers[i], old_scale, new_scale, gen)
              : CoupledNoiseDown(mu, out.answers[i], old_scale, new_scale,
                                 gen));
    }
    out.resample_calls += group.size();
    ++out.iterations;
  }

  out.epsilon_spent = workload.GeneralizedSensitivity(out.group_scales);
  return out;
}

}  // namespace ireduct
