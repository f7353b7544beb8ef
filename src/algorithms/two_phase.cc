#include "algorithms/two_phase.h"

#include <cmath>

#include "algorithms/selection.h"
#include "dp/laplace_mechanism.h"

namespace ireduct {

Result<MechanismOutput> RunTwoPhase(const Workload& workload,
                                    const TwoPhaseParams& params,
                                    BitGen& gen) {
  if (!(params.epsilon1 > 0) || !(params.epsilon2 > 0) ||
      !std::isfinite(params.epsilon1 + params.epsilon2)) {
    return Status::InvalidArgument("epsilon1 and epsilon2 must be positive");
  }

  // Phase 1 (Figure 1, lines 1-3): uniform scale S(Q)/ε1.
  const double scale1 = workload.Sensitivity() / params.epsilon1;
  const std::vector<double> scales1(workload.num_groups(), scale1);
  IREDUCT_ASSIGN_OR_RETURN(std::vector<double> phase1,
                           LaplaceNoise(workload, scales1, gen));

  // Phase 2 (lines 4-8): rescale from the noisy answers; the allocation is
  // normalized so GS(Q, Λ') = ε2, satisfying the line-5 guard by
  // construction.
  IREDUCT_ASSIGN_OR_RETURN(
      std::vector<double> scales2,
      ErrorOptimalScales(workload, phase1, params.delta, params.epsilon2));
  IREDUCT_ASSIGN_OR_RETURN(std::vector<double> phase2,
                           LaplaceNoise(workload, scales2, gen));

  // Line 8: minimum-variance unbiased combination of the two estimates,
  //   y = (λ2² · y1 + λ1² · y2) / (λ1² + λ2²).
  MechanismOutput out;
  out.answers.resize(workload.num_queries());
  const double l1 = scale1;
  for (size_t g = 0; g < workload.num_groups(); ++g) {
    const QueryGroup& group = workload.group(g);
    const double l2 = scales2[g];
    for (uint32_t i = group.begin; i < group.end; ++i) {
      out.answers[i] =
          (l2 * l2 * phase1[i] + l1 * l1 * phase2[i]) / (l1 * l1 + l2 * l2);
    }
  }
  out.group_scales = std::move(scales2);
  out.epsilon_spent = params.epsilon1 + params.epsilon2;
  return out;
}

}  // namespace ireduct
