#include "dp/confidence.h"

#include <cmath>

#include "common/logging.h"

namespace ireduct {

double LaplaceQuantile(double p, double mu, double b) {
  IREDUCT_DCHECK(p > 0 && p < 1);
  IREDUCT_DCHECK(b > 0);
  // Inverse CDF: mu - b·sgn(p - 1/2)·ln(1 - 2|p - 1/2|).
  const double q = p - 0.5;
  const double sign = (q >= 0) ? 1.0 : -1.0;
  return mu - b * sign * std::log1p(-2 * std::fabs(q));
}

Result<ConfidenceInterval> LaplaceConfidenceInterval(double answer,
                                                     double scale,
                                                     double level) {
  if (!(level > 0) || !(level < 1)) {
    return Status::InvalidArgument("confidence level must be in (0, 1)");
  }
  if (!(scale > 0) || !std::isfinite(scale)) {
    return Status::InvalidArgument("scale must be positive finite");
  }
  const double half_width = -scale * std::log(1 - level);
  return ConfidenceInterval{answer - half_width, answer + half_width};
}

Result<std::vector<ConfidenceInterval>> ConfidenceIntervals(
    const Workload& workload, const MechanismOutput& output, double level) {
  if (output.answers.size() != workload.num_queries() ||
      output.group_scales.size() != workload.num_groups()) {
    return Status::InvalidArgument("output does not match the workload");
  }
  std::vector<ConfidenceInterval> intervals;
  intervals.reserve(output.answers.size());
  for (size_t g = 0; g < workload.num_groups(); ++g) {
    const QueryGroup& group = workload.group(g);
    for (uint32_t i = group.begin; i < group.end; ++i) {
      IREDUCT_ASSIGN_OR_RETURN(
          ConfidenceInterval interval,
          LaplaceConfidenceInterval(output.answers[i],
                                    output.group_scales[g], level));
      intervals.push_back(interval);
    }
  }
  return intervals;
}

}  // namespace ireduct
