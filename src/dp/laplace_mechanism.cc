#include "dp/laplace_mechanism.h"

#include <cmath>
#include <numeric>

namespace ireduct {

namespace {

// Below this size the per-element sampler is both faster (no substream
// setup) and keeps the historical draw sequence; at or above it the batch
// kernels win and the release switches to the four-substream batch stream
// (see BitGen::LaplaceBatch — still deterministic, just a different
// function of the seed).
constexpr size_t kBatchThreshold = 16;

Status ValidateScales(std::span<const double> scales) {
  for (double s : scales) {
    if (!(s > 0) || !std::isfinite(s)) {
      return Status::InvalidArgument("noise scales must be positive finite");
    }
  }
  return Status::OK();
}

// values[i] + Laplace noise, where run r covers [run_ends[r-1],
// run_ends[r]) at run_scales[r] and run_ends.back() == values.size().
std::vector<double> NoisyValues(std::span<const double> values,
                                std::span<const size_t> run_ends,
                                std::span<const double> run_scales,
                                BitGen& gen) {
  const size_t n = values.size();
  std::vector<double> noisy(n);
  if (n >= kBatchThreshold) {
    gen.LaplaceBatch(run_ends, run_scales, noisy);
    for (size_t i = 0; i < n; ++i) noisy[i] += values[i];
  } else {
    for (size_t i = 0, r = 0; i < n; ++i) {
      if (i == run_ends[r]) ++r;
      noisy[i] = values[i] + gen.Laplace(run_scales[r]);
    }
  }
  return noisy;
}

}  // namespace

Result<std::vector<double>> AddLaplaceNoise(std::span<const double> values,
                                            std::span<const double> scales,
                                            BitGen& gen) {
  if (values.size() != scales.size()) {
    return Status::InvalidArgument("values/scales size mismatch");
  }
  IREDUCT_RETURN_NOT_OK(ValidateScales(scales));
  std::vector<size_t> run_ends(scales.size());  // one run per element
  std::iota(run_ends.begin(), run_ends.end(), size_t{1});
  return NoisyValues(values, run_ends, scales, gen);
}

Result<std::vector<double>> LaplaceNoise(const Workload& workload,
                                         std::span<const double> group_scales,
                                         BitGen& gen) {
  if (group_scales.size() != workload.num_groups()) {
    return Status::InvalidArgument("one scale per group required");
  }
  IREDUCT_RETURN_NOT_OK(ValidateScales(group_scales));
  std::vector<size_t> run_ends;
  run_ends.reserve(workload.num_groups());
  for (const QueryGroup& g : workload.groups()) run_ends.push_back(g.end);
  return NoisyValues(workload.true_answers(), run_ends, group_scales, gen);
}

}  // namespace ireduct
