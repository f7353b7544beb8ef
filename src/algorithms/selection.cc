#include "algorithms/selection.h"

#include <cmath>

#include "common/logging.h"
#include "common/numeric.h"

namespace ireduct {

namespace {

// Σ_{j∈g} 1/max{v_j, δ} — the inverse-magnitude weight that drives both the
// Oracle/Rescale allocation and the PickQueries benefit estimate.
double InverseMagnitudeWeight(const Workload& workload, size_t g,
                              std::span<const double> values, double delta) {
  const QueryGroup& group = workload.group(g);
  KahanSum acc;
  for (uint32_t i = group.begin; i < group.end; ++i) {
    acc.Add(1.0 / std::fmax(values[i], delta));
  }
  return acc.value();
}

Status ValidateScaleInputs(const Workload& workload,
                           std::span<const double> values, double delta,
                           double epsilon) {
  if (values.size() != workload.num_queries()) {
    return Status::InvalidArgument("one value per query required");
  }
  if (!(delta > 0) || !std::isfinite(delta)) {
    return Status::InvalidArgument("sanity bound delta must be positive");
  }
  if (!(epsilon > 0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("epsilon must be positive finite");
  }
  return Status::OK();
}

// Scales λ_g = c · shape_g with c chosen so that Σ_g coeff_g / λ_g = ε.
std::vector<double> NormalizeToBudget(const Workload& workload,
                                      std::vector<double> shape,
                                      double epsilon) {
  KahanSum inv;
  for (size_t g = 0; g < shape.size(); ++g) {
    IREDUCT_DCHECK(shape[g] > 0);
    inv.Add(workload.group(g).sensitivity_coeff / shape[g]);
  }
  const double c = inv.value() / epsilon;
  for (double& s : shape) s *= c;
  return shape;
}

}  // namespace

Result<std::vector<double>> ErrorOptimalScales(const Workload& workload,
                                               std::span<const double> values,
                                               double delta, double epsilon) {
  IREDUCT_RETURN_NOT_OK(ValidateScaleInputs(workload, values, delta, epsilon));
  // Lagrange-optimal shape (Section 5.2): λ_g ∝ sqrt(|G_g| / W_g) with
  // W_g = Σ_{j∈g} 1/max{δ, v_j}.
  std::vector<double> shape(workload.num_groups());
  for (size_t g = 0; g < shape.size(); ++g) {
    const double w = InverseMagnitudeWeight(workload, g, values, delta);
    shape[g] = std::sqrt(workload.group(g).size() / w);
  }
  return NormalizeToBudget(workload, std::move(shape), epsilon);
}

Result<std::vector<double>> ErrorOptimalScales(const Workload& workload,
                                               std::span<const double> values,
                                               const SanityBounds& bounds,
                                               double epsilon) {
  if (!bounds.is_uniform() && bounds.size() != workload.num_queries()) {
    return Status::InvalidArgument(
        "per-query sanity bounds must match the query count");
  }
  IREDUCT_RETURN_NOT_OK(
      ValidateScaleInputs(workload, values, bounds.at(0), epsilon));
  std::vector<double> shape(workload.num_groups());
  for (size_t g = 0; g < shape.size(); ++g) {
    const QueryGroup& group = workload.group(g);
    KahanSum w;
    for (uint32_t i = group.begin; i < group.end; ++i) {
      w.Add(1.0 / std::fmax(values[i], bounds.at(i)));
    }
    shape[g] = std::sqrt(group.size() / w.value());
  }
  return NormalizeToBudget(workload, std::move(shape), epsilon);
}

Result<std::vector<double>> ProportionalScales(const Workload& workload,
                                               std::span<const double> values,
                                               double delta, double epsilon) {
  IREDUCT_RETURN_NOT_OK(ValidateScaleInputs(workload, values, delta, epsilon));
  std::vector<double> shape(workload.num_groups());
  for (size_t g = 0; g < shape.size(); ++g) {
    const QueryGroup& group = workload.group(g);
    double smallest = values[group.begin];
    for (uint32_t i = group.begin + 1; i < group.end; ++i) {
      smallest = std::fmin(smallest, values[i]);
    }
    shape[g] = std::fmax(smallest, delta);
  }
  return NormalizeToBudget(workload, std::move(shape), epsilon);
}

double EstimatedGroupError(const Workload& workload, size_t g,
                           std::span<const double> noisy_answers, double scale,
                           double delta) {
  return scale *
         InverseMagnitudeWeight(workload, g, noisy_answers, delta) /
         workload.group(g).size();
}

double SelectionScore(const Workload& workload, SelectionRule rule, size_t g,
                      std::span<const double> noisy_answers, double scale,
                      double delta, double lambda_delta) {
  const QueryGroup& group = workload.group(g);
  switch (rule) {
    case SelectionRule::kIReductRatio: {
      const double num_groups = static_cast<double>(workload.num_groups());
      const double coeff = group.sensitivity_coeff;
      // Equation 15 benefit over Equation 14 cost.
      const double benefit =
          lambda_delta *
          InverseMagnitudeWeight(workload, g, noisy_answers, delta) /
          (num_groups * group.size());
      const double cost = coeff / (scale - lambda_delta) - coeff / scale;
      return benefit / cost;
    }
    case SelectionRule::kIResampRatio: {
      const double num_groups = static_cast<double>(workload.num_groups());
      const double coeff = group.sensitivity_coeff;
      // Halving the raw scale halves the estimated error contribution...
      const double benefit =
          (scale / 2.0) *
          InverseMagnitudeWeight(workload, g, noisy_answers, delta) /
          (num_groups * group.size());
      // ...and raises the effective privacy cost from coeff·(2/λ - 1/λmax)
      // to coeff·(4/λ - 1/λmax) (Appendix A geometric series).
      const double cost = coeff * (2.0 / scale);
      return benefit / cost;
    }
    case SelectionRule::kMaxRelativeError: {
      double worst = -1;
      for (uint32_t i = group.begin; i < group.end; ++i) {
        const double err = scale / std::fmax(noisy_answers[i], delta);
        if (err > worst) worst = err;
      }
      return worst;
    }
  }
  return -1;  // unreachable
}

GroupScoreHeap::GroupScoreHeap(const Workload& workload, SelectionRule rule,
                               double delta, double lambda_delta)
    : workload_(&workload),
      rule_(rule),
      delta_(delta),
      lambda_delta_(lambda_delta),
      epoch_(workload.num_groups(), 0) {}

bool GroupScoreHeap::Reducible(double scale) const {
  // iResamp halves scales, which always stays positive; the λΔ-step rules
  // need λ > λΔ headroom.
  return rule_ == SelectionRule::kIResampRatio || scale > lambda_delta_;
}

void GroupScoreHeap::Build(std::span<const double> noisy_answers,
                           std::span<const double> scales,
                           std::span<const uint8_t> active) {
  std::vector<Entry> entries;
  entries.reserve(workload_->num_groups());
  for (size_t g = 0; g < workload_->num_groups(); ++g) {
    ++epoch_[g];  // invalidate anything left from a previous Build
    if (!active[g] || !Reducible(scales[g])) continue;
    entries.push_back(Entry{
        SelectionScore(*workload_, rule_, g, noisy_answers, scales[g],
                       delta_, lambda_delta_),
        g, epoch_[g]});
  }
  heap_ = std::priority_queue<Entry, std::vector<Entry>, EntryLess>(
      EntryLess{}, std::move(entries));
}

size_t GroupScoreHeap::PopBest() {
  while (!heap_.empty()) {
    const Entry top = heap_.top();
    heap_.pop();
    if (top.epoch != epoch_[top.group]) {
      ++stale_pop_count_;
      continue;
    }
    // Consume the entry: the caller must Update() or Retire() the group
    // before it can be popped again.
    ++epoch_[top.group];
    return top.group;
  }
  return kNoGroup;
}

void GroupScoreHeap::Update(size_t g, std::span<const double> noisy_answers,
                            std::span<const double> scales) {
  ++epoch_[g];
  if (!Reducible(scales[g])) return;  // scales never grow: gone for good
  heap_.push(Entry{SelectionScore(*workload_, rule_, g, noisy_answers,
                                  scales[g], delta_, lambda_delta_),
                   g, epoch_[g]});
  ++repush_count_;
}

void GroupScoreHeap::Retire(size_t g) { ++epoch_[g]; }

}  // namespace ireduct
