#include "dp/workload.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/numeric.h"

namespace ireduct {

Result<Workload> Workload::Create(std::vector<double> true_answers,
                                  std::vector<QueryGroup> groups) {
  if (groups.empty()) {
    return Status::InvalidArgument("workload requires at least one group");
  }
  uint32_t expected_begin = 0;
  for (const QueryGroup& g : groups) {
    if (g.begin != expected_begin) {
      return Status::InvalidArgument("groups must tile queries contiguously");
    }
    if (g.end <= g.begin) {
      return Status::InvalidArgument("group '" + g.name + "' is empty");
    }
    if (!(g.sensitivity_coeff > 0) || !std::isfinite(g.sensitivity_coeff)) {
      return Status::InvalidArgument("group '" + g.name +
                                     "' needs a positive sensitivity");
    }
    expected_begin = g.end;
  }
  if (expected_begin != true_answers.size()) {
    return Status::InvalidArgument("groups do not cover all queries");
  }
  for (double a : true_answers) {
    if (!std::isfinite(a)) {
      return Status::InvalidArgument("true answers must be finite");
    }
  }
  return Workload(std::move(true_answers), std::move(groups));
}

Result<Workload> Workload::CreateWithSensitivityFn(
    std::vector<double> true_answers, std::vector<QueryGroup> groups,
    SensitivityFn sensitivity) {
  if (!sensitivity) {
    return Status::InvalidArgument("sensitivity function must be set");
  }
  IREDUCT_ASSIGN_OR_RETURN(
      Workload workload,
      Create(std::move(true_answers), std::move(groups)));
  workload.custom_sensitivity_ = std::move(sensitivity);
  return workload;
}

Result<Workload> Workload::PerQuery(std::vector<double> true_answers,
                                    double sensitivity_coeff) {
  std::vector<QueryGroup> groups;
  groups.reserve(true_answers.size());
  for (uint32_t i = 0; i < true_answers.size(); ++i) {
    groups.push_back(QueryGroup{"q" + std::to_string(i), i, i + 1,
                                sensitivity_coeff});
  }
  return Create(std::move(true_answers), std::move(groups));
}

Workload::Workload(std::vector<double> true_answers,
                   std::vector<QueryGroup> groups)
    : true_answers_(std::move(true_answers)), groups_(std::move(groups)) {}

size_t Workload::group_of(size_t i) const {
  IREDUCT_DCHECK(i < num_queries());
  // Groups tile the queries in order: the owner is the first group whose
  // end lies past i.
  const auto it = std::upper_bound(
      groups_.begin(), groups_.end(), i,
      [](size_t q, const QueryGroup& g) { return q < g.end; });
  return static_cast<size_t>(it - groups_.begin());
}

double Workload::Sensitivity() const {
  if (custom_sensitivity_) {
    // S(Q) = GS at unit scales (Definitions 3 vs 4).
    const std::vector<double> unit(groups_.size(), 1.0);
    return custom_sensitivity_(unit);
  }
  KahanSum acc;
  for (const QueryGroup& g : groups_) acc.Add(g.sensitivity_coeff);
  return acc.value();
}

double Workload::GeneralizedSensitivity(
    std::span<const double> group_scales) const {
  IREDUCT_DCHECK(group_scales.size() == groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (!(group_scales[g] > 0)) {
      return std::numeric_limits<double>::infinity();
    }
  }
  if (custom_sensitivity_) return custom_sensitivity_(group_scales);
  KahanSum acc;
  for (size_t g = 0; g < groups_.size(); ++g) {
    acc.Add(groups_[g].sensitivity_coeff / group_scales[g]);
  }
  return acc.value();
}

std::vector<double> Workload::PerQueryScales(
    std::span<const double> group_scales) const {
  IREDUCT_DCHECK(group_scales.size() == groups_.size());
  std::vector<double> scales(num_queries());
  for (size_t g = 0; g < groups_.size(); ++g) {
    std::fill(scales.begin() + groups_[g].begin,
              scales.begin() + groups_[g].end, group_scales[g]);
  }
  return scales;
}

}  // namespace ireduct
