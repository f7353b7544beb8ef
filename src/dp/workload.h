// Batch count-query workloads.
//
// The paper's setting (Section 2.1): a sequence Q of m queries, each mapping
// the dataset to a real number, answered with per-query Laplace scales
// Λ = [λ1..λm]. Privacy is governed by the generalized sensitivity
// GS(Q, Λ) = max over neighboring datasets of Σ_i |Δq_i| / λ_i (Definition 4).
//
// All of the paper's mechanisms assign a *uniform* scale to each group of
// related queries (e.g. all cells of one marginal — see Section 5.3, which
// shows this is the right tradeoff because a marginal's sensitivity depends
// only on its smallest scale). We therefore model a workload as a sequence of
// true answers partitioned into contiguous QueryGroups; each group g carries
// a sensitivity coefficient c_g so that
//   GS(Λ) = Σ_g c_g / λ_g
// when every query in g uses scale λ_g. For a marginal, c_g = 2 (one tuple
// change moves two cells by one each); for an independent count query in its
// own group, c_g is that query's per-tuple sensitivity.
#ifndef IREDUCT_DP_WORKLOAD_H_
#define IREDUCT_DP_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace ireduct {

class LinearWorkload;  // queries/linear_workload.h

/// A contiguous run of queries that share one noise scale and jointly
/// contribute `sensitivity_coeff / scale` to the generalized sensitivity.
struct QueryGroup {
  std::string name;
  /// Query index range [begin, end) into the workload's answer vector.
  uint32_t begin = 0;
  uint32_t end = 0;
  /// Max L1 change of this group's answers when one tuple changes.
  double sensitivity_coeff = 1.0;

  uint32_t size() const { return end - begin; }
};

/// An immutable batch of count queries with their (private!) true answers
/// and group structure. Mechanisms read `true_answers()` only through the
/// noise-injection primitives; published outputs never expose it directly.
class Workload {
 public:
  /// Validates and builds a workload. Groups must tile [0, num answers)
  /// contiguously in order and have positive sensitivity coefficients.
  static Result<Workload> Create(std::vector<double> true_answers,
                                 std::vector<QueryGroup> groups);

  /// Convenience: each query forms its own group with the given coefficient
  /// (the generic batch-query setting of Sections 2–4).
  static Result<Workload> PerQuery(std::vector<double> true_answers,
                                   double sensitivity_coeff = 1.0);

  /// Exact generalized sensitivity for per-group scales, replacing the
  /// default additive formula. Must be positive, monotone non-increasing
  /// in every scale, and +infinity for non-positive scales.
  using SensitivityFn = std::function<double(std::span<const double>)>;

  /// Like Create, but GS(Λ) is computed by `sensitivity` instead of
  /// Σ c_g/λ_g. Use when the additive bound is loose — e.g. groups over
  /// *disjoint* cells, where one moved tuple touches at most two groups
  /// and the exact GS is max over group pairs (see
  /// queries/range_workload.h's DisjointHistogramWorkload).
  static Result<Workload> CreateWithSensitivityFn(
      std::vector<double> true_answers, std::vector<QueryGroup> groups,
      SensitivityFn sensitivity);

  size_t num_queries() const { return true_answers_.size(); }
  size_t num_groups() const { return groups_.size(); }

  /// True when GS is computed by a caller-supplied SensitivityFn rather
  /// than the additive Σ c_g/λ_g formula. Incremental GS accounting
  /// (dp/incremental_sensitivity.h) must fall back to full recomputes for
  /// such workloads because a custom GS need not decompose per group.
  bool has_custom_sensitivity() const {
    return static_cast<bool>(custom_sensitivity_);
  }
  const QueryGroup& group(size_t g) const { return groups_[g]; }
  std::span<const QueryGroup> groups() const { return groups_; }

  /// Group index owning query `i` (binary search over the group bounds;
  /// loop over groups() instead when visiting every query).
  size_t group_of(size_t i) const;

  double true_answer(size_t i) const { return true_answers_[i]; }
  std::span<const double> true_answers() const { return true_answers_; }

  /// Sensitivity S(Q) (Definition 3): GS with all scales equal to 1,
  /// i.e. the sum of the group coefficients.
  double Sensitivity() const;

  /// Generalized sensitivity GS(Q, Λ) (Definition 4) for per-group scales.
  /// Scales must all be positive; non-positive scales yield +infinity.
  double GeneralizedSensitivity(std::span<const double> group_scales) const;
  double GeneralizedSensitivity(
      std::initializer_list<double> group_scales) const {
    return GeneralizedSensitivity(
        std::span<const double>(group_scales.begin(), group_scales.size()));
  }

  /// Expands per-group scales to a per-query scale vector.
  std::vector<double> PerQueryScales(
      std::span<const double> group_scales) const;
  std::vector<double> PerQueryScales(
      std::initializer_list<double> group_scales) const {
    return PerQueryScales(
        std::span<const double>(group_scales.begin(), group_scales.size()));
  }

  /// Optional linear-query view of this workload: a sparse matrix W over a
  /// domain histogram whose product reproduces `true_answers()` (see
  /// queries/linear_workload.h). Strategy-based mechanisms consult it to
  /// noise the histogram domain instead of the answer vector; every other
  /// mechanism ignores it. Null when no view is attached. The dp/ layer
  /// only stores the pointer — it never dereferences it — so no dependency
  /// on queries/ is introduced.
  void SetLinear(std::shared_ptr<const LinearWorkload> linear) {
    linear_ = std::move(linear);
  }
  const std::shared_ptr<const LinearWorkload>& linear() const {
    return linear_;
  }

 private:
  Workload(std::vector<double> true_answers, std::vector<QueryGroup> groups);

  std::vector<double> true_answers_;
  std::vector<QueryGroup> groups_;
  SensitivityFn custom_sensitivity_;  // null: additive Σ c_g/λ_g
  std::shared_ptr<const LinearWorkload> linear_;  // null: no linear view
};

}  // namespace ireduct

#endif  // IREDUCT_DP_WORKLOAD_H_
