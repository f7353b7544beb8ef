// Bridges marginal collections and the mechanism layer: flattens a set of
// marginals into a grouped Workload (one group per marginal, sensitivity
// coefficient 2 — changing one tuple moves exactly two cells of each
// marginal by one, Section 5.1) and reconstructs noisy marginals from a
// mechanism's flat answer vector.
#ifndef IREDUCT_MARGINALS_MARGINAL_WORKLOAD_H_
#define IREDUCT_MARGINALS_MARGINAL_WORKLOAD_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/result.h"
#include "dp/workload.h"
#include "marginals/marginal.h"
#include "queries/linear_workload.h"

namespace ireduct {

/// A marginal collection in workload form.
class MarginalWorkload {
 public:
  /// Flattens `marginals` (cells in row-major order, marginal by marginal).
  static Result<MarginalWorkload> Create(std::vector<Marginal> marginals);

  const Workload& workload() const { return workload_; }
  size_t num_marginals() const { return shapes_.size(); }
  /// Marginal i with its true counts, built on demand: the counts are
  /// kept once, as group i of workload().true_answers().
  Marginal marginal(size_t i) const;

  /// Rebuilds per-marginal tables from a mechanism's flat published
  /// answers (`answers.size()` must equal the workload's query count).
  Result<std::vector<Marginal>> ToMarginals(
      std::span<const double> answers) const;

  /// Lowers the marginal set to cell-indicator linear queries over the
  /// *joint* domain of the union of all marginals' attributes: one pass
  /// over `dataset` builds the joint histogram, and every marginal cell
  /// becomes a 0/1 row selecting the joint cells that project onto it
  /// (move semantics — one moved tuple changes two cells per marginal).
  /// The linear workload's Answers() equal this workload's
  /// true_answers() exactly; strategy mechanisms can then noise the
  /// joint domain instead of the flattened cells. Refused when the
  /// joint domain exceeds `max_cells` (the product of attribute domain
  /// sizes grows combinatorially — this is a small-schema tool).
  Result<LinearWorkload> ToLinear(const Dataset& dataset,
                                  size_t max_cells = size_t{1} << 20) const;

 private:
  // What a marginal is, without its counts. Marginal i's cells are group
  // i of the workload.
  struct Shape {
    MarginalSpec spec;
    std::vector<uint32_t> domain_sizes;  // aligned with spec.attributes
  };

  MarginalWorkload(std::vector<Shape> shapes, Workload workload)
      : shapes_(std::move(shapes)), workload_(std::move(workload)) {}

  std::vector<Shape> shapes_;
  Workload workload_;
};

}  // namespace ireduct

#endif  // IREDUCT_MARGINALS_MARGINAL_WORKLOAD_H_
