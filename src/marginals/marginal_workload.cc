#include "marginals/marginal_workload.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"

namespace ireduct {

namespace {
// One tuple change moves two cells of every marginal by one each
// (Section 5.1: sensitivity of a marginal set is 2·|M|).
constexpr double kMarginalSensitivity = 2.0;
}  // namespace

Result<MarginalWorkload> MarginalWorkload::Create(
    std::vector<Marginal> marginals) {
  if (marginals.empty()) {
    return Status::InvalidArgument("need at least one marginal");
  }
  size_t total_cells = 0;
  for (const Marginal& m : marginals) total_cells += m.num_cells();
  std::vector<double> answers;
  answers.reserve(total_cells);
  std::vector<QueryGroup> groups;
  groups.reserve(marginals.size());
  std::vector<Shape> shapes;
  shapes.reserve(marginals.size());
  uint32_t offset = 0;
  for (size_t i = 0; i < marginals.size(); ++i) {
    // Taken out of the vector so its counts are freed as soon as they are
    // copied: the cells are held once, not twice, while the flat answer
    // vector fills.
    const Marginal m = std::move(marginals[i]);
    answers.insert(answers.end(), m.counts().begin(), m.counts().end());
    const uint32_t cells = static_cast<uint32_t>(m.num_cells());
    groups.push_back(QueryGroup{"M" + std::to_string(i), offset,
                                offset + cells, kMarginalSensitivity});
    shapes.push_back(Shape{m.spec(), m.domain_sizes()});
    offset += cells;
  }
  IREDUCT_ASSIGN_OR_RETURN(
      Workload workload, Workload::Create(std::move(answers),
                                          std::move(groups)));
  return MarginalWorkload(std::move(shapes), std::move(workload));
}

Marginal MarginalWorkload::marginal(size_t i) const {
  const QueryGroup& group = workload_.group(i);
  const std::span<const double> counts =
      workload_.true_answers().subspan(group.begin, group.size());
  Result<Marginal> m =
      Marginal::FromCounts(shapes_[i].spec, shapes_[i].domain_sizes,
                           std::vector<double>(counts.begin(), counts.end()));
  IREDUCT_CHECK(m.ok());  // the shape came from a valid Marginal
  return std::move(m).value();
}

Result<std::vector<Marginal>> MarginalWorkload::ToMarginals(
    std::span<const double> answers) const {
  if (answers.size() != workload_.num_queries()) {
    return Status::InvalidArgument("answer vector size mismatch");
  }
  std::vector<Marginal> noisy;
  noisy.reserve(shapes_.size());
  for (size_t i = 0; i < shapes_.size(); ++i) {
    const QueryGroup& group = workload_.group(i);
    std::vector<double> counts(answers.begin() + group.begin,
                               answers.begin() + group.end);
    IREDUCT_ASSIGN_OR_RETURN(
        Marginal rebuilt,
        Marginal::FromCounts(shapes_[i].spec, shapes_[i].domain_sizes,
                             std::move(counts)));
    noisy.push_back(std::move(rebuilt));
  }
  return noisy;
}

Result<LinearWorkload> MarginalWorkload::ToLinear(const Dataset& dataset,
                                                  size_t max_cells) const {
  // Union of attributes across all marginals, sorted.
  std::vector<uint32_t> attrs;
  for (const Shape& m : shapes_) {
    attrs.insert(attrs.end(), m.spec.attributes.begin(),
                 m.spec.attributes.end());
  }
  std::sort(attrs.begin(), attrs.end());
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
  const Schema& schema = dataset.schema();
  for (uint32_t a : attrs) {
    if (a >= schema.num_attributes()) {
      return Status::OutOfRange("marginal attribute " + std::to_string(a) +
                                " not in the dataset schema");
    }
  }
  for (const Shape& m : shapes_) {
    for (size_t k = 0; k < m.spec.attributes.size(); ++k) {
      if (m.domain_sizes[k] !=
          schema.attribute(m.spec.attributes[k]).domain_size) {
        return Status::InvalidArgument(
            "marginal domain sizes do not match the dataset schema");
      }
    }
  }

  // Joint domain shape (row-major, first attribute varies slowest).
  std::vector<size_t> dims(attrs.size());
  size_t cells = 1;
  for (size_t k = 0; k < attrs.size(); ++k) {
    dims[k] = schema.attribute(attrs[k]).domain_size;
    if (dims[k] == 0 || cells > max_cells / dims[k]) {
      return Status::InvalidArgument(
          "joint domain of the marginal union exceeds max_cells (" +
          std::to_string(max_cells) + ")");
    }
    cells *= dims[k];
  }
  std::vector<size_t> strides(attrs.size());
  size_t stride = 1;
  for (size_t k = attrs.size(); k-- > 0;) {
    strides[k] = stride;
    stride *= dims[k];
  }

  // The joint histogram: one pass over the dataset.
  std::vector<double> histogram(cells, 0.0);
  for (size_t row = 0; row < dataset.num_rows(); ++row) {
    size_t idx = 0;
    for (size_t k = 0; k < attrs.size(); ++k) {
      idx += size_t{dataset.value(row, attrs[k])} * strides[k];
    }
    histogram[idx] += 1.0;
  }

  // One 0/1 row per marginal cell, selecting the joint cells that
  // project onto it.
  SparseMatrix::Builder builder(workload_.num_queries(), cells);
  for (size_t i = 0; i < shapes_.size(); ++i) {
    const Shape& m = shapes_[i];
    const uint32_t offset = workload_.group(i).begin;
    const size_t arity = m.spec.attributes.size();
    std::vector<size_t> pos(arity);  // attribute position within `attrs`
    for (size_t k = 0; k < arity; ++k) {
      pos[k] = static_cast<size_t>(
          std::lower_bound(attrs.begin(), attrs.end(),
                           m.spec.attributes[k]) -
          attrs.begin());
    }
    std::vector<size_t> mstrides(arity);
    size_t ms = 1;
    for (size_t k = arity; k-- > 0;) {
      mstrides[k] = ms;
      ms *= m.domain_sizes[k];
    }
    for (size_t j = 0; j < cells; ++j) {
      size_t cell = 0;
      for (size_t k = 0; k < arity; ++k) {
        cell += ((j / strides[pos[k]]) % dims[pos[k]]) * mstrides[k];
      }
      builder.Add(offset + static_cast<uint32_t>(cell),
                  static_cast<uint32_t>(j), 1.0);
    }
  }
  IREDUCT_ASSIGN_OR_RETURN(SparseMatrix w, std::move(builder).Build());
  return LinearWorkload::Create(std::move(w), std::move(histogram),
                                NeighborModel::kMove);
}

}  // namespace ireduct
