// Fused evaluation of marginal collections.
//
// Computing the true tables for an all-k-way task with Marginal::Compute
// costs one full dataset scan *per marginal* — 36 scans for the paper's 2D
// census task. MarginalSetEvaluator instead prepares the per-marginal
// column/stride tables once and counts every marginal in a single
// row-sharded pass over the columnar Dataset: each row's attribute codes
// are loaded once and folded into all marginals that reference them.
//
// Parallelism and determinism: with a ThreadPool, Compute runs one task per
// (marginal, row chunk) pair, largest tables first; each task counts into a
// uint32 table of its marginal's size only, and a marginal's chunks merge
// in fixed chunk order. Because cell counts are integers (every row
// contributes exactly +1 to one cell per marginal), integer merging is
// associative and the final double tables are bit-identical to sequential
// Marginal::Compute at any thread count — the evaluation-layer analogue of
// the BitGen::Fork substream discipline the batched iReduct rounds use.
#ifndef IREDUCT_MARGINALS_MARGINAL_EVALUATOR_H_
#define IREDUCT_MARGINALS_MARGINAL_EVALUATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "marginals/marginal.h"

namespace ireduct {

class ColumnarFile;

/// Precomputed plan for evaluating a fixed set of marginal specs over
/// datasets of one schema in a single pass.
class MarginalSetEvaluator {
 public:
  /// Validates every spec against `schema` (distinct in-range attributes,
  /// bounded cell counts — the same checks Marginal::Compute applies) and
  /// builds the fused plan. The evaluator may be reused across datasets
  /// that share the schema.
  static Result<MarginalSetEvaluator> Create(const Schema& schema,
                                             std::vector<MarginalSpec> specs);

  /// Counts every marginal over `dataset` (restricted to `rows` when
  /// non-empty). With a non-null `pool` the marginals (split into row
  /// chunks when there are few of them) count in parallel on its workers,
  /// holding one copy of the cells; the result is bit-identical to per-spec
  /// Marginal::Compute regardless of `pool` and its size. The dataset must
  /// have at least as many attributes as the plan's schema, with domain
  /// sizes no smaller than planned.
  Result<std::vector<Marginal>> Compute(const Dataset& dataset,
                                        std::span<const uint32_t> rows = {},
                                        ThreadPool* pool = nullptr) const;

  /// Out-of-core pass: counts every marginal over a columnar file
  /// block-by-block without materializing the table, holding at most two
  /// blocks of decoded values (double-buffered: with a `pool`, the next
  /// block decodes asynchronously while the current one is counted, and
  /// each block's rows are sharded across the remaining workers). Only the
  /// referenced columns are ever decoded. Counts are integers, so the
  /// result is bit-identical to Compute over the materialized dataset —
  /// and to per-spec Marginal::Compute — at any thread count and any
  /// block size.
  Result<std::vector<Marginal>> ComputeStreaming(
      const ColumnarFile& file, ThreadPool* pool = nullptr) const;

  size_t num_specs() const { return plans_.size(); }
  const MarginalSpec& spec(size_t i) const { return plans_[i].spec; }
  /// Total cells across all planned marginals (the accumulator footprint).
  size_t total_cells() const { return total_cells_; }

 private:
  struct SpecPlan {
    MarginalSpec spec;
    std::vector<uint32_t> domain_sizes;  // aligned with spec.attributes
    // Per attribute: its index into columns_ and its row-major stride.
    // cell = sum(strides[k] * row_value[attribute k]).
    std::vector<uint32_t> slots;
    std::vector<size_t> strides;
    size_t offset = 0;  // start of this marginal's block in the flat table
    size_t cells = 0;
  };

  MarginalSetEvaluator() = default;

  // Whether counting `rows` rows of `plan` stripes across lane scratch.
  static bool Striped(const SpecPlan& plan, size_t rows);

  // Counts rows [begin, end) (positions in `row_idx`, or raw rows when it
  // is null) of one plan into its table `counts`. `plan_cols[k]` is the
  // code pointer for the plan's k-th attribute; `lane_scratch` holds
  // kBatchLanes * plan.cells entries, or is null when !Striped.
  static void CountPlan(const SpecPlan& plan, const uint16_t* const* plan_cols,
                        const uint32_t* row_idx, size_t begin, size_t end,
                        uint32_t* counts, uint32_t* lane_scratch);

  // Streaming counting core: every plan over one block. `cols[i]` is the
  // code pointer for columns_[i]; `counts` is the flat table (size
  // total_cells_).
  void CountColumns(const uint16_t* const* cols, const uint32_t* row_idx,
                    size_t begin, size_t end, uint32_t* counts) const;

  std::vector<SpecPlan> plans_;
  std::vector<uint32_t> columns_;  // sorted union of referenced attributes
  size_t total_cells_ = 0;
  size_t num_schema_attributes_ = 0;
  // Largest cell count among striping-eligible plans (any arity, capped so
  // the scratch stays cache-resident); sizes the streaming pass's per-shard
  // lane scratch for the striped counting kernels.
  size_t max_kernel_cells_ = 0;
};

}  // namespace ireduct

#endif  // IREDUCT_MARGINALS_MARGINAL_EVALUATOR_H_
