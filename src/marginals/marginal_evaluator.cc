#include "marginals/marginal_evaluator.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <thread>
#include <unordered_set>

#include "common/arena.h"
#include "common/logging.h"
#include "common/simd_kernels.h"
#include "data/columnar.h"
#include "obs/metrics.h"

namespace ireduct {

namespace {

// Plans with more cells than this count directly instead of striping:
// beyond it the four private lane tables stop fitting in cache and the
// scratch clear/merge dominates, and an uncapped bound would let one huge
// 2-way plan size gigabytes of per-shard scratch. Totals are unaffected —
// striping is a perf mode, not a semantic one.
constexpr size_t kMaxStripedCells = size_t{1} << 21;

// Mirrors the per-spec validation of Marginal::Compute so the fused path
// rejects exactly what the per-marginal path rejects.
Status ValidateSpec(const MarginalSpec& spec, size_t num_attributes) {
  if (spec.attributes.empty()) {
    return Status::InvalidArgument("marginal spec needs >= 1 attribute");
  }
  std::unordered_set<uint32_t> seen;
  for (uint32_t a : spec.attributes) {
    if (a >= num_attributes) {
      return Status::OutOfRange("attribute index out of range");
    }
    if (!seen.insert(a).second) {
      return Status::InvalidArgument("duplicate attribute in marginal spec");
    }
  }
  return Status::OK();
}

Result<size_t> CellCount(const std::vector<uint32_t>& domain_sizes) {
  size_t cells = 1;
  for (uint32_t ds : domain_sizes) {
    if (ds == 0) return Status::InvalidArgument("zero domain size");
    if (cells > (static_cast<size_t>(1) << 40) / ds) {
      return Status::InvalidArgument("marginal domain too large");
    }
    cells *= ds;
  }
  return cells;
}

}  // namespace

Result<MarginalSetEvaluator> MarginalSetEvaluator::Create(
    const Schema& schema, std::vector<MarginalSpec> specs) {
  MarginalSetEvaluator evaluator;
  evaluator.num_schema_attributes_ = schema.num_attributes();

  // Sorted union of every referenced attribute; one load per row each.
  std::vector<uint32_t> columns;
  for (const MarginalSpec& spec : specs) {
    IREDUCT_RETURN_NOT_OK(ValidateSpec(spec, schema.num_attributes()));
    columns.insert(columns.end(), spec.attributes.begin(),
                   spec.attributes.end());
  }
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  evaluator.columns_ = std::move(columns);

  size_t offset = 0;
  evaluator.plans_.reserve(specs.size());
  for (MarginalSpec& spec : specs) {
    SpecPlan plan;
    plan.domain_sizes.reserve(spec.attributes.size());
    for (uint32_t a : spec.attributes) {
      plan.domain_sizes.push_back(schema.attribute(a).domain_size);
    }
    IREDUCT_ASSIGN_OR_RETURN(plan.cells, CellCount(plan.domain_sizes));
    // Row-major strides, first attribute varying slowest — identical cell
    // order to Marginal.
    std::vector<size_t> strides(spec.attributes.size());
    size_t stride = 1;
    for (size_t i = spec.attributes.size(); i-- > 0;) {
      strides[i] = stride;
      stride *= plan.domain_sizes[i];
    }
    plan.terms.reserve(spec.attributes.size());
    for (size_t i = 0; i < spec.attributes.size(); ++i) {
      const auto it = std::lower_bound(evaluator.columns_.begin(),
                                       evaluator.columns_.end(),
                                       spec.attributes[i]);
      plan.terms.emplace_back(
          static_cast<uint32_t>(it - evaluator.columns_.begin()), strides[i]);
    }
    plan.offset = offset;
    if (offset > (static_cast<size_t>(1) << 42) - plan.cells) {
      return Status::InvalidArgument("fused marginal table too large");
    }
    offset += plan.cells;
    if (plan.cells <= kMaxStripedCells) {
      evaluator.max_kernel_cells_ =
          std::max(evaluator.max_kernel_cells_, plan.cells);
    }
    plan.spec = std::move(spec);
    evaluator.plans_.push_back(std::move(plan));
  }
  evaluator.total_cells_ = offset;
  return evaluator;
}

void MarginalSetEvaluator::CountShard(const Dataset& dataset,
                                      std::span<const uint32_t> rows,
                                      size_t begin, size_t end,
                                      uint32_t* counts) const {
  // Raw column pointers for the referenced attributes only.
  std::vector<const uint16_t*> cols;
  cols.reserve(columns_.size());
  for (uint32_t c : columns_) cols.push_back(dataset.column(c).data());
  CountColumns(cols.data(), rows.empty() ? nullptr : rows.data(), begin, end,
               counts);
}

void MarginalSetEvaluator::CountColumns(const uint16_t* const* cols,
                                        const uint32_t* row_idx, size_t begin,
                                        size_t end, uint32_t* counts) const {
  const size_t nrows = end - begin;

  // Lane scratch for the striped counting kernels, sized for the widest
  // striping-eligible plan and reused across plans. Call-local lifetime:
  // the scratch is dead once the plan's merge into `counts` finishes, so
  // Reset-at-entry is safe even when one pool worker runs several shards.
  thread_local Arena scratch_arena;
  scratch_arena.Reset();
  uint32_t* lane_scratch = nullptr;
  if (max_kernel_cells_ > 0) {
    lane_scratch =
        scratch_arena.Alloc<uint32_t>(simd::kBatchLanes * max_kernel_cells_);
  }

  // Plan-major: every plan goes through the dispatched counting kernel.
  // Census data is Zipf-skewed, so consecutive rows keep hitting the same
  // hot cells and a naive ++table[cell] serializes on store-to-load
  // forwarding; the kernel stripes increments across four private tables
  // (and on AVX2 computes the cell indices 16 rows at a time) and merges
  // in fixed lane order. Counts are integers, so striping cannot change
  // any total. Striping only pays when the row range dwarfs a
  // cache-resident table; small shards and huge tables count directly
  // into `counts`.
  std::vector<const uint16_t*> plan_cols;
  std::vector<size_t> plan_strides;
  for (const SpecPlan& plan : plans_) {
    plan_cols.clear();
    plan_strides.clear();
    for (const auto& [col, stride] : plan.terms) {
      plan_cols.push_back(cols[col]);
      plan_strides.push_back(stride);
    }
    const bool striped = nrows >= 4 * plan.cells && plan.cells > 1 &&
                         plan.cells <= kMaxStripedCells;
    simd::CountPlanNArgs args;
    args.cols = plan_cols.data();
    args.strides = plan_strides.data();
    args.arity = plan.terms.size();
    args.row_idx = row_idx;
    args.begin = begin;
    args.end = end;
    args.counts = counts + plan.offset;
    args.cells = plan.cells;
    args.lane_scratch = striped ? lane_scratch : nullptr;
    simd::CountPlanN(args);
  }
}

Result<std::vector<Marginal>> MarginalSetEvaluator::Compute(
    const Dataset& dataset, std::span<const uint32_t> rows,
    ThreadPool* pool) const {
  if (dataset.schema().num_attributes() < num_schema_attributes_) {
    return Status::InvalidArgument(
        "dataset has fewer attributes than the evaluation plan");
  }
  for (const SpecPlan& plan : plans_) {
    for (size_t i = 0; i < plan.spec.attributes.size(); ++i) {
      if (dataset.schema().attribute(plan.spec.attributes[i]).domain_size !=
          plan.domain_sizes[i]) {
        return Status::InvalidArgument(
            "dataset domain sizes do not match the evaluation plan");
      }
    }
  }
  const size_t n = rows.empty() ? dataset.num_rows() : rows.size();
  for (uint32_t r : rows) {
    if (r >= dataset.num_rows()) {
      return Status::OutOfRange("row index out of range");
    }
  }

  IREDUCT_SCOPED_TIMER(fused_timer, "marginals.fused_seconds");
  IREDUCT_METRIC_COUNT("marginals.fused_passes", 1);
  IREDUCT_METRIC_COUNT("marginals.fused_rows", n);
  const auto pass_start = std::chrono::steady_clock::now();

  // One shard per worker, but never shards so small that the per-shard
  // accumulator allocation dominates — and never more shards than the
  // machine has cores. A pool can legitimately be wider than the CPU
  // (callers size pools for their workload, not this pass), but extra
  // shards on an oversubscribed machine are pure overhead: each one is a
  // full accumulator block to allocate, fill, and merge with zero added
  // parallelism. That overhead is exactly what pushed the fig08/09
  // end-to-end run below 1x on single-core CI runners. Shard *count* only
  // affects wall-clock: cell counts are integers, so merging shard blocks
  // in any grouping yields the same totals and the final double tables are
  // bit-identical to the sequential pass.
  size_t num_shards = 1;
  if (pool != nullptr && pool->num_threads() > 1) {
    constexpr size_t kMinRowsPerShard = 1024;
    size_t hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = pool->num_threads();
    num_shards = std::min<size_t>(
        std::min<size_t>(pool->num_threads(), hw),
        std::max<size_t>(1, n / kMinRowsPerShard));
  }

  std::vector<uint64_t> totals(total_cells_, 0);
  if (num_shards <= 1) {
    std::vector<uint32_t> counts(total_cells_, 0);
    CountShard(dataset, rows, 0, n, counts.data());
    for (size_t c = 0; c < total_cells_; ++c) totals[c] = counts[c];
  } else {
    std::vector<std::vector<uint32_t>> shard_counts(num_shards);
    // Each worker writes only its own slot, so the timing vector needs no
    // lock; it is read after Wait() establishes the happens-before edge.
    std::vector<double> shard_seconds(num_shards, 0);
    for (size_t s = 0; s < num_shards; ++s) {
      const size_t begin = n * s / num_shards;
      const size_t end = n * (s + 1) / num_shards;
      pool->Submit([this, &dataset, rows, begin, end, &shard_counts,
                    &shard_seconds, s] {
        const auto shard_start = std::chrono::steady_clock::now();
        shard_counts[s].assign(total_cells_, 0);
        CountShard(dataset, rows, begin, end, shard_counts[s].data());
        shard_seconds[s] = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - shard_start)
                               .count();
      });
    }
    pool->Wait();
#if IREDUCT_ENABLE_TRACING
    if (obs::MetricsRegistry::enabled()) {
      double total_seconds = 0;
      double max_seconds = 0;
      for (const double s : shard_seconds) {
        IREDUCT_METRIC_OBSERVE("marginals.shard_seconds", s);
        total_seconds += s;
        max_seconds = std::max(max_seconds, s);
      }
      const double mean_seconds = total_seconds / num_shards;
      // max/mean ≈ 1 means even shards; > 1 quantifies straggler loss.
      if (mean_seconds > 0) {
        IREDUCT_METRIC_GAUGE_SET("marginals.shard_imbalance",
                                 max_seconds / mean_seconds);
      }
    }
#endif
    // Fixed shard order; with integer counts any order gives the same sum.
    for (size_t s = 0; s < num_shards; ++s) {
      const uint32_t* src = shard_counts[s].data();
      for (size_t c = 0; c < total_cells_; ++c) totals[c] += src[c];
    }
  }

  std::vector<Marginal> marginals;
  marginals.reserve(plans_.size());
  for (const SpecPlan& plan : plans_) {
    std::vector<double> counts(plan.cells);
    for (size_t c = 0; c < plan.cells; ++c) {
      // Integer-valued, < 2^53: exactly the double the sequential += 1.0
      // accumulation of Marginal::Compute produces.
      counts[c] = static_cast<double>(totals[plan.offset + c]);
    }
    IREDUCT_ASSIGN_OR_RETURN(
        Marginal m, Marginal::FromCounts(plan.spec, plan.domain_sizes,
                                         std::move(counts)));
    marginals.push_back(std::move(m));
  }
  const double pass_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    pass_start)
          .count();
  if (pass_seconds > 0) {
    IREDUCT_METRIC_GAUGE_SET("marginals.rows_per_second",
                             static_cast<double>(n) / pass_seconds);
  }
  return marginals;
}

Result<std::vector<Marginal>> MarginalSetEvaluator::ComputeStreaming(
    const ColumnarFile& file, ThreadPool* pool) const {
  const Schema& schema = file.schema();
  if (schema.num_attributes() < num_schema_attributes_) {
    return Status::InvalidArgument(
        "columnar file has fewer attributes than the evaluation plan");
  }
  for (const SpecPlan& plan : plans_) {
    for (size_t i = 0; i < plan.spec.attributes.size(); ++i) {
      if (schema.attribute(plan.spec.attributes[i]).domain_size !=
          plan.domain_sizes[i]) {
        return Status::InvalidArgument(
            "columnar file domain sizes do not match the evaluation plan");
      }
    }
  }
  const uint64_t n = file.num_rows();
  const uint32_t num_blocks = file.num_blocks();
  const size_t block_rows = file.block_rows();
  const size_t ncols = columns_.size();

  IREDUCT_SCOPED_TIMER(stream_timer, "marginals.streaming_seconds");
  IREDUCT_METRIC_COUNT("marginals.streaming_passes", 1);
  IREDUCT_METRIC_COUNT("marginals.streaming_rows", n);
  const auto pass_start = std::chrono::steady_clock::now();

  // Same shard clamp as Compute, against the rows of one (full) block.
  size_t num_shards = 1;
  if (pool != nullptr && pool->num_threads() > 1) {
    constexpr size_t kMinRowsPerShard = 1024;
    size_t hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = pool->num_threads();
    num_shards =
        std::min<size_t>(std::min<size_t>(pool->num_threads(), hw),
                         std::max<size_t>(1, block_rows / kMinRowsPerShard));
  }

  // Double-buffered block decode: while shard jobs count block b out of
  // one slot, a decode job fills the other slot with block b+1; the
  // pool->Wait() at the bottom of the loop joins both. Each slot holds
  // only the referenced columns — unreferenced columns are never decoded.
  struct Slot {
    std::vector<std::vector<uint16_t>> cols;
    Status status = Status::OK();
  };
  std::array<Slot, 2> slots;
  for (Slot& slot : slots) {
    slot.cols.resize(ncols);
    for (auto& col : slot.cols) col.resize(block_rows);
  }
  const auto decode_block = [&](uint32_t b, Slot& slot) {
    slot.status = Status::OK();
    for (size_t i = 0; i < ncols; ++i) {
      Status s = file.DecodeChunk(columns_[i], b, slot.cols[i].data());
      if (!s.ok()) {
        slot.status = std::move(s);
        return;
      }
    }
  };

  // Per-shard uint32 accumulators live across blocks and merge once at the
  // end — the same overflow headroom (2^32 rows per shard) and the same
  // fixed-order integer merge as the in-memory pass, which is what keeps
  // the totals bit-identical to Compute at any thread count or block size.
  std::vector<std::vector<uint32_t>> shard_counts(num_shards);
  for (auto& counts : shard_counts) counts.assign(total_cells_, 0);

  if (num_blocks > 0) decode_block(0, slots[0]);
  std::vector<const uint16_t*> ptrs(ncols);
  for (uint32_t b = 0; b < num_blocks; ++b) {
    Slot& cur = slots[b % 2];
    Slot& next = slots[(b + 1) % 2];
    IREDUCT_RETURN_NOT_OK(cur.status);
    const size_t rows_b = file.RowsInBlock(b);
    for (size_t i = 0; i < ncols; ++i) ptrs[i] = cur.cols[i].data();
    if (pool != nullptr) {
      if (b + 1 < num_blocks) {
        pool->Submit([&decode_block, &next, nb = b + 1] {
          decode_block(nb, next);
        });
      }
      for (size_t s = 0; s < num_shards; ++s) {
        const size_t begin = rows_b * s / num_shards;
        const size_t end = rows_b * (s + 1) / num_shards;
        pool->Submit([this, &ptrs, &shard_counts, begin, end, s] {
          CountColumns(ptrs.data(), nullptr, begin, end,
                       shard_counts[s].data());
        });
      }
      pool->Wait();
    } else {
      CountColumns(ptrs.data(), nullptr, 0, rows_b, shard_counts[0].data());
      if (b + 1 < num_blocks) decode_block(b + 1, slots[(b + 1) % 2]);
    }
  }

  std::vector<uint64_t> totals(total_cells_, 0);
  for (size_t s = 0; s < num_shards; ++s) {
    const uint32_t* src = shard_counts[s].data();
    for (size_t c = 0; c < total_cells_; ++c) totals[c] += src[c];
  }

  std::vector<Marginal> marginals;
  marginals.reserve(plans_.size());
  for (const SpecPlan& plan : plans_) {
    std::vector<double> counts(plan.cells);
    for (size_t c = 0; c < plan.cells; ++c) {
      counts[c] = static_cast<double>(totals[plan.offset + c]);
    }
    IREDUCT_ASSIGN_OR_RETURN(
        Marginal m, Marginal::FromCounts(plan.spec, plan.domain_sizes,
                                         std::move(counts)));
    marginals.push_back(std::move(m));
  }
  const double pass_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    pass_start)
          .count();
  if (pass_seconds > 0) {
    IREDUCT_METRIC_GAUGE_SET("marginals.streaming_rows_per_second",
                             static_cast<double>(n) / pass_seconds);
  }
  return marginals;
}

}  // namespace ireduct
