#include "marginals/marginal_evaluator.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
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

// Scratch for the striped counting kernels: kBatchLanes * cells uint32s
// from a per-thread arena. Call-local lifetime: the scratch is dead once
// the caller's counting pass returns, so Reset-at-entry is safe even when
// one pool worker runs several tasks.
uint32_t* LaneScratch(size_t cells) {
  thread_local Arena arena;
  arena.Reset();
  return arena.Alloc<uint32_t>(simd::kBatchLanes * cells);
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
    plan.slots.reserve(spec.attributes.size());
    for (size_t i = 0; i < spec.attributes.size(); ++i) {
      const auto it = std::lower_bound(evaluator.columns_.begin(),
                                       evaluator.columns_.end(),
                                       spec.attributes[i]);
      plan.slots.push_back(
          static_cast<uint32_t>(it - evaluator.columns_.begin()));
    }
    plan.strides = std::move(strides);
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

bool MarginalSetEvaluator::Striped(const SpecPlan& plan, size_t rows) {
  // Striping only pays when the row range dwarfs a cache-resident table;
  // small ranges and huge tables count directly into the table.
  return rows >= 4 * plan.cells && plan.cells > 1 &&
         plan.cells <= kMaxStripedCells;
}

void MarginalSetEvaluator::CountPlan(const SpecPlan& plan,
                                     const uint16_t* const* plan_cols,
                                     const uint32_t* row_idx, size_t begin,
                                     size_t end, uint32_t* counts,
                                     uint32_t* lane_scratch) {
  // Census data is Zipf-skewed, so consecutive rows keep hitting the same
  // hot cells and a naive ++table[cell] serializes on store-to-load
  // forwarding; the kernel stripes increments across four private tables
  // (and on AVX2 computes the cell indices 16 rows at a time) and merges
  // in fixed lane order. Counts are integers, so striping cannot change
  // any total.
  simd::CountPlanNArgs args;
  args.cols = plan_cols;
  args.strides = plan.strides.data();
  args.arity = plan.strides.size();
  args.row_idx = row_idx;
  args.begin = begin;
  args.end = end;
  args.counts = counts;
  args.cells = plan.cells;
  args.lane_scratch = Striped(plan, end - begin) ? lane_scratch : nullptr;
  simd::CountPlanN(args);
}

void MarginalSetEvaluator::CountColumns(const uint16_t* const* cols,
                                        const uint32_t* row_idx, size_t begin,
                                        size_t end, uint32_t* counts) const {
  // Lane scratch sized for the widest striping-eligible plan and reused
  // across plans.
  uint32_t* lane_scratch =
      max_kernel_cells_ > 0 ? LaneScratch(max_kernel_cells_) : nullptr;
  std::vector<const uint16_t*> plan_cols;
  for (const SpecPlan& plan : plans_) {
    plan_cols.clear();
    for (const uint32_t slot : plan.slots) plan_cols.push_back(cols[slot]);
    CountPlan(plan, plan_cols.data(), row_idx, begin, end,
              counts + plan.offset, lane_scratch);
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

  // Count by marginal: each task is one (marginal, row chunk) pair that
  // counts into a table of that marginal's size only, so the pass never
  // holds a per-worker copy of every table. Workers are capped at the
  // machine's cores: a pool may be wider than the CPU, and oversubscribed
  // tasks once pushed the fig08/09 run below 1x on single-core runners.
  // With at least 4x as many marginals as workers, one chunk per marginal
  // keeps every worker busy; with fewer, each marginal's rows split into
  // just enough chunks for that (at most one per worker, each of at least
  // kMinRowsPerShard rows). Counts are integers, so any split gives tables
  // bit-identical to the sequential pass.
  const size_t num_plans = plans_.size();
  size_t workers = 1;
  if (pool != nullptr && pool->num_threads() > 1) {
    size_t hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = pool->num_threads();
    workers = std::min<size_t>(pool->num_threads(), hw);
  }
  size_t chunks = 1;
  if (workers > 1 && num_plans > 0 && num_plans < 4 * workers) {
    constexpr size_t kMinRowsPerShard = 1024;
    chunks = std::min({(4 * workers + num_plans - 1) / num_plans, workers,
                       std::max<size_t>(1, n / kMinRowsPerShard)});
  }

  struct PlanCounts {
    std::vector<std::vector<uint32_t>> chunk_counts;
    std::atomic<size_t> pending{0};
    std::vector<double> counts;
  };
  std::vector<PlanCounts> results(num_plans);
  const uint32_t* row_idx = rows.empty() ? nullptr : rows.data();
  const auto count_task = [&](size_t p, size_t c) {
    const SpecPlan& plan = plans_[p];
    PlanCounts& result = results[p];
    const size_t begin = n * c / chunks;
    const size_t end = n * (c + 1) / chunks;
    std::vector<const uint16_t*> plan_cols;
    for (const uint32_t a : plan.spec.attributes) {
      plan_cols.push_back(dataset.column(a).data());
    }
    std::vector<uint32_t>& table = result.chunk_counts[c];
    table.assign(plan.cells, 0);
    CountPlan(plan, plan_cols.data(), row_idx, begin, end, table.data(),
              Striped(plan, end - begin) ? LaneScratch(plan.cells) : nullptr);
    // The last chunk to finish merges the marginal in fixed chunk order
    // (in uint32, which holds any count below 2^32 rows, the bound a
    // single-chunk pass already has) and writes its doubles once.
    // Integer-valued, < 2^53: exactly the doubles the sequential += 1.0
    // accumulation of Marginal::Compute produces.
    if (result.pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    std::vector<uint32_t>& total = result.chunk_counts[0];
    for (size_t k = 1; k < chunks; ++k) {
      const uint32_t* src = result.chunk_counts[k].data();
      for (size_t cell = 0; cell < plan.cells; ++cell) total[cell] += src[cell];
    }
    result.counts.assign(total.begin(), total.end());
    result.chunk_counts = {};
  };
  for (PlanCounts& result : results) {
    result.chunk_counts.resize(chunks);
    result.pending.store(chunks, std::memory_order_relaxed);
  }

  if (workers <= 1) {
    for (size_t p = 0; p < num_plans; ++p) count_task(p, 0);
  } else {
    // Largest tables first, so the small ones fill in behind them.
    std::vector<size_t> order(num_plans);
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
      return plans_[a].cells > plans_[b].cells;
    });
    // Each task writes only its own slot, so the timing vector needs no
    // lock; it is read after Wait() establishes the happens-before edge.
    std::vector<double> task_seconds(num_plans * chunks, 0);
    for (const size_t p : order) {
      for (size_t c = 0; c < chunks; ++c) {
        pool->Submit([&count_task, &task_seconds, p, c, chunks] {
          const auto task_start = std::chrono::steady_clock::now();
          count_task(p, c);
          task_seconds[p * chunks + c] =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            task_start)
                  .count();
        });
      }
    }
    pool->Wait();
#if IREDUCT_ENABLE_TRACING
    if (obs::MetricsRegistry::enabled() && !task_seconds.empty()) {
      double total_seconds = 0;
      double max_seconds = 0;
      for (const double s : task_seconds) {
        IREDUCT_METRIC_OBSERVE("marginals.shard_seconds", s);
        total_seconds += s;
        max_seconds = std::max(max_seconds, s);
      }
      const double mean_seconds = total_seconds / task_seconds.size();
      // max/mean over tasks: ≈ 1 means even tasks; larger means one table
      // dominates the pass (largest-first submission starts it first).
      if (mean_seconds > 0) {
        IREDUCT_METRIC_GAUGE_SET("marginals.shard_imbalance",
                                 max_seconds / mean_seconds);
      }
    }
#endif
  }

  std::vector<Marginal> marginals;
  marginals.reserve(num_plans);
  for (size_t p = 0; p < num_plans; ++p) {
    const SpecPlan& plan = plans_[p];
    IREDUCT_ASSIGN_OR_RETURN(
        Marginal m, Marginal::FromCounts(plan.spec, plan.domain_sizes,
                                         std::move(results[p].counts)));
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
