// The iReduct algorithm (Section 4.3, Figure 4) — the paper's main
// contribution.
//
// Every group starts at the conservative scale λmax. Each iteration picks
// the group with the best estimated (relative-error decrease)/(privacy-cost
// increase) ratio, lowers its scale by λΔ, and — if the generalized
// sensitivity still fits the budget ε — refreshes its answers with the
// NoiseDown correlated resampler, whose privacy cost is that of the *final*
// scale alone (Theorem 1). Groups whose reduction would bust the budget
// leave the working set; the loop ends when the set is empty. The output is
// ε-differentially private (Theorem 2).
//
// An iteration costs O(log m) amortized: GS is tracked incrementally
// (dp/incremental_sensitivity.h) and PickQueries is a lazy max-heap
// (GroupScoreHeap), so only the refined group's answers are re-scanned.
// tests/support/ireduct_reference.h keeps Figure 4's literal O(m + n)
// loop as the bit-for-bit parity oracle.
#ifndef IREDUCT_ALGORITHMS_IREDUCT_H_
#define IREDUCT_ALGORITHMS_IREDUCT_H_

#include <cstddef>

#include "algorithms/mechanism.h"
#include "common/random.h"
#include "common/result.h"
#include "dp/checkpoint.h"
#include "dp/workload.h"

namespace ireduct {

/// Which correlated resampler drives the per-iteration noise reduction.
enum class NoiseReducer {
  /// The paper's NoiseDown distribution (Figure 3).
  kPaperNoiseDown,
  /// The exact atom coupling of dp/laplace_coupling.h (extension; exact
  /// guarantees at every scale, but the new answer can equal the old one).
  kExactCoupling,
};

/// PickQueries objective: minimize the overall (average) relative error via
/// the benefit/cost greedy of Section 5.3, or the maximum relative error via
/// the worst-cell rule of Section 4.3.
enum class IReductObjective {
  kOverallError,
  kMaxRelativeError,
};

struct IReductParams {
  /// Total privacy budget ε.
  double epsilon = 1.0;
  /// Sanity bound δ of Equation 1.
  double delta = 1.0;
  /// Initial (largest acceptable) noise scale; the paper uses |T|/10.
  double lambda_max = 1.0;
  /// Per-iteration scale decrement; the paper uses |T|/10^6.
  double lambda_delta = 1.0;
  /// Resampler used to walk answers down to the reduced scale.
  NoiseReducer reducer = NoiseReducer::kPaperNoiseDown;
  /// PickQueries objective (see IReductObjective).
  IReductObjective objective = IReductObjective::kOverallError;
  /// Batched round mode: admit up to batch_size distinct groups per round
  /// — in heap order, each tested against the running GS — then resample
  /// them all before re-scoring. 1 reproduces Figure 4's strictly
  /// sequential refinement exactly; see docs/PERFORMANCE.md for how k>1
  /// relates to k sequential iterations.
  size_t batch_size = 1;
  /// Worker threads for the batched round's NoiseDown resampling. Results
  /// are bit-identical for every thread count (deterministic per-group RNG
  /// substreams, drawn in admission order from the caller's generator);
  /// values > 1 only change wall-clock time, and only when batch_size > 1.
  int num_threads = 1;
  /// Periodic durable checkpoints (see dp/checkpoint.h). Inactive by
  /// default.
  CheckpointOptions checkpoint;
  /// Resume state from a previously loaded checkpoint (borrowed; must
  /// outlive the run). The run continues bit-identically to the
  /// interrupted one: same answers, scales, RNG stream and ε accounting.
  /// Refused when the checkpoint's algorithm or workload fingerprint does
  /// not match.
  const RunCheckpoint* resume = nullptr;
};

/// Runs Figure 4. Returns kPrivacyBudgetExceeded when even the all-λmax
/// allocation violates ε (the pseudo-code's "return ∅" on line 3).
/// ε-differentially private.
Result<MechanismOutput> RunIReduct(const Workload& workload,
                                   const IReductParams& params, BitGen& gen);

}  // namespace ireduct

#endif  // IREDUCT_ALGORITHMS_IREDUCT_H_
