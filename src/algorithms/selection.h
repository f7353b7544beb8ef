// Scale-allocation and query-selection subroutines (paper Section 5.2/5.3).
//
// These are the `Rescale` and `PickQueries` "black boxes" of the TwoPhase
// and iReduct/iResamp pseudo-code. They are generic over grouped workloads:
// they only consult the group structure, the noisy answers seen so far, the
// sanity bound δ and the noise scales — never the true answers — so using
// them costs no additional privacy.
#ifndef IREDUCT_ALGORITHMS_SELECTION_H_
#define IREDUCT_ALGORITHMS_SELECTION_H_

#include <cstddef>
#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "common/result.h"
#include "dp/workload.h"
#include "eval/sanity_bounds.h"

namespace ireduct {

/// Sentinel returned by GroupScoreHeap::PopBest when no group qualifies.
inline constexpr size_t kNoGroup = static_cast<size_t>(-1);

/// Which PickQueries objective a score ranks groups by. PickQueries picks,
/// among the active groups a rule can still reduce, the one with the
/// highest SelectionScore. Groups are reducible under kIReductRatio and
/// kMaxRelativeError while λ_g > λΔ, and always under kIResampRatio.
enum class SelectionRule {
  /// iReduct's PickQueries (Section 5.3): the ratio of estimated
  /// overall-error decrease (Equation 15, normalized per Definition 6's
  /// per-group averaging)
  ///   λΔ/(|M|·|G_g|) · Σ_{j∈g} 1/max{y_j, δ}
  /// to privacy-cost increase (Equation 14)
  ///   c_g/(λ_g - λΔ) - c_g/λ_g.
  /// (As printed, Equation 15 drops the 1/|G_g| factor that Definition 6
  /// and the Section 5.2 Oracle derivation both carry; with the factor the
  /// greedy descent provably converges to the Oracle allocation, matching
  /// the paper's Figure 6 observation that iReduct is near-optimal.)
  kIReductRatio,
  /// iResamp's benefit/cost ratio: halving the raw sample scale λ_g raises
  /// the group's effective privacy cost from c_g·(2/λ_g - 1/λmax) to
  /// c_g·(4/λ_g - 1/λmax) (Appendix A geometric series), i.e. by c_g·2/λ_g.
  kIResampRatio,
  /// The paper's worst-case objective (Section 4.3: "if we aim to minimize
  /// the maximum relative error, we may implement PickQueries as a function
  /// that returns the query that maximizes λ_i/max{y_i, δ}"): the largest
  /// estimated relative error λ_g/max{y_j, δ} over the group's cells.
  kMaxRelativeError,
};

/// Score of group g under `rule` given its current noisy answers and scale.
/// Depends only on group g's own answers span and scale (plus the constant
/// workload shape), which is what makes caching sound: a group's score is
/// stale only after that group itself was resampled or rescaled.
double SelectionScore(const Workload& workload, SelectionRule rule, size_t g,
                      std::span<const double> noisy_answers, double scale,
                      double delta, double lambda_delta);

/// Lazy max-heap group selector: PickQueries for the iReduct/iResamp inner
/// loops in O(log m) amortized per pick, where a linear scan costs O(n).
///
/// Contract: Build() scores every admissible group once; PopBest() returns
/// the current best group and *consumes* its entry, so the caller must
/// follow up with either Update(g, ...) — after g's answers/scale changed —
/// or Retire(g). Scores are cached and invalidated only when their group is
/// touched (per-group epoch counters; stale heap entries are discarded on
/// pop). Because scales only ever shrink, a group that stops being
/// reducible (λ_g ≤ λΔ under kIReductRatio/kMaxRelativeError) is dropped
/// for good, exactly as a linear scan would skip it forever.
///
/// Tie-break (deterministic): higher score wins; equal scores go to the
/// lower group index — the order a linear scan with a strict `>`
/// comparison yields. The pick sequence is therefore identical to the
/// reference scans' (tests/support/ireduct_reference.h), ties included.
class GroupScoreHeap {
 public:
  /// `lambda_delta` is consulted only by the reducibility predicate of
  /// kIReductRatio/kMaxRelativeError; pass 0 under kIResampRatio.
  GroupScoreHeap(const Workload& workload, SelectionRule rule, double delta,
                 double lambda_delta);

  /// Scores every group with active[g] != 0 that passes the reducibility
  /// predicate, and heapifies in O(m). Callable again to rebuild.
  void Build(std::span<const double> noisy_answers,
             std::span<const double> scales, std::span<const uint8_t> active);

  /// Pops the best group, or kNoGroup when none remains admissible.
  size_t PopBest();

  /// Re-scores group g from its (changed) answers/scale and re-pushes it;
  /// drops it silently when it is no longer reducible.
  void Update(size_t g, std::span<const double> noisy_answers,
              std::span<const double> scales);

  /// Permanently removes group g (no-op on the heap itself; any stale
  /// entries die lazily on pop).
  void Retire(size_t g);

  /// Observability: entries re-pushed by Update / discarded as stale.
  size_t repush_count() const { return repush_count_; }
  size_t stale_pop_count() const { return stale_pop_count_; }

 private:
  struct Entry {
    double score;
    size_t group;
    uint32_t epoch;
  };
  struct EntryLess {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.score != b.score) return a.score < b.score;
      return a.group > b.group;  // ties: lowest index on top
    }
  };

  bool Reducible(double scale) const;

  const Workload* workload_;
  SelectionRule rule_;
  double delta_;
  double lambda_delta_;
  std::vector<uint32_t> epoch_;
  std::priority_queue<Entry, std::vector<Entry>, EntryLess> heap_;
  size_t repush_count_ = 0;
  size_t stale_pop_count_ = 0;
};

/// Error-optimal scale allocation (Section 5.2): group g gets
///   λ_g ∝ sqrt(|G_g| / Σ_{j∈g} 1/max{δ, v_j})
/// normalized so that GS(Q, Λ) = ε exactly. With v = true answers this is
/// the non-private Oracle; with v = noisy first-phase answers it is
/// TwoPhase's Rescale. Values v_j below δ clamp to δ. Requires δ > 0, ε > 0.
Result<std::vector<double>> ErrorOptimalScales(const Workload& workload,
                                               std::span<const double> values,
                                               double delta, double epsilon);

/// Per-query-sanity-bound variant (the Section 2.1 extension): cell j
/// clamps to bounds.at(j) instead of a shared δ.
Result<std::vector<double>> ErrorOptimalScales(const Workload& workload,
                                               std::span<const double> values,
                                               const SanityBounds& bounds,
                                               double epsilon);

/// Proportional allocation (Section 3.1): group g gets a scale proportional
/// to max{min_j v_j, δ} (its smallest answer, clamped to the sanity bound),
/// normalized so GS = ε. Equalizes the worst-case expected relative error
/// across groups; reduces to the paper's per-query rule for singleton
/// groups. Non-private when fed true answers.
Result<std::vector<double>> ProportionalScales(const Workload& workload,
                                               std::span<const double> values,
                                               double delta, double epsilon);

/// Estimated average relative error of group g under scale `scale`
/// (Section 5.3): scale/|G_g| · Σ_{j∈g} 1/max{y_j, δ}.
double EstimatedGroupError(const Workload& workload, size_t g,
                           std::span<const double> noisy_answers, double scale,
                           double delta);

}  // namespace ireduct

#endif  // IREDUCT_ALGORITHMS_SELECTION_H_
