// Reference implementations of iReduct's inner loop and selectors.
//
// RunIReductNaive is Figure 4 written out literally: a full GS recompute
// and an O(m + n) linear-scan PickQueries per iteration. The Pick*
// functions are those linear scans. None of this is on a product path —
// RunIReduct (incremental GS accounting + GroupScoreHeap selection) is the
// only loop the library ships. These stay as the parity oracle the tests
// and the scaling bench compare RunIReduct against bit for bit, and as the
// loop that drives the ablation bench's alternative pick rules.
#ifndef IREDUCT_TESTS_SUPPORT_IREDUCT_REFERENCE_H_
#define IREDUCT_TESTS_SUPPORT_IREDUCT_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "algorithms/ireduct.h"
#include "algorithms/mechanism.h"
#include "algorithms/selection.h"
#include "common/random.h"
#include "common/result.h"
#include "dp/workload.h"

namespace ireduct {

/// A PickQueries rule (Section 4.3): receives the workload, the current
/// noisy answers, per-group scales, the active-group mask, δ and λΔ;
/// returns the group to reduce next or kNoGroup to stop. It must not
/// consult the true answers (that would void the privacy guarantee).
using PickGroupFn = std::function<size_t(
    const Workload&, std::span<const double> /*noisy_answers*/,
    std::span<const double> /*group_scales*/,
    std::span<const uint8_t> /*active*/, double /*delta*/,
    double /*lambda_delta*/)>;

/// Figure 4 with a full GS recompute and a `pick_group` call per iteration.
/// A null `pick_group` selects the linear scan matching params.objective,
/// which makes the output bit-identical to RunIReduct's at batch_size 1.
/// batch_size, num_threads, checkpoint and resume are ignored: this is the
/// strictly sequential loop. The caller passes valid params.
Result<MechanismOutput> RunIReductNaive(const Workload& workload,
                                        const IReductParams& params,
                                        BitGen& gen,
                                        PickGroupFn pick_group = nullptr);

/// SelectionRule::kIReductRatio by linear scan: among groups with
/// `active[g]` and λ_g > λΔ, the one with the highest score, ties to the
/// lowest index. Returns kNoGroup when no active group is reducible.
size_t PickGroupIReduct(const Workload& workload,
                        std::span<const double> noisy_answers,
                        std::span<const double> group_scales,
                        std::span<const uint8_t> active, double delta,
                        double lambda_delta);

/// SelectionRule::kIResampRatio by linear scan over the active groups.
/// Returns kNoGroup when no active group remains.
size_t PickGroupIResamp(const Workload& workload,
                        std::span<const double> noisy_answers,
                        std::span<const double> group_scales,
                        std::span<const uint8_t> active, double delta);

/// SelectionRule::kMaxRelativeError by linear scan over the active groups
/// with λ_g > λΔ. Returns kNoGroup when none qualifies.
size_t PickGroupMaxRelativeError(const Workload& workload,
                                 std::span<const double> noisy_answers,
                                 std::span<const double> group_scales,
                                 std::span<const uint8_t> active, double delta,
                                 double lambda_delta);

}  // namespace ireduct

#endif  // IREDUCT_TESTS_SUPPORT_IREDUCT_REFERENCE_H_
