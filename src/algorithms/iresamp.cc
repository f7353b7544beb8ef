#include "algorithms/iresamp.h"

#include <cmath>
#include <vector>

#include "algorithms/selection.h"
#include "common/arena.h"
#include "common/fault.h"
#include "dp/incremental_sensitivity.h"
#include "dp/laplace_mechanism.h"
#include "obs/event_log.h"

namespace ireduct {

namespace {

// Effective privacy scale of the sample sequence λmax, λmax/2, ..., λ:
// Σ 1/λ_j = 2/λ - 1/λmax, i.e. a single release at scale
// 1/(2/λ - 1/λmax) (Figure 12, line 10).
double EffectiveScale(double lambda, double lambda_max) {
  return 1.0 / (2.0 / lambda - 1.0 / lambda_max);
}

// See kAdmitGuardRel in algorithms/ireduct.cc: within this relative band of
// ε the O(1) incremental GS defers to a full recompute so admit/retire
// decisions match the full-recompute loop exactly.
constexpr double kAdmitGuardRel = 1e-9;

// See WriteIReductCheckpoint in algorithms/ireduct.cc; iResamp additionally
// carries the raw sample scales and the Equation 16 inverse-variance
// accumulators, without which a resumed run could not fold fresh samples
// into the running minimum-variance estimate.
Status WriteIResampCheckpoint(
    const Workload& workload, uint64_t fingerprint, uint64_t round,
    const MechanismOutput& out, const std::vector<double>& effective,
    const std::vector<double>& nominal, const std::vector<double>& wsum,
    const std::vector<double>& weight, const std::vector<uint8_t>& active,
    const IncrementalSensitivity& gs_tracker, const BitGen& gen,
    CheckpointSink& sink) {
  RunCheckpoint checkpoint;
  checkpoint.algorithm = "iresamp";
  checkpoint.workload_fingerprint = fingerprint;
  checkpoint.round = round;
  checkpoint.iterations = out.iterations;
  checkpoint.resample_calls = out.resample_calls;
  checkpoint.epsilon_spent = workload.GeneralizedSensitivity(effective);
  checkpoint.rng_state = gen.SaveState();
  checkpoint.gs = gs_tracker.Save();
  checkpoint.answers = out.answers;
  checkpoint.group_scales = effective;
  checkpoint.active = active;
  checkpoint.nominal_scales = nominal;
  checkpoint.weighted_sum = wsum;
  checkpoint.weight = weight;
  return sink.Write(checkpoint);
}

}  // namespace

Result<MechanismOutput> RunIResamp(const Workload& workload,
                                   const IResampParams& params, BitGen& gen) {
  if (!(params.epsilon > 0) || !std::isfinite(params.epsilon)) {
    return Status::InvalidArgument("epsilon must be positive finite");
  }
  if (!(params.delta > 0) || !std::isfinite(params.delta)) {
    return Status::InvalidArgument("sanity bound delta must be positive");
  }
  if (!(params.lambda_max > 0) || !std::isfinite(params.lambda_max)) {
    return Status::InvalidArgument("lambda_max must be positive finite");
  }

  // Lines 1-4: start at λmax (where nominal and effective scales
  // coincide) — or rehydrate an interrupted run's state, whose initial
  // draws already happened and must not be repeated.
  const size_t num_groups = workload.num_groups();
  const size_t m = workload.num_queries();
  const RunCheckpoint* const resume = params.resume;
  std::vector<double> nominal, effective, weighted_sum, weight;
  std::vector<uint8_t> active(num_groups, 1);
  MechanismOutput out;
  if (resume != nullptr) {
    IREDUCT_RETURN_NOT_OK(ValidateResume(*resume, "iresamp", workload));
    nominal = resume->nominal_scales;
    effective = resume->group_scales;
    weighted_sum = resume->weighted_sum;
    weight = resume->weight;
    out.answers = resume->answers;
    out.iterations = static_cast<size_t>(resume->iterations);
    out.resample_calls = static_cast<size_t>(resume->resample_calls);
    active = resume->active;
    gen = BitGen::FromState(resume->rng_state);
  } else {
    nominal.assign(num_groups, params.lambda_max);
    effective.assign(num_groups, params.lambda_max);
    if (workload.GeneralizedSensitivity(effective) > params.epsilon) {
      return Status::PrivacyBudgetExceeded(
          "GS at lambda_max already exceeds epsilon; no release possible");
    }
    IREDUCT_ASSIGN_OR_RETURN(std::vector<double> samples,
                             LaplaceNoise(workload, nominal, gen));

    // Inverse-variance accumulators for Equation 16:
    //   y* = (Σ_j y_j/λ_j²) / (Σ_j 1/λ_j²).
    weighted_sum.resize(m);
    weight.resize(m);
    out.answers.resize(m);
    const double w0 = 1.0 / (params.lambda_max * params.lambda_max);
    for (size_t i = 0; i < m; ++i) {
      weighted_sum[i] = samples[i] * w0;
      weight[i] = w0;
      out.answers[i] = samples[i];
    }
  }

  // Lines 6-21: iterative refinement with fresh independent samples. The
  // selection and budget test use the same O(log m) machinery as iReduct:
  // a lazy score heap over the nominal scales (kIResampRatio) and
  // incremental GS accounting over the effective scales.
  IncrementalSensitivity gs_tracker(workload, effective);
  if (resume != nullptr) gs_tracker.Restore(resume->gs);
  GroupScoreHeap heap(workload, SelectionRule::kIResampRatio, params.delta,
                      /*lambda_delta=*/0);
  heap.Build(out.answers, nominal, active);
  uint64_t completed_rounds = resume != nullptr ? resume->round : 0;
  const uint64_t fingerprint =
      params.checkpoint.enabled() ? FingerprintWorkload(workload) : 0;
  // Scratch for the batched refinement draws; Reset keeps capacity, so
  // after the first large round no heap allocation happens per round.
  Arena round_arena;
  for (;;) {
    const size_t g = heap.PopBest();
    if (g == kNoGroup) break;

    // Lines 8-11: halve the scale and test the *effective* budget.
    const double new_nominal = nominal[g] / 2.0;
    const double new_effective =
        EffectiveScale(new_nominal, params.lambda_max);
    double gs = gs_tracker.Trial(g, new_effective);
    if (gs_tracker.incremental() &&
        std::fabs(gs - params.epsilon) <= kAdmitGuardRel * params.epsilon) {
      gs = gs_tracker.TrialExact(g, new_effective);
    }
    if (!(new_effective > 0) || gs > params.epsilon) {
      active[g] = false;  // lines 18-21
      heap.Retire(g);
      if (obs::EventLog* events = obs::EventLog::Get()) {
        events->Emit("iresamp.retire",
                     {{"group", static_cast<uint64_t>(g)},
                      {"lambda", nominal[g]}});
      }
      continue;
    }
    gs_tracker.Commit(g, new_effective);
    effective[g] = new_effective;
    nominal[g] = new_nominal;

    // Lines 12-17: fresh sample per query, folded into the running
    // minimum-variance estimate. Large groups draw through the vectorized
    // batch kernels as one run of equal scale into an arena-staged buffer
    // (zero heap traffic per round); small groups keep the per-element
    // sampler. Both paths are deterministic functions of the generator
    // state, so the released answers depend only on the seed and the
    // round sequence.
    const QueryGroup& group = workload.group(g);
    const double w = 1.0 / (new_nominal * new_nominal);
    const size_t group_size = group.end - group.begin;
    if (group_size >= 16) {
      round_arena.Reset();
      std::span<double> noise{round_arena.Alloc<double>(group_size),
                              group_size};
      gen.LaplaceBatch({&group_size, 1}, {&new_nominal, 1}, noise);
      for (uint32_t i = group.begin; i < group.end; ++i) {
        const double fresh =
            workload.true_answer(i) + noise[i - group.begin];
        weighted_sum[i] += fresh * w;
        weight[i] += w;
        out.answers[i] = weighted_sum[i] / weight[i];
      }
    } else {
      for (uint32_t i = group.begin; i < group.end; ++i) {
        const double fresh =
            workload.true_answer(i) + gen.Laplace(new_nominal);
        weighted_sum[i] += fresh * w;
        weight[i] += w;
        out.answers[i] = weighted_sum[i] / weight[i];
      }
    }
    heap.Update(g, out.answers, nominal);
    out.resample_calls += group.size();
    ++out.iterations;

    ++completed_rounds;
    if (obs::EventLog* events = obs::EventLog::Get()) {
      events->Emit("iresamp.round",
                   {{"round", completed_rounds},
                    {"group", static_cast<uint64_t>(g)},
                    {"new_nominal", new_nominal},
                    {"new_effective", new_effective},
                    {"gs", gs},
                    {"epsilon", params.epsilon}});
    }
    // Crash-test hook: "iresamp.round" crash@R dies here, after round R's
    // draws but before any checkpoint of it.
    FaultInjector::Global().Hit("iresamp.round");
    if (params.checkpoint.enabled() &&
        completed_rounds % params.checkpoint.every == 0) {
      IREDUCT_RETURN_NOT_OK(WriteIResampCheckpoint(
          workload, fingerprint, completed_rounds, out, effective, nominal,
          weighted_sum, weight, active, gs_tracker, gen,
          *params.checkpoint.sink));
    }
  }

  out.group_scales = std::move(effective);
  out.epsilon_spent = gs_tracker.Resync();
  return out;
}

}  // namespace ireduct
