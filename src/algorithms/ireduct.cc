#include "algorithms/ireduct.h"

#include <cmath>
#include <memory>
#include <vector>

#include "algorithms/selection.h"
#include "common/arena.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "dp/incremental_sensitivity.h"
#include "dp/laplace_coupling.h"
#include "dp/laplace_mechanism.h"
#include "dp/noise_down.h"
#include "obs/event_log.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace ireduct {

namespace {

// When the O(1) incremental GS lands within this relative distance of ε,
// the admit/retire decision is re-taken with a full recompute, so every
// decision is bit-identical to one taken on a from-scratch GS even at the
// budget boundary. Incremental drift is bounded far below this by the
// tracker's periodic resync, so the band is hit rarely and the amortized
// cost stays O(1).
constexpr double kAdmitGuardRel = 1e-9;

Status ValidateIReductParams(const IReductParams& p) {
  if (!(p.epsilon > 0) || !std::isfinite(p.epsilon)) {
    return Status::InvalidArgument("epsilon must be positive finite");
  }
  if (!(p.delta > 0) || !std::isfinite(p.delta)) {
    return Status::InvalidArgument("sanity bound delta must be positive");
  }
  if (!(p.lambda_max > 0) || !std::isfinite(p.lambda_max)) {
    return Status::InvalidArgument("lambda_max must be positive finite");
  }
  if (!(p.lambda_delta > 0) || !(p.lambda_delta < p.lambda_max)) {
    return Status::InvalidArgument(
        "lambda_delta must lie in (0, lambda_max)");
  }
  if (p.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be at least 1");
  }
  if (p.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be at least 1");
  }
  return Status::OK();
}

// Lines 11-12 of Figure 4 for one group: correlated resample of each
// answer down to the new scale (costs nothing beyond the new scale,
// Theorem 1). Every query of the group takes the same step, so the
// NoiseDown scale constants are built once for all of them.
Status ResampleGroup(const Workload& workload, const QueryGroup& group,
                     NoiseReducer reducer, double old_scale, double new_scale,
                     std::span<double> answers, BitGen& gen) {
  if (reducer == NoiseReducer::kPaperNoiseDown) {
    IREDUCT_ASSIGN_OR_RETURN(NoiseDownStep step,
                             NoiseDownStep::Create(old_scale, new_scale));
    for (uint32_t i = group.begin; i < group.end; ++i) {
      IREDUCT_ASSIGN_OR_RETURN(
          answers[i], step.Sample(workload.true_answer(i), answers[i], gen));
    }
    return Status::OK();
  }
  for (uint32_t i = group.begin; i < group.end; ++i) {
    IREDUCT_ASSIGN_OR_RETURN(
        answers[i], CoupledNoiseDown(workload.true_answer(i), answers[i],
                                     old_scale, new_scale, gen));
  }
  return Status::OK();
}

void RecordRetirement(size_t g, double scale) {
  IREDUCT_METRIC_COUNT("ireduct.group_retirements", 1);
  if (obs::EventLog* events = obs::EventLog::Get()) {
    events->Emit("ireduct.retire", {{"group", static_cast<uint64_t>(g)},
                                    {"lambda", scale}});
  }
}

// Captures the loop state at a completed-round boundary and delivers it to
// the sink. epsilon_spent is the exact GS of the current scales via a
// non-mutating full recompute — calling the tracker's Resync() here would
// perturb its resync cadence and break bit-identity with uninterrupted
// runs.
Status WriteIReductCheckpoint(const Workload& workload, uint64_t fingerprint,
                              uint64_t round, const MechanismOutput& out,
                              const std::vector<uint8_t>& active,
                              const IncrementalSensitivity& gs_tracker,
                              const BitGen& gen, CheckpointSink& sink) {
  RunCheckpoint checkpoint;
  checkpoint.algorithm = "ireduct";
  checkpoint.workload_fingerprint = fingerprint;
  checkpoint.round = round;
  checkpoint.iterations = out.iterations;
  checkpoint.resample_calls = out.resample_calls;
  checkpoint.epsilon_spent =
      workload.GeneralizedSensitivity(out.group_scales);
  checkpoint.rng_state = gen.SaveState();
  checkpoint.gs = gs_tracker.Save();
  checkpoint.answers = out.answers;
  checkpoint.group_scales = out.group_scales;
  checkpoint.active = active;
  return sink.Write(checkpoint);
}

// One admitted λ move awaiting its NoiseDown round.
struct AdmittedMove {
  size_t group;
  double old_scale;
  double new_scale;
  double gs_after;  // GS once the move is committed
};

}  // namespace

// Per iteration: an O(1) incremental GS trial and an O(log m) amortized
// lazy-heap pick, with the per-group answer scan paid only when that group
// is re-scored after its own resample. With batch_size = 1 this consumes
// the caller's generator in Figure 4's order and reproduces the literal
// loop (tests/support/ireduct_reference.h) bit for bit; batched rounds
// instead give every admitted group a deterministic RNG substream so the
// thread count cannot change the result.
Result<MechanismOutput> RunIReduct(const Workload& workload,
                                   const IReductParams& params, BitGen& gen) {
  IREDUCT_RETURN_NOT_OK(ValidateIReductParams(params));

  MechanismOutput out;
  std::vector<uint8_t> active(workload.num_groups(), 1);
  const RunCheckpoint* const resume = params.resume;
  if (resume != nullptr) {
    IREDUCT_RETURN_NOT_OK(ValidateResume(*resume, "ireduct", workload));
    // Rehydrate the interrupted loop: answers, scales, mask, counters and
    // the exact RNG stream position. The initial noise draw already
    // happened in the interrupted run; re-drawing here would diverge from
    // it and release different values.
    out.answers = resume->answers;
    out.group_scales = resume->group_scales;
    out.iterations = static_cast<size_t>(resume->iterations);
    out.resample_calls = static_cast<size_t>(resume->resample_calls);
    active = resume->active;
    gen = BitGen::FromState(resume->rng_state);
  } else {
    out.group_scales.assign(workload.num_groups(), params.lambda_max);
    if (workload.GeneralizedSensitivity(out.group_scales) >
        params.epsilon) {
      return Status::PrivacyBudgetExceeded(
          "GS at lambda_max already exceeds epsilon; no release possible");
    }
    IREDUCT_ASSIGN_OR_RETURN(out.answers,
                             LaplaceNoise(workload, out.group_scales, gen));
  }

  IREDUCT_SCOPED_TIMER(run_timer, "ireduct.run_seconds");

  IncrementalSensitivity gs_tracker(workload, out.group_scales);
  if (resume != nullptr) {
    // Construction recomputed GS from the restored scales; overwriting the
    // running totals with the snapshot restores the interrupted tracker's
    // accumulated Kahan carry and resync phase bit for bit.
    gs_tracker.Restore(resume->gs);
  }
  const SelectionRule rule =
      params.objective == IReductObjective::kMaxRelativeError
          ? SelectionRule::kMaxRelativeError
          : SelectionRule::kIReductRatio;
  GroupScoreHeap heap(workload, rule, params.delta, params.lambda_delta);
  {
    IREDUCT_SCOPED_TIMER(build_timer, "ireduct.pick_seconds");
    heap.Build(out.answers, out.group_scales, active);
  }

  // A one-move round never has work to share, so only batch_size decides
  // batching: the thread count cannot change which draws a run makes.
  const bool batched = params.batch_size > 1;
  std::unique_ptr<ThreadPool> pool;
  if (batched && params.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(params.num_threads);
  }

  // Round scratch from an arena: the admitted-move list and the per-move
  // substream seeds are fixed-capacity (batch_size) trivially-destructible
  // buffers, bump-allocated once for the whole run — the rounds themselves
  // perform zero heap allocations for them. round_status stays a vector
  // (Status is not trivially destructible) but is hoisted and its capacity
  // is reused across rounds.
  Arena round_arena;
  AdmittedMove* const round_buf =
      round_arena.Alloc<AdmittedMove>(params.batch_size);
  uint64_t* const seed_buf = round_arena.Alloc<uint64_t>(params.batch_size);
  size_t round_size = 0;
  std::vector<Status> round_status;
  uint64_t completed_rounds = resume != nullptr ? resume->round : 0;
  const uint64_t fingerprint =
      params.checkpoint.enabled() ? FingerprintWorkload(workload) : 0;
  // ε-delta baseline for round events; one full recompute at loop entry.
  double gs_before_round =
      obs::EventLog::active()
          ? workload.GeneralizedSensitivity(out.group_scales)
          : 0;
  for (;;) {
    round_size = 0;

    // Selection: pop admissible groups in score order until the round is
    // full. Rejected pops retire their group (Figure 4 lines 13-16); the
    // rejection does not consume a batch slot.
    {
      IREDUCT_SCOPED_TIMER(pick_timer, "ireduct.pick_seconds");
      while (round_size < params.batch_size) {
        const size_t g = heap.PopBest();
        if (g == kNoGroup) break;
        const double old_scale = out.group_scales[g];
        const double new_scale = old_scale - params.lambda_delta;
        double gs = gs_tracker.Trial(g, new_scale);
        if (gs_tracker.incremental() &&
            std::fabs(gs - params.epsilon) <=
                kAdmitGuardRel * params.epsilon) {
          // Boundary call: decide on an exact full recompute.
          gs = gs_tracker.TrialExact(g, new_scale);
        }
        const bool fits = new_scale > 0 && gs <= params.epsilon;
        if (!fits) {
          active[g] = false;
          heap.Retire(g);
          RecordRetirement(g, old_scale);
          continue;
        }
        gs_tracker.Commit(g, new_scale);
        out.group_scales[g] = new_scale;
        round_buf[round_size++] = AdmittedMove{g, old_scale, new_scale, gs};
      }
    }
    if (round_size == 0) break;

    // The round's event is a span over its NoiseDown and re-scoring,
    // recorded after its moves; every field is known once selection has
    // admitted the moves. An empty selection ends the run before the span
    // opens; a NoiseDown error that ends the run mid-round still records
    // the round it aborted.
    {
      obs::EventSpan round_event("ireduct.round");
      if (round_event.recording()) {
        const double gs_now = round_buf[round_size - 1].gs_after;
        round_event.Field("round", completed_rounds + 1);
        round_event.Field("moves", static_cast<uint64_t>(round_size));
        round_event.Field("gs", gs_now);
        round_event.Field("epsilon_delta", gs_now - gs_before_round);
        round_event.Field("epsilon", params.epsilon);
        gs_before_round = gs_now;
      }
      if (!batched) {
        // Sequential Figure 4: resample with the caller's generator
        // directly, in the literal loop's draw order.
        const AdmittedMove& mv = round_buf[0];
        IREDUCT_RETURN_NOT_OK(
            ResampleGroup(workload, workload.group(mv.group), params.reducer,
                          mv.old_scale, mv.new_scale, out.answers, gen));
      } else {
        // Batched round: derive one RNG substream per admitted group, in
        // admission order, *before* any parallel work — the draws each
        // group sees are then independent of thread count and scheduling.
        for (size_t i = 0; i < round_size; ++i) {
          seed_buf[i] = gen();
        }
        round_status.assign(round_size, Status::OK());
        auto resample_one = [&](size_t i) {
          const AdmittedMove& mv = round_buf[i];
          BitGen sub_gen(seed_buf[i]);
          round_status[i] = ResampleGroup(
              workload, workload.group(mv.group), params.reducer,
              mv.old_scale, mv.new_scale, out.answers, sub_gen);
        };
        if (pool != nullptr && round_size > 1) {
          for (size_t i = 0; i < round_size; ++i) {
            pool->Submit([&resample_one, i] { resample_one(i); });
          }
          pool->Wait();
        } else {
          for (size_t i = 0; i < round_size; ++i) resample_one(i);
        }
        for (const Status& s : round_status) {
          IREDUCT_RETURN_NOT_OK(s);
        }
        IREDUCT_METRIC_COUNT("ireduct.batch_rounds", 1);
      }

      // Re-score every refined group; bookkeeping and one event per move.
      for (size_t i = 0; i < round_size; ++i) {
        const AdmittedMove& mv = round_buf[i];
        heap.Update(mv.group, out.answers, out.group_scales);
        const QueryGroup& group = workload.group(mv.group);
        out.resample_calls += group.size();
        ++out.iterations;
        IREDUCT_METRIC_COUNT("ireduct.iterations", 1);
        IREDUCT_METRIC_COUNT("ireduct.resample_draws", group.size());
        if (obs::EventLog* events = obs::EventLog::Get()) {
          events->Emit("ireduct.move",
                       {{"round", completed_rounds + 1},
                        {"group", static_cast<uint64_t>(mv.group)},
                        {"old_lambda", mv.old_scale},
                        {"new_lambda", mv.new_scale},
                        {"gs_after", mv.gs_after}});
        }
      }
    }
    ++completed_rounds;
    // Crash-test hook: "ireduct.round" crash@R dies here, after round R's
    // draws but before any checkpoint of it.
    FaultInjector::Global().Hit("ireduct.round");
    if (params.checkpoint.enabled() &&
        completed_rounds % params.checkpoint.every == 0) {
      IREDUCT_RETURN_NOT_OK(WriteIReductCheckpoint(
          workload, fingerprint, completed_rounds, out, active, gs_tracker,
          gen, *params.checkpoint.sink));
    }
  }

  IREDUCT_METRIC_COUNT("ireduct.heap_repushes", heap.repush_count());
  IREDUCT_METRIC_COUNT("ireduct.heap_stale_pops", heap.stale_pop_count());
  // The tracker already maintains GS; one exact resync publishes the same
  // value a from-scratch recompute would.
  out.epsilon_spent = gs_tracker.Resync();
  IREDUCT_LOG(kDebug) << "iReduct finished: "
                      << out.iterations << " iterations, "
                      << out.resample_calls << " resample draws, epsilon "
                      << "spent " << out.epsilon_spent << " of "
                      << params.epsilon;
  return out;
}

}  // namespace ireduct
