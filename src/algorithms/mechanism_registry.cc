#include "algorithms/mechanism_registry.h"

#include <cstdlib>
#include <mutex>

#include "algorithms/dwork.h"
#include "algorithms/geometric.h"
#include "algorithms/ireduct.h"
#include "algorithms/iresamp.h"
#include "algorithms/oracle.h"
#include "algorithms/proportional.h"
#include "algorithms/strategy_mechanism.h"
#include "algorithms/two_phase.h"
#include "obs/json.h"

namespace ireduct {

namespace {

std::string Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return std::string(s.substr(b, e - b));
}

bool ValidToken(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

Result<MechanismSpec> MechanismSpec::Parse(std::string_view text) {
  const size_t colon = text.find(':');
  MechanismSpec spec(Trim(text.substr(0, colon)));
  if (!ValidToken(spec.name_)) {
    return Status::InvalidArgument("mechanism spec '" + std::string(text) +
                                   "' has a malformed name");
  }
  if (colon == std::string_view::npos) return spec;
  std::string_view rest = text.substr(colon + 1);
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view()
                                           : rest.substr(comma + 1);
    const size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("mechanism spec param '" +
                                     std::string(item) + "' is missing '='");
    }
    const std::string key = Trim(item.substr(0, eq));
    const std::string value = Trim(item.substr(eq + 1));
    if (!ValidToken(key) || value.empty()) {
      return Status::InvalidArgument("mechanism spec param '" +
                                     std::string(item) + "' is malformed");
    }
    if (spec.Has(key)) {
      return Status::InvalidArgument("mechanism spec sets param '" + key +
                                     "' twice");
    }
    spec.params_.emplace_back(key, value);
  }
  return spec;
}

Result<MechanismSpec> MechanismSpec::FromJson(std::string_view json) {
  IREDUCT_ASSIGN_OR_RETURN(obs::JsonValue doc, obs::JsonParse(json));
  if (!doc.is(obs::JsonValue::Kind::kObject)) {
    return Status::InvalidArgument("mechanism spec JSON must be an object");
  }
  const obs::JsonValue* name = doc.Find("name");
  if (name == nullptr || !name->is(obs::JsonValue::Kind::kString)) {
    return Status::InvalidArgument(
        "mechanism spec JSON needs a string \"name\"");
  }
  MechanismSpec spec(name->text);
  if (!ValidToken(spec.name_)) {
    return Status::InvalidArgument("mechanism spec JSON name '" +
                                   spec.name_ + "' is malformed");
  }
  for (const auto& [key, value] : doc.object) {
    if (key == "name") continue;
    if (key != "params") {
      return Status::InvalidArgument(
          "mechanism spec JSON has unknown top-level key '" + key +
          "' (expected \"name\" and optional \"params\")");
    }
    if (!value.is(obs::JsonValue::Kind::kObject)) {
      return Status::InvalidArgument(
          "mechanism spec JSON \"params\" must be an object");
    }
    for (const auto& [pkey, pvalue] : value.object) {
      if (spec.Has(pkey)) {
        return Status::InvalidArgument("mechanism spec JSON sets param '" +
                                       pkey + "' twice");
      }
      switch (pvalue.kind) {
        case obs::JsonValue::Kind::kString:
        case obs::JsonValue::Kind::kNumber:
          // For numbers, `text` holds the raw token, which round-trips the
          // caller's spelling (16 stays "16", not "16.0").
          spec.Set(pkey, pvalue.text);
          break;
        case obs::JsonValue::Kind::kBool:
          spec.Set(pkey, pvalue.boolean ? "true" : "false");
          break;
        default:
          return Status::InvalidArgument(
              "mechanism spec JSON param '" + pkey +
              "' must be a string, number or boolean");
      }
    }
  }
  return spec;
}

bool MechanismSpec::Has(std::string_view key) const {
  for (const auto& [k, v] : params_) {
    if (k == key) return true;
  }
  return false;
}

void MechanismSpec::Set(std::string_view key, std::string_view value) {
  for (auto& [k, v] : params_) {
    if (k == key) {
      v = std::string(value);
      return;
    }
  }
  params_.emplace_back(std::string(key), std::string(value));
}

void MechanismSpec::Set(std::string_view key, double value) {
  Set(key, obs::FormatDouble(value));
}

void MechanismSpec::SetDefault(std::string_view key, std::string_view value) {
  if (!Has(key)) params_.emplace_back(std::string(key), std::string(value));
}

void MechanismSpec::SetDefault(std::string_view key, double value) {
  SetDefault(key, obs::FormatDouble(value));
}

Result<double> MechanismSpec::GetDouble(std::string_view key,
                                        double fallback) const {
  for (const auto& [k, v] : params_) {
    if (k != key) continue;
    char* end = nullptr;
    const double parsed = std::strtod(v.c_str(), &end);
    if (end != v.c_str() + v.size() || v.empty()) {
      return Status::InvalidArgument("mechanism spec param '" + k + "=" + v +
                                     "' is not a number");
    }
    return parsed;
  }
  return fallback;
}

Result<int64_t> MechanismSpec::GetInt(std::string_view key,
                                      int64_t fallback) const {
  for (const auto& [k, v] : params_) {
    if (k != key) continue;
    char* end = nullptr;
    const long long parsed = std::strtoll(v.c_str(), &end, 10);
    if (end != v.c_str() + v.size() || v.empty()) {
      return Status::InvalidArgument("mechanism spec param '" + k + "=" + v +
                                     "' is not an integer");
    }
    return static_cast<int64_t>(parsed);
  }
  return fallback;
}

std::string MechanismSpec::GetString(std::string_view key,
                                     std::string_view fallback) const {
  for (const auto& [k, v] : params_) {
    if (k == key) return v;
  }
  return std::string(fallback);
}

std::string MechanismSpec::ToString() const {
  std::string out = name_;
  for (size_t i = 0; i < params_.size(); ++i) {
    out += i == 0 ? ':' : ',';
    out += params_[i].first;
    out += '=';
    out += params_[i].second;
  }
  return out;
}

Status Mechanism::ValidateSpec(const MechanismSpec& spec) const {
  const MechanismInfo info = Describe();
  if (spec.name() != info.name) {
    return Status::InvalidArgument("spec '" + spec.ToString() +
                                   "' does not name mechanism '" + info.name +
                                   "'");
  }
  for (const auto& [key, value] : spec.params()) {
    bool declared = false;
    for (const MechanismParamDoc& p : info.params) {
      if (p.key == key) {
        declared = true;
        break;
      }
    }
    if (!declared) {
      std::string accepted;
      for (const MechanismParamDoc& p : info.params) {
        if (!accepted.empty()) accepted += ", ";
        accepted += p.key;
      }
      return Status::InvalidArgument("mechanism '" + info.name +
                                     "' does not accept param '" + key +
                                     "' (accepts: " + accepted + ")");
    }
  }
  return Status::OK();
}

Result<MechanismOutput> Mechanism::RunResumable(
    const Workload& workload, const MechanismSpec& spec, BitGen& gen,
    const ResumableHooks& hooks) const {
  if (hooks.trivial()) return Run(workload, spec, gen);
  return Status::InvalidArgument("mechanism '" + Describe().name +
                                 "' does not support checkpoint/resume");
}

void Mechanism::SetSpecDefault(MechanismSpec* spec, std::string_view key,
                               double value) const {
  SetSpecDefault(spec, key, std::string_view(obs::FormatDouble(value)));
}

void Mechanism::SetSpecDefault(MechanismSpec* spec, std::string_view key,
                               std::string_view value) const {
  if (spec->Has(key)) return;
  const MechanismInfo info = Describe();
  for (const MechanismParamDoc& p : info.params) {
    if (p.key == key) {
      spec->SetDefault(key, value);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Built-in adapters. Each maps spec params onto the existing free-function
// options struct and delegates, so a registry dispatch is byte-identical to
// the direct call at the same seed (mechanism_parity_test.cc enforces it).

namespace {

class DworkMechanism : public Mechanism {
 public:
  MechanismInfo Describe() const override {
    return MechanismInfo{
        "dwork",
        "Dwork",
        "Uniform Laplace noise calibrated to the workload sensitivity "
        "(Section 2.2).",
        MechanismPrivacy::kPrivate,
        {{"epsilon", "1", "privacy budget; every query gets scale S(Q)/ε"}}};
  }

  Result<MechanismOutput> Run(const Workload& workload,
                              const MechanismSpec& spec,
                              BitGen& gen) const override {
    DworkParams params;
    IREDUCT_ASSIGN_OR_RETURN(params.epsilon,
                             spec.GetDouble("epsilon", params.epsilon));
    return RunDwork(workload, params, gen);
  }
};

class GeometricMechanism : public Mechanism {
 public:
  MechanismInfo Describe() const override {
    return MechanismInfo{
        "geometric",
        "Geometric",
        "Two-sided geometric noise per (integer) query; the discrete "
        "Laplace analogue (Ghosh et al.).",
        MechanismPrivacy::kPrivate,
        {{"epsilon", "1", "privacy budget; α = e^{-ε/S(Q)}"}}};
  }

  Result<MechanismOutput> Run(const Workload& workload,
                              const MechanismSpec& spec,
                              BitGen& gen) const override {
    GeometricParams params;
    IREDUCT_ASSIGN_OR_RETURN(params.epsilon,
                             spec.GetDouble("epsilon", params.epsilon));
    return RunGeometric(workload, params, gen);
  }
};

class ProportionalMechanism : public Mechanism {
 public:
  MechanismInfo Describe() const override {
    return MechanismInfo{
        "proportional",
        "Proportional",
        "Noise scales proportional to the true answers (Section 3.1). "
        "NON-PRIVATE pedagogical baseline.",
        MechanismPrivacy::kNonPrivate,
        {{"epsilon", "1", "nominal budget: scales normalized to GS = ε"},
         {"delta", "1", "sanity bound δ of Equation 1"}}};
  }

  Result<MechanismOutput> Run(const Workload& workload,
                              const MechanismSpec& spec,
                              BitGen& gen) const override {
    ProportionalParams params;
    IREDUCT_ASSIGN_OR_RETURN(params.epsilon,
                             spec.GetDouble("epsilon", params.epsilon));
    IREDUCT_ASSIGN_OR_RETURN(params.delta,
                             spec.GetDouble("delta", params.delta));
    return RunProportional(workload, params, gen);
  }
};

class OracleMechanism : public Mechanism {
 public:
  MechanismInfo Describe() const override {
    return MechanismInfo{
        "oracle",
        "Oracle",
        "Error-optimal scale allocation computed from the exact answers "
        "(Section 5.2). NON-PRIVATE lower-bound reference.",
        MechanismPrivacy::kNonPrivate,
        {{"epsilon", "1", "budget constraint: GS(Q, Λ) = ε"},
         {"delta", "1", "sanity bound δ of Equation 1"}}};
  }

  Result<MechanismOutput> Run(const Workload& workload,
                              const MechanismSpec& spec,
                              BitGen& gen) const override {
    OracleParams params;
    IREDUCT_ASSIGN_OR_RETURN(params.epsilon,
                             spec.GetDouble("epsilon", params.epsilon));
    IREDUCT_ASSIGN_OR_RETURN(params.delta,
                             spec.GetDouble("delta", params.delta));
    return RunOracle(workload, params, gen);
  }
};

class TwoPhaseMechanism : public Mechanism {
 public:
  MechanismInfo Describe() const override {
    return MechanismInfo{
        "two_phase",
        "TwoPhase",
        "Rough uniform phase-1 estimates recalibrate the phase-2 scales "
        "(Section 3.2, Figure 1).",
        MechanismPrivacy::kPrivate,
        {{"epsilon", "", "total budget, split via epsilon1_fraction"},
         {"epsilon1_fraction", "0.07", "phase-1 share of epsilon"},
         {"epsilon1", "0.0007", "explicit phase-1 budget"},
         {"epsilon2", "0.0093", "explicit phase-2 budget"},
         {"delta", "1", "sanity bound δ of Equation 1"}}};
  }

  Status ValidateSpec(const MechanismSpec& spec) const override {
    IREDUCT_RETURN_NOT_OK(Mechanism::ValidateSpec(spec));
    const bool has_split = spec.Has("epsilon1") || spec.Has("epsilon2");
    if (spec.Has("epsilon") && has_split) {
      return Status::InvalidArgument(
          "two_phase takes either epsilon (+ epsilon1_fraction) or explicit "
          "epsilon1 + epsilon2, not both");
    }
    if (has_split && !(spec.Has("epsilon1") && spec.Has("epsilon2"))) {
      return Status::InvalidArgument(
          "two_phase needs both epsilon1 and epsilon2 when either is given");
    }
    if (spec.Has("epsilon1_fraction") && has_split) {
      return Status::InvalidArgument(
          "two_phase ignores epsilon1_fraction when epsilon1/epsilon2 are "
          "explicit — drop one of them");
    }
    return Status::OK();
  }

  Result<MechanismOutput> Run(const Workload& workload,
                              const MechanismSpec& spec,
                              BitGen& gen) const override {
    TwoPhaseParams params;
    // Explicit phase budgets win over `epsilon`: ValidateSpec rejects a
    // *user* spec carrying both, but the session/tool layers default-fill
    // `epsilon` after validation, which must not shadow an explicit split.
    if (spec.Has("epsilon1") || spec.Has("epsilon2")) {
      IREDUCT_ASSIGN_OR_RETURN(params.epsilon1,
                               spec.GetDouble("epsilon1", params.epsilon1));
      IREDUCT_ASSIGN_OR_RETURN(params.epsilon2,
                               spec.GetDouble("epsilon2", params.epsilon2));
    } else {
      IREDUCT_ASSIGN_OR_RETURN(const double epsilon,
                               spec.GetDouble("epsilon", 0.01));
      IREDUCT_ASSIGN_OR_RETURN(const double fraction,
                               spec.GetDouble("epsilon1_fraction", 0.07));
      if (!(fraction > 0) || !(fraction < 1)) {
        return Status::InvalidArgument(
            "two_phase epsilon1_fraction must be in (0, 1)");
      }
      params.epsilon1 = fraction * epsilon;
      params.epsilon2 = (1 - fraction) * epsilon;
    }
    IREDUCT_ASSIGN_OR_RETURN(params.delta,
                             spec.GetDouble("delta", params.delta));
    return RunTwoPhase(workload, params, gen);
  }
};

class IResampMechanism : public Mechanism {
 public:
  MechanismInfo Describe() const override {
    return MechanismInfo{
        "iresamp",
        "iResamp",
        "Iterative independent resampling at halved scales (Appendix A, "
        "Figure 12); the correlation ablation of iReduct.",
        MechanismPrivacy::kPrivate,
        {{"epsilon", "1", "total privacy budget"},
         {"delta", "1", "sanity bound δ of Equation 1"},
         {"lambda_max", "1", "initial noise scale (paper: |T|/10)"}}};
  }

  Result<MechanismOutput> Run(const Workload& workload,
                              const MechanismSpec& spec,
                              BitGen& gen) const override {
    IREDUCT_ASSIGN_OR_RETURN(const IResampParams params, BuildParams(spec));
    return RunIResamp(workload, params, gen);
  }

  Result<MechanismOutput> RunResumable(
      const Workload& workload, const MechanismSpec& spec, BitGen& gen,
      const ResumableHooks& hooks) const override {
    IREDUCT_ASSIGN_OR_RETURN(IResampParams params, BuildParams(spec));
    params.checkpoint = hooks.checkpoint;
    params.resume = hooks.resume;
    return RunIResamp(workload, params, gen);
  }

 private:
  static Result<IResampParams> BuildParams(const MechanismSpec& spec) {
    IResampParams params;
    IREDUCT_ASSIGN_OR_RETURN(params.epsilon,
                             spec.GetDouble("epsilon", params.epsilon));
    IREDUCT_ASSIGN_OR_RETURN(params.delta,
                             spec.GetDouble("delta", params.delta));
    IREDUCT_ASSIGN_OR_RETURN(params.lambda_max,
                             spec.GetDouble("lambda_max", params.lambda_max));
    return params;
  }
};

class IReductMechanism : public Mechanism {
 public:
  MechanismInfo Describe() const override {
    return MechanismInfo{
        "ireduct",
        "iReduct",
        "The paper's main contribution (Section 4.3, Figure 4): iterative "
        "NoiseDown refinement toward minimal relative error.",
        MechanismPrivacy::kPrivate,
        {{"epsilon", "1", "total privacy budget"},
         {"delta", "1", "sanity bound δ of Equation 1"},
         {"lambda_max", "1", "initial noise scale (paper: |T|/10)"},
         {"lambda_delta", "", "per-iteration decrement (paper: |T|/10^6)"},
         {"lambda_steps", "",
          "alternative to lambda_delta: λΔ = lambda_max/steps"},
         {"objective", "overall", "overall | max_rel PickQueries objective"},
         {"reducer", "noise_down",
          "noise_down | exact_coupling correlated resampler"},
         {"batch_size", "1", "groups admitted per round"},
         {"num_threads", "1", "workers for batched NoiseDown resampling"}}};
  }

  Status ValidateSpec(const MechanismSpec& spec) const override {
    IREDUCT_RETURN_NOT_OK(Mechanism::ValidateSpec(spec));
    if (spec.Has("lambda_delta") && spec.Has("lambda_steps")) {
      return Status::InvalidArgument(
          "ireduct takes either lambda_delta or lambda_steps, not both");
    }
    return Status::OK();
  }

  Result<MechanismOutput> Run(const Workload& workload,
                              const MechanismSpec& spec,
                              BitGen& gen) const override {
    IREDUCT_ASSIGN_OR_RETURN(const IReductParams params, BuildParams(spec));
    return RunIReduct(workload, params, gen);
  }

  Result<MechanismOutput> RunResumable(
      const Workload& workload, const MechanismSpec& spec, BitGen& gen,
      const ResumableHooks& hooks) const override {
    IREDUCT_ASSIGN_OR_RETURN(IReductParams params, BuildParams(spec));
    params.checkpoint = hooks.checkpoint;
    params.resume = hooks.resume;
    return RunIReduct(workload, params, gen);
  }

 private:
  static Result<IReductParams> BuildParams(const MechanismSpec& spec) {
    IReductParams params;
    IREDUCT_ASSIGN_OR_RETURN(params.epsilon,
                             spec.GetDouble("epsilon", params.epsilon));
    IREDUCT_ASSIGN_OR_RETURN(params.delta,
                             spec.GetDouble("delta", params.delta));
    IREDUCT_ASSIGN_OR_RETURN(params.lambda_max,
                             spec.GetDouble("lambda_max", params.lambda_max));
    // Explicit lambda_delta wins over lambda_steps: ValidateSpec rejects a
    // user spec carrying both, but the layers above default-fill
    // lambda_steps after validation.
    if (spec.Has("lambda_delta")) {
      IREDUCT_ASSIGN_OR_RETURN(
          params.lambda_delta,
          spec.GetDouble("lambda_delta", params.lambda_delta));
    } else if (spec.Has("lambda_steps")) {
      IREDUCT_ASSIGN_OR_RETURN(const int64_t steps,
                               spec.GetInt("lambda_steps", 0));
      if (steps < 2) {
        return Status::InvalidArgument("ireduct lambda_steps must be >= 2");
      }
      params.lambda_delta = params.lambda_max / static_cast<double>(steps);
    }
    const std::string objective = spec.GetString("objective", "overall");
    if (objective == "overall") {
      params.objective = IReductObjective::kOverallError;
    } else if (objective == "max_rel") {
      params.objective = IReductObjective::kMaxRelativeError;
    } else {
      return Status::InvalidArgument(
          "ireduct objective must be overall or max_rel (got '" + objective +
          "')");
    }
    const std::string reducer = spec.GetString("reducer", "noise_down");
    if (reducer == "noise_down") {
      params.reducer = NoiseReducer::kPaperNoiseDown;
    } else if (reducer == "exact_coupling") {
      params.reducer = NoiseReducer::kExactCoupling;
    } else {
      return Status::InvalidArgument(
          "ireduct reducer must be noise_down or exact_coupling (got '" +
          reducer + "')");
    }
    IREDUCT_ASSIGN_OR_RETURN(const int64_t batch,
                             spec.GetInt("batch_size", 1));
    IREDUCT_ASSIGN_OR_RETURN(const int64_t threads,
                             spec.GetInt("num_threads", 1));
    if (batch < 1) {
      return Status::InvalidArgument("ireduct batch_size must be >= 1");
    }
    if (threads < 1) {
      return Status::InvalidArgument("ireduct num_threads must be >= 1");
    }
    params.batch_size = static_cast<size_t>(batch);
    params.num_threads = static_cast<int>(threads);
    return params;
  }
};

// The strategy-matrix family (algorithms/strategy_mechanism.h): one
// shared runner serves the hierarchical and wavelet baselines (which
// view the workload's answer vector as a 1D histogram when no linear
// view is attached — bit-identical to the deleted bespoke publishers)
// and the general matrix mechanism over linear workloads.
class HierarchicalMechanism : public Mechanism {
 public:
  MechanismInfo Describe() const override {
    return MechanismInfo{
        "hierarchical",
        "Hierarchical",
        "Consistent noisy binary tree (Hay et al.) via the shared "
        "strategy runner; answers a linear view's histogram domain when "
        "attached, else the answer vector as a 1D histogram.",
        MechanismPrivacy::kPrivate,
        {{"epsilon", "1", "total privacy budget"}}};
  }

  Result<MechanismOutput> Run(const Workload& workload,
                              const MechanismSpec& spec,
                              BitGen& gen) const override {
    StrategyMechanismConfig config;
    config.strategy = "tree";
    IREDUCT_ASSIGN_OR_RETURN(config.epsilon,
                             spec.GetDouble("epsilon", config.epsilon));
    return RunStrategyMechanism(workload, config, gen);
  }
};

class WaveletMechanism : public Mechanism {
 public:
  MechanismInfo Describe() const override {
    return MechanismInfo{
        "wavelet",
        "Wavelet",
        "Privelet noisy Haar transform (Xiao et al.) via the shared "
        "strategy runner; answers a linear view's histogram domain when "
        "attached, else the answer vector as a 1D histogram.",
        MechanismPrivacy::kPrivate,
        {{"epsilon", "1", "total privacy budget"}}};
  }

  Result<MechanismOutput> Run(const Workload& workload,
                              const MechanismSpec& spec,
                              BitGen& gen) const override {
    StrategyMechanismConfig config;
    config.strategy = "wavelet";
    IREDUCT_ASSIGN_OR_RETURN(config.epsilon,
                             spec.GetDouble("epsilon", config.epsilon));
    return RunStrategyMechanism(workload, config, gen);
  }
};

// Spec parsing shared by the two matrix-mechanism entries.
Result<StrategyMechanismConfig> ParseStrategyConfig(
    const MechanismSpec& spec, bool greedy_default) {
  StrategyMechanismConfig config;
  config.strategy = spec.GetString("strategy", "tree");
  if (config.strategy != "identity" && config.strategy != "tree" &&
      config.strategy != "wavelet") {
    return Status::InvalidArgument(
        "strategy must be identity, tree or wavelet (got '" +
        config.strategy + "')");
  }
  IREDUCT_ASSIGN_OR_RETURN(config.epsilon,
                           spec.GetDouble("epsilon", config.epsilon));
  const std::string tune =
      spec.GetString("tune", greedy_default ? "greedy" : "none");
  if (tune == "greedy") {
    config.greedy = true;
  } else if (tune == "none") {
    config.greedy = false;
  } else {
    return Status::InvalidArgument("tune must be none or greedy (got '" +
                                   tune + "')");
  }
  IREDUCT_ASSIGN_OR_RETURN(
      config.epsilon1_fraction,
      spec.GetDouble("epsilon1_fraction", config.epsilon1_fraction));
  IREDUCT_ASSIGN_OR_RETURN(config.relative_floor,
                           spec.GetDouble("delta", config.relative_floor));
  IREDUCT_ASSIGN_OR_RETURN(
      const int64_t passes, spec.GetInt("tune_passes", config.tune_passes));
  if (passes < 0) {
    return Status::InvalidArgument("tune_passes must be >= 0");
  }
  config.tune_passes = static_cast<int>(passes);
  return config;
}

class MatrixMechanism : public Mechanism {
 public:
  MechanismInfo Describe() const override {
    return MechanismInfo{
        "matrix",
        "Matrix",
        "Matrix mechanism (Li-Miklau): noise a strategy matrix over the "
        "workload's linear view and reconstruct by least squares.",
        MechanismPrivacy::kPrivate,
        {{"epsilon", "1", "total privacy budget"},
         {"strategy", "tree", "strategy matrix: identity, tree or wavelet"},
         {"tune", "none", "scale tuning: none or greedy (relative error)"},
         {"epsilon1_fraction", "0.3",
          "phase-1 budget share for the greedy rough answers"},
         {"delta", "1",
          "relative-error floor for the greedy query weights"},
         {"tune_passes", "8", "greedy coordinate-descent passes"}}};
  }

  Result<MechanismOutput> Run(const Workload& workload,
                              const MechanismSpec& spec,
                              BitGen& gen) const override {
    IREDUCT_ASSIGN_OR_RETURN(
        const StrategyMechanismConfig config,
        ParseStrategyConfig(spec, /*greedy_default=*/false));
    return RunStrategyMechanism(workload, config, gen);
  }
};

class MatrixGreedyMechanism : public Mechanism {
 public:
  MechanismInfo Describe() const override {
    return MechanismInfo{
        "matrix_greedy",
        "MatrixGreedy",
        "Matrix mechanism with greedy per-row scale tuning minimizing "
        "expected relative error (phase-1 rough answers set the query "
        "weights).",
        MechanismPrivacy::kPrivate,
        {{"epsilon", "1", "total privacy budget"},
         {"strategy", "tree", "strategy matrix: identity, tree or wavelet"},
         {"tune", "greedy", "scale tuning: none or greedy"},
         {"epsilon1_fraction", "0.3",
          "phase-1 budget share for the rough answers"},
         {"delta", "1", "relative-error floor for the query weights"},
         {"tune_passes", "8", "greedy coordinate-descent passes"}}};
  }

  Result<MechanismOutput> Run(const Workload& workload,
                              const MechanismSpec& spec,
                              BitGen& gen) const override {
    IREDUCT_ASSIGN_OR_RETURN(
        const StrategyMechanismConfig config,
        ParseStrategyConfig(spec, /*greedy_default=*/true));
    return RunStrategyMechanism(workload, config, gen);
  }
};

std::mutex& RegistryMutex() {
  static std::mutex mutex;
  return mutex;
}

}  // namespace

MechanismRegistry& MechanismRegistry::Global() {
  static MechanismRegistry* registry = [] {
    auto* r = new MechanismRegistry();
    // Paper reporting order first (Section 6 tables), extensions after.
    (void)r->Register(std::make_unique<OracleMechanism>());
    (void)r->Register(std::make_unique<IReductMechanism>());
    (void)r->Register(std::make_unique<TwoPhaseMechanism>());
    (void)r->Register(std::make_unique<IResampMechanism>());
    (void)r->Register(std::make_unique<DworkMechanism>());
    (void)r->Register(std::make_unique<ProportionalMechanism>());
    (void)r->Register(std::make_unique<GeometricMechanism>());
    (void)r->Register(std::make_unique<HierarchicalMechanism>());
    (void)r->Register(std::make_unique<WaveletMechanism>());
    (void)r->Register(std::make_unique<MatrixMechanism>());
    (void)r->Register(std::make_unique<MatrixGreedyMechanism>());
    return r;
  }();
  return *registry;
}

Status MechanismRegistry::Register(std::unique_ptr<Mechanism> mechanism) {
  if (mechanism == nullptr) {
    return Status::InvalidArgument("cannot register a null mechanism");
  }
  const std::string name = mechanism->Describe().name;
  if (name.empty()) {
    return Status::InvalidArgument("mechanism name must be non-empty");
  }
  std::lock_guard<std::mutex> lock(RegistryMutex());
  for (const auto& entry : entries_) {
    if (entry->Describe().name == name) {
      return Status::InvalidArgument("mechanism '" + name +
                                     "' is already registered");
    }
  }
  entries_.push_back(std::move(mechanism));
  return Status::OK();
}

const Mechanism* MechanismRegistry::Find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  for (const auto& entry : entries_) {
    if (entry->Describe().name == name) return entry.get();
  }
  return nullptr;
}

Result<const Mechanism*> MechanismRegistry::Get(std::string_view name) const {
  const Mechanism* mechanism = Find(name);
  if (mechanism != nullptr) return mechanism;
  std::string known;
  for (const std::string& n : Names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return Status::NotFound("unknown mechanism '" + std::string(name) +
                          "' (registered: " + known + ")");
}

std::vector<std::string> MechanismRegistry::Names() const {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& entry : entries_) {
    names.push_back(entry->Describe().name);
  }
  return names;
}

Result<MechanismOutput> MechanismRegistry::Run(const Workload& workload,
                                               const MechanismSpec& spec,
                                               BitGen& gen) const {
  IREDUCT_ASSIGN_OR_RETURN(const Mechanism* mechanism, Get(spec.name()));
  IREDUCT_RETURN_NOT_OK(mechanism->ValidateSpec(spec));
  return mechanism->Run(workload, spec, gen);
}

Result<MechanismOutput> MechanismRegistry::Run(const Workload& workload,
                                               std::string_view spec_text,
                                               BitGen& gen) const {
  IREDUCT_ASSIGN_OR_RETURN(MechanismSpec spec, MechanismSpec::Parse(spec_text));
  return Run(workload, spec, gen);
}

Result<MechanismOutput> MechanismRegistry::RunResumable(
    const Workload& workload, const MechanismSpec& spec, BitGen& gen,
    const Mechanism::ResumableHooks& hooks) const {
  IREDUCT_ASSIGN_OR_RETURN(const Mechanism* mechanism, Get(spec.name()));
  IREDUCT_RETURN_NOT_OK(mechanism->ValidateSpec(spec));
  return mechanism->RunResumable(workload, spec, gen, hooks);
}

}  // namespace ireduct
